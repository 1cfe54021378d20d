package runform

// The binary-heap replacement-selection former the loser-tree Former
// replaced, kept as the reference the equivalence tests and the fuzz
// target compare against: on the same input both must form exactly the
// same runs, in the same directions.

import (
	"bytes"
	"encoding/binary"

	"colsort/internal/record"
)

// heapFormer produces maximal sorted runs from a record stream via replacement
// selection. It is single-goroutine; the caller drives it with NextRun /
// Fill and must Close it to return the pooled arena.
type heapFormer struct {
	z        int
	capacity int
	pool     *record.Pool
	read     func(rec []byte) (bool, error)

	arena record.Slice // the capacity resident records, indexed by slot
	keys  []uint64     // cached 8-byte big-endian prefix per slot

	heap    []int32 // slots of the current run, ordered by (prefix, full bytes)
	pending []int32 // arrivals deferred to the next run (they would break this one)

	desc     bool   // current run emits in descending order
	last     []byte // copy of the record most recently emitted into the current run
	haveLast bool

	// Direction heuristic state: up/down key steps between consecutive
	// arrivals since the previous run started (the initial fill, for run 1).
	// The next run goes descending only on a decisive supermajority of
	// downward steps; anything noisier defaults to ascending.
	ups, downs int64
	prevKey    uint64
	haveSeen   bool

	eof     bool
	started bool
}

// newHeapFormer builds a heapFormer over a record stream. capacity is the number of
// resident records (the replacement-selection heap size), z the record size
// in bytes. read fills rec with the next input record, returning false at
// end of stream; records must already be in normalized (memcmp-ordered) key
// space. The arena is taken from pool (which may be nil).
func newHeapFormer(capacity, z int, pool *record.Pool, read func(rec []byte) (bool, error)) *heapFormer {
	if capacity < 1 {
		capacity = 1
	}
	f := &heapFormer{
		z:        z,
		capacity: capacity,
		pool:     pool,
		read:     read,
		keys:     make([]uint64, capacity),
		heap:     make([]int32, 0, capacity),
		pending:  make([]int32, 0, capacity),
		last:     make([]byte, z),
	}
	f.arena = pool.Get(capacity, z)
	return f
}

// Close returns the arena to the pool. The heapFormer must not be used after.
func (f *heapFormer) Close() {
	if f.arena.Data != nil {
		f.pool.Put(f.arena)
		f.arena = record.Slice{}
	}
}

// readInto refills slot from the input, caching its key prefix and feeding
// the direction heuristic. Returns false (and latches eof) at end of stream.
func (f *heapFormer) readInto(slot int32) (bool, error) {
	rec := f.arena.Record(int(slot))
	ok, err := f.read(rec)
	if err != nil {
		return false, err
	}
	if !ok {
		f.eof = true
		return false, nil
	}
	k := binary.BigEndian.Uint64(rec)
	f.keys[slot] = k
	if f.haveSeen {
		if k > f.prevKey {
			f.ups++
		} else if k < f.prevKey {
			f.downs++
		}
	}
	f.prevKey = k
	f.haveSeen = true
	return true, nil
}

// NextRun starts the next run, choosing its direction from the arrival
// drift, and returns that direction. ok is false when the input is
// exhausted and every resident record has been emitted.
func (f *heapFormer) NextRun() (desc, ok bool, err error) {
	if !f.started {
		f.started = true
		for i := 0; i < f.capacity && !f.eof; i++ {
			ok, err := f.readInto(int32(i))
			if err != nil {
				return false, false, err
			}
			if !ok {
				break
			}
			f.pending = append(f.pending, int32(i))
		}
	}
	if len(f.pending) == 0 {
		return false, false, nil
	}
	f.desc = f.downs > 4*f.ups
	f.ups, f.downs, f.haveSeen = 0, 0, false
	f.heap, f.pending = f.pending, f.heap[:0]
	f.heapify()
	f.haveLast = false
	return f.desc, true, nil
}

// Fill emits up to out.Len() records of the current run, in the run's
// direction, replacing each emitted record from the input. It returns 0
// when the run is complete (call NextRun for the next one).
func (f *heapFormer) Fill(out record.Slice) (int, error) {
	n := 0
	for n < out.Len() && len(f.heap) > 0 {
		slot := f.heap[0]
		rec := f.arena.Record(int(slot))
		copy(out.Record(n), rec)
		copy(f.last, rec)
		f.haveLast = true
		n++
		if !f.eof {
			ok, err := f.readInto(slot)
			if err != nil {
				return n, err
			}
			if ok {
				if f.extends(f.arena.Record(int(slot))) {
					// The arrival replaces the emitted root in place.
					f.siftDown(0)
					continue
				}
				f.pending = append(f.pending, slot)
			}
		}
		// Pop the root: the slot now belongs to pending (or is dead at EOF).
		top := len(f.heap) - 1
		f.heap[0] = f.heap[top]
		f.heap = f.heap[:top]
		if len(f.heap) > 1 {
			f.siftDown(0)
		}
	}
	return n, nil
}

// BreakRun force-ends the current run: every resident record is deferred
// to the next run, so the next Fill returns 0. Callers use it to bound run
// length when each spilled run must also be retained in memory for redo.
func (f *heapFormer) BreakRun() {
	f.pending = append(f.pending, f.heap...)
	f.heap = f.heap[:0]
}

// extends reports whether rec can join the current run after the last
// emitted record without violating the run's direction.
func (f *heapFormer) extends(rec []byte) bool {
	if !f.haveLast {
		return true
	}
	k := binary.BigEndian.Uint64(rec)
	lk := binary.BigEndian.Uint64(f.last)
	if k != lk {
		if f.desc {
			return k < lk
		}
		return k > lk
	}
	c := bytes.Compare(rec, f.last)
	if f.desc {
		return c <= 0
	}
	return c >= 0
}

// less orders two slots by the current run's direction: cached prefixes
// first, full normalized bytes only on prefix ties.
func (f *heapFormer) less(a, b int32) bool {
	ka, kb := f.keys[a], f.keys[b]
	if ka != kb {
		if f.desc {
			return ka > kb
		}
		return ka < kb
	}
	c := bytes.Compare(f.arena.Record(int(a)), f.arena.Record(int(b)))
	if f.desc {
		return c > 0
	}
	return c < 0
}

func (f *heapFormer) heapify() {
	for i := len(f.heap)/2 - 1; i >= 0; i-- {
		f.siftDown(i)
	}
}

func (f *heapFormer) siftDown(i int) {
	h := f.heap
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && f.less(h[r], h[l]) {
			m = r
		}
		if !f.less(h[m], h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
