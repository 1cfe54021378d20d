// Package runform forms sorted runs from a record stream by replacement
// selection on a loser tree (Knuth TAOCP vol. 3 §5.4.1; Bender, McCauley,
// McGregor, Singh, Vu — "Run Generation Revisited").
//
// A Former holds a working set of `capacity` normalized records. It
// repeatedly emits the record that extends the current run, refills the
// freed slot from the input, and defers records that would break the run
// to the next one. On random input this yields runs of expected length
// ~2×capacity (vs exactly capacity for fixed batches); on already-sorted
// input it yields a single run.
//
// Runs may be ascending or descending: before each run starts, the
// key-step tally of the arrivals observed since the previous run began
// picks the direction, and descending needs a decisive supermajority of
// downward steps — so monotonically decreasing inputs (the mirror of the
// nearly-sorted production case) collapse to one run, while random input
// always forms ascending runs. The supermajority matters: on random input
// the direction signal is a coin flip, and alternating run directions cuts
// the expected run length from 2×capacity to 1.5×capacity (Knuth §5.4.1).
// Descending runs are spilled as written and consumed through a reversed
// run reader downstream; the Former itself only guarantees each run is
// monotone in its declared direction.
//
// All comparisons happen in normalized key space: records are memcmp-
// ordered after KeySpec encoding, and the tree (internal/ltree) holds each
// slot's 8-byte key prefix inline — complemented in a descending run — so
// almost every match is one uint64 compare without touching the records.
package runform

import (
	"bytes"
	"encoding/binary"

	"colsort/internal/ltree"
	"colsort/internal/record"
)

// Slot states: every resident record belongs to the current run, waits for
// the next one, or is gone (its slot could not be refilled at end of input).
const (
	dead uint8 = iota
	inRun
	deferred
)

// Former produces maximal sorted runs from a record stream via replacement
// selection. It is single-goroutine; the caller drives it with NextRun /
// Fill and must Close it to return the pooled arena.
type Former struct {
	pool *record.Pool
	read func(rec []byte) (bool, error)

	arena record.Slice // the capacity resident records, indexed by slot
	state []uint8      // per slot: dead, inRun or deferred
	tree  *ltree.Tree  // leaves = slots: inRun slots at their run-order key, the rest at MaxKey (stale after BreakRun until NextRun)

	desc bool // current run emits in descending order

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

// New builds a Former over a record stream. capacity is the number of
// resident records (the replacement-selection working set), z the record
// size in bytes. read fills rec with the next input record, returning false
// at end of stream; records must already be in normalized (memcmp-ordered)
// key space. The arena is taken from pool (which may be nil).
func New(capacity, z int, pool *record.Pool, read func(rec []byte) (bool, error)) *Former {
	if capacity < 1 {
		capacity = 1
	}
	f := &Former{
		pool:  pool,
		read:  read,
		state: make([]uint8, capacity),
	}
	f.tree = ltree.New(capacity, f.tie)
	f.arena = pool.Get(capacity, z)
	return f
}

// Close returns the arena to the pool. The Former must not be used after.
func (f *Former) Close() {
	if f.arena.Data != nil {
		f.pool.Put(f.arena)
		f.arena = record.Slice{}
	}
}

// readInto refills slot from the input, feeding the direction heuristic.
// Returns false (and latches eof) at end of stream.
func (f *Former) readInto(slot int32) (bool, error) {
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

// runKey is slot's key in the current run's order: the prefix itself for
// an ascending run, its complement for a descending one.
func (f *Former) runKey(slot int32) uint64 {
	k := binary.BigEndian.Uint64(f.arena.Record(int(slot)))
	if f.desc {
		return ^k
	}
	return k
}

// tie orders two slots whose tree keys are equal: a slot of the current
// run beats any other (a run record whose key is MaxKey ties every parked
// slot), then full normalized bytes in the run's direction, then slot id.
func (f *Former) tie(a, b int32) bool {
	la, lb := f.state[a] == inRun, f.state[b] == inRun
	if !la || !lb {
		return la
	}
	if c := f.cmp(f.arena.Record(int(a)), f.arena.Record(int(b))); c != 0 {
		return c < 0
	}
	return a < b
}

// cmp compares two records in the current run's order.
func (f *Former) cmp(a, b []byte) int {
	if f.desc {
		a, b = b, a
	}
	return bytes.Compare(a, b)
}

// NextRun starts the next run, choosing its direction from the arrival
// drift, and returns that direction. ok is false when the input is
// exhausted and every resident record has been emitted.
func (f *Former) NextRun() (desc, ok bool, err error) {
	if !f.started {
		f.started = true
		for i := 0; i < len(f.state) && !f.eof; i++ {
			ok, err := f.readInto(int32(i))
			if err != nil {
				return false, false, err
			}
			if !ok {
				break
			}
			f.state[i] = deferred
		}
	}
	members := 0
	for i, s := range f.state {
		if s == deferred {
			f.state[i] = inRun
			members++
		}
	}
	if members == 0 {
		return false, false, nil
	}
	f.desc = f.downs > 4*f.ups
	f.ups, f.downs, f.haveSeen = 0, 0, false
	f.tree.Build(func(slot int32) uint64 {
		if f.state[slot] != inRun {
			return record.MaxKey
		}
		return f.runKey(slot)
	})
	return f.desc, true, nil
}

// Fill emits up to out.Len() records of the current run, in the run's
// direction, replacing each emitted record from the input. It returns 0
// when the run is complete (call NextRun for the next one).
func (f *Former) Fill(out record.Slice) (int, error) {
	n := 0
	for n < out.Len() {
		slot, key := f.tree.Winner()
		if f.state[slot] != inRun {
			break // no slot of the current run is left
		}
		emitted := out.Record(n)
		copy(emitted, f.arena.Record(int(slot)))
		n++
		st, next := dead, record.MaxKey
		if !f.eof {
			ok, err := f.readInto(slot)
			if err != nil {
				return n, err
			}
			if ok {
				// The arrival extends the run unless it sorts before the
				// record it replaces; then it waits for the next run.
				st = deferred
				if k := f.runKey(slot); k > key || k == key && f.cmp(f.arena.Record(int(slot)), emitted) >= 0 {
					st, next = inRun, k
				}
			}
		}
		f.state[slot] = st
		f.tree.Replay(slot, next)
	}
	return n, nil
}

// BreakRun force-ends the current run: every resident record is deferred
// to the next run, so the next Fill returns 0. Callers use it to bound run
// length when each spilled run must also be retained in memory for redo.
// The tree is left as it is; NextRun rebuilds it.
func (f *Former) BreakRun() {
	for i, s := range f.state {
		if s == inRun {
			f.state[i] = deferred
		}
	}
}
