// Package verify checks the outputs of the out-of-core sorters: global
// sortedness in column-major (PDM) order and multiset preservation, both
// computed streaming so that verification itself stays out-of-core (never
// more than one column portion in memory).
package verify

import (
	"fmt"
	"hash/crc32"

	"colsort/internal/pdm"
	"colsort/internal/record"
	"colsort/internal/sim"
)

// Error describes a verification failure with enough position information
// to debug a missorted run.
type Error struct {
	Kind   string
	Column int
	Row    int
	Detail string
}

func (e *Error) Error() string {
	return fmt.Sprintf("verify: %s at column %d row %d: %s", e.Kind, e.Column, e.Row, e.Detail)
}

// StoreSorted checks that the store's contents are sorted in column-major
// order: within each column and across each column boundary. For the
// ColumnOwned layout this is exactly the PDM striped ordering of footnote 6
// (columns are the stripe blocks, assigned round-robin to disks).
func StoreSorted(st *pdm.Store) error {
	return scan(st, total(st), nil).firstFailure()
}

// Multiset checks that the store holds exactly the claimed multiset of
// records.
func Multiset(st *pdm.Store, want record.Checksum) error {
	got, err := st.Checksum()
	if err != nil {
		return err
	}
	return multiset(got, want, "checksum")
}

// Output runs both checks in one scan; it is the standard postcondition of
// every sorter test and of the cmd/colsort verify subcommand. A multiset
// violation is reported before an order violation.
func Output(st *pdm.Store, want record.Checksum) error {
	_, err := check(st, total(st), want, nil)
	return err
}

// OutputPrefix checks a padded sort: the first n records (in column-major
// order) must be sorted and match the claimed multiset, and every record
// after them must be an all-0xFF pad. Pads carry the maximum key and the
// maximum payload, so they sort after (or byte-identically among) all real
// records, making prefix trimming exact. Used by the non-power-of-two
// support in the public API. The earliest order or pad violation is
// reported before a multiset violation.
func OutputPrefix(st *pdm.Store, n int64, want record.Checksum) error {
	sc := scan(st, n, nil)
	if err := sc.firstFailure(); err != nil {
		return err
	}
	return multiset(sc.got, want, "prefix checksum")
}

// Sealed verifies the first n records of st — Output when n covers the
// whole store, OutputPrefix otherwise — and returns the CRC32-C of every
// owned segment in Segments order, so a caller that re-reads the store can
// check it reads exactly the bytes that were verified. Processor p's read
// buffer comes from pools[p] when pools is non-nil.
func Sealed(st *pdm.Store, n int64, want record.Checksum, pools []*record.Pool) ([]uint32, error) {
	if n >= total(st) {
		return check(st, n, want, pools)
	}
	sc := scan(st, n, pools)
	if err := sc.firstFailure(); err != nil {
		return nil, err
	}
	return sc.crcs, multiset(sc.got, want, "prefix checksum")
}

// check is Output's priority: read errors, then the multiset, then order.
func check(st *pdm.Store, n int64, want record.Checksum, pools []*record.Pool) ([]uint32, error) {
	sc := scan(st, n, pools)
	if sc.err != nil {
		return nil, sc.err
	}
	if err := multiset(sc.got, want, "checksum"); err != nil {
		return nil, err
	}
	return sc.crcs, sc.firstFailure()
}

func total(st *pdm.Store) int64 { return int64(st.R) * int64(st.S) }

func multiset(got, want record.Checksum, what string) error {
	if got.Equal(want) {
		return nil
	}
	return &Error{Kind: "multiset violation",
		Detail: fmt.Sprintf("%s (count=%d sum=%x) != expected (count=%d sum=%x)",
			what, got.Count, got.Sum, want.Count, want.Sum)}
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CRC is the seal Sealed records for a segment's bytes: their CRC32-C.
func CRC(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// segment is what one scan keeps of one owned segment.
type segment struct {
	j, lo int
	real  int   // records of the segment inside the real prefix
	fault error // its read error, first order violation within it, or pad violation
}

// scanned is the outcome of one verification scan.
type scanned struct {
	segs []segment
	ends record.Slice    // first and last real record of each segment (2k, 2k+1)
	got  record.Checksum // of the real records
	crcs []uint32        // per segment, over all its bytes
	err  error           // the earliest read error; later segments may be unread
}

// scan reads every owned segment of st once, one goroutine per processor
// (ScanOwned). Within a segment it compares each real record with the one
// before it, checks that records beyond the first n are pads, and folds the
// real records into a per-processor checksum; the segments' first and last
// real records are kept for the column-boundary checks of firstFailure.
func scan(st *pdm.Store, n int64, pools []*record.Pool) *scanned {
	segs := st.Segments()
	sc := &scanned{
		segs: make([]segment, len(segs)),
		ends: record.Make(2*len(segs), st.RecSize),
		crcs: make([]uint32, len(segs)),
	}
	sums := make([]record.Checksum, st.P)
	bufs := make([]record.Slice, st.P)
	pool := func(p int) *record.Pool {
		if pools == nil {
			return nil // plain allocation
		}
		return pools[p]
	}
	sc.err = st.ScanOwned(func(p, k, j, lo, hi int) error {
		if bufs[p].Size == 0 {
			bufs[p] = pool(p).Get(st.R, st.RecSize)
		}
		chunk := bufs[p].Sub(0, hi-lo)
		var cnt sim.Counters
		if err := st.ReadRows(&cnt, p, j, lo, chunk); err != nil {
			sc.segs[k].fault = err
			return err
		}
		sc.crcs[k] = CRC(chunk.Data)
		real := int(min(max(n-(int64(j)*int64(st.R)+int64(lo)), 0), int64(hi-lo)))
		sg := &sc.segs[k]
		*sg = segment{j: j, lo: lo, real: real}
		for i := 1; i < real; i++ {
			if record.Compare(chunk, i, chunk, i-1) < 0 {
				sg.fault = orderViolation(j, lo+i, chunk, i, chunk, i-1)
				break
			}
		}
		if sg.fault == nil {
			for i := real; i < chunk.Len(); i++ {
				if !isPad(chunk.Record(i)) {
					sg.fault = &Error{Kind: "pad violation", Column: j, Row: lo + i,
						Detail: "non-pad record beyond the real prefix"}
					break
				}
			}
		}
		if real > 0 {
			sums[p].AddSlice(chunk.Sub(0, real))
			sc.ends.CopyRecord(2*k, chunk, 0)
			sc.ends.CopyRecord(2*k+1, chunk, real-1)
		}
		return nil
	})
	for p, buf := range bufs {
		pool(p).Put(buf)
	}
	for _, s := range sums {
		sc.got.Merge(s)
	}
	return sc
}

// firstFailure returns the earliest failure in scan order: an order
// violation (across a segment boundary or within a segment), a pad
// violation, or a read error. ScanOwned reads every segment before the
// earliest failed read, so the walk meets that read before any unread
// segment.
func (sc *scanned) firstFailure() error {
	for k, sg := range sc.segs {
		if k > 0 && sg.real > 0 && record.Compare(sc.ends, 2*k, sc.ends, 2*k-1) < 0 {
			return orderViolation(sg.j, sg.lo, sc.ends, 2*k, sc.ends, 2*k-1)
		}
		if sg.fault != nil {
			return sg.fault
		}
	}
	return nil
}

func orderViolation(j, row int, s record.Slice, i int, prev record.Slice, pi int) *Error {
	return &Error{Kind: "order violation", Column: j, Row: row,
		Detail: fmt.Sprintf("key %x follows %x", s.Key(i), prev.Key(pi))}
}

func isPad(rec []byte) bool {
	for _, b := range rec {
		if b != 0xff {
			return false
		}
	}
	return true
}

// SliceSorted checks an in-memory snapshot; a convenience for tests.
func SliceSorted(s record.Slice) error {
	n := s.Len()
	for i := 1; i < n; i++ {
		if s.Less(i, i-1) {
			return &Error{Kind: "order violation", Row: i,
				Detail: fmt.Sprintf("key %x follows %x", s.Key(i), s.Key(i-1))}
		}
	}
	return nil
}
