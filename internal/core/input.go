package core

import (
	"fmt"

	"colsort/internal/cluster"
	"colsort/internal/pdm"
	"colsort/internal/record"
	"colsort/internal/sim"
)

// Input is what a run's first pass reads its columns from: whole owned
// segments, each hinted one round ahead. *pdm.Store satisfies it; Stream
// reads the segments straight from a sequential record source.
type Input interface {
	ReadRows(cnt *sim.Counters, p, j, rowLo int, dst record.Slice) error
	PrefetchRows(p, j, rowLo, n int)
}

// Stream is a run input read straight from a sequential record source, so
// pass 1 needs no ingest copy on disk. On every layout, round t of pass 1
// reads exactly the global column-major segments [tP, (t+1)P), so the
// segments can be taken from the source in order: the owner of segment k
// waits for its turn, reads the segment into its own pool buffer, and hands
// the turn to the owner of segment k+1. Only the read itself is serial;
// each rank finishes its segment (the caller's encoding, checksum and
// padding) after handing the turn on.
type Stream struct {
	shape *pdm.Store // the plan's shape on disk-less arrays: ownership and read accounting
	per   int        // segments per column
	segs  int

	read   func(dst record.Slice, first int64) error
	finish func(p int, dst record.Slice, first int64)

	// turns[p] holds a token while segment next belongs to p and is
	// unread; next is written only by the token holder.
	turns   []chan struct{}
	next    int
	aborted <-chan struct{} // the fabric's abort, bound by Run before pass 1
}

// NewStream builds a stream input for pl on m. read fills dst with the
// records whose global column-major indices start at first; it is called
// for one segment at a time, in index order. finish then runs on the
// reading rank, concurrently with the other ranks' reads and finishes. A
// Stream feeds one Run.
func NewStream(pl Plan, m pdm.Machine, read func(dst record.Slice, first int64) error, finish func(p int, dst record.Slice, first int64)) (*Stream, error) {
	arrays, err := m.NewMeterArrays()
	if err != nil {
		return nil, err
	}
	var shape *pdm.Store
	if pl.Layout == pdm.GroupBlocked {
		shape, err = pdm.NewGroupStore(pl.R, pl.S, pl.Z, pl.P, pl.Group, arrays)
	} else {
		shape, err = pdm.NewStore(pl.R, pl.S, pl.Z, pl.P, pl.Layout, arrays)
	}
	if err != nil {
		return nil, err
	}
	per := 0
	for p := 0; p < pl.P; p++ {
		if lo, hi := shape.OwnedRows(p, 0); lo < hi {
			per++
		}
	}
	s := &Stream{shape: shape, per: per, segs: per * pl.S, read: read, finish: finish,
		turns: make([]chan struct{}, pl.P)}
	for p := range s.turns {
		s.turns[p] = make(chan struct{}, 1)
	}
	s.turns[s.owner(0)] <- struct{}{}
	return s, nil
}

// owner returns the rank owning segment k.
func (s *Stream) owner(k int) int {
	rows := s.shape.R / s.per
	return s.shape.Owner(k%s.per*rows, k/s.per)
}

// ReadRows reads processor p's whole owned segment of column j from the
// source once every earlier segment has been read, charging cnt exactly as
// the store read it replaces. A fabric abort wakes a rank waiting for its
// turn.
func (s *Stream) ReadRows(cnt *sim.Counters, p, j, rowLo int, dst record.Slice) error {
	if lo, hi := s.shape.OwnedRows(p, j); rowLo != lo || dst.Len() != hi-lo || lo == hi {
		return fmt.Errorf("core: stream input: rows [%d,%d) of column %d are not processor %d's segment",
			rowLo, rowLo+dst.Len(), j, p)
	}
	if dst.Size != s.shape.RecSize {
		return fmt.Errorf("core: stream input: buffer record size %d != %d", dst.Size, s.shape.RecSize)
	}
	k := j*s.per + rowLo/(s.shape.R/s.per)
	select {
	case <-s.turns[p]:
	case <-s.aborted:
		return cluster.ErrAborted
	}
	if s.next != k {
		return fmt.Errorf("core: stream input: segment %d read out of order (next is %d)", k, s.next)
	}
	first := int64(j)*int64(s.shape.R) + int64(rowLo)
	if err := s.read(dst, first); err != nil {
		return err
	}
	s.next++
	if s.next < s.segs {
		s.turns[s.owner(s.next)] <- struct{}{}
	}
	s.finish(p, dst, first)
	return s.shape.ChargeRead(cnt, p, j, rowLo, dst.Len())
}

// PrefetchRows is a no-op: the source is read in order, on demand.
func (s *Stream) PrefetchRows(p, j, rowLo, n int) {}
