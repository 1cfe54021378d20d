package core

import (
	"fmt"

	"colsort/internal/cluster"
	"colsort/internal/pdm"
	"colsort/internal/pipeline"
	"colsort/internal/record"
	"colsort/internal/sim"
	"colsort/internal/sortalg"
)

// scatterSpec describes one distribution pass on the column-owned layout:
// sort each column, then permute records to target columns (columnsort
// steps 2, 4, or 3.1).
type scatterSpec struct {
	name string

	// runLen is the length of the sorted runs the input columns consist of
	// (0 means unsorted: sort from scratch). Arrival-order writes make all
	// runs contiguous.
	runLen int

	// destCol maps sorted row i of source column j to its target column.
	destCol func(i, j int) int

	// colInvariant marks destCol as independent of the source column j
	// (true for steps 2 and 4): the permutation tables are then computed
	// once per pass and shared by every round; otherwise they are rebuilt
	// per round into reusable stage scratch.
	colInvariant bool

	// targetProcs returns the processors that source column j sends to,
	// or nil to use a full all-to-all (every processor sends P messages,
	// as in passes 1 and 2 of threaded columnsort). The subblock pass
	// supplies the ⌈P/√s⌉-element target set of Section 3.
	targetProcs func(j int) []int
}

// scatterRound is the unit flowing through a scatter pass's pipeline.
type scatterRound struct {
	t   int // round index
	col int // source column processed by this processor

	buf    record.Slice   // read → sorted column
	inMsgs []record.Slice // per source processor, after communicate

	// writes holds, per owned-column slot (slot k ↔ column p + k·P), the
	// records that arrived this round, in arrival order.
	writes []record.Slice
}

// pipeDepth is the channel capacity between pipeline stages; 2 keeps a few
// rounds in flight (enough to overlap I/O, sort and communication) while
// bounding buffer memory, like the paper's fixed buffer pools.
const pipeDepth = 2

// sortColumn realizes a pass's sort stage: a full sort when the input run
// structure is unknown (runLen ≤ 0), a pure copy when the column is already
// one sorted run (runLen ≥ len), and a k-way merge otherwise, charging the
// appropriate comparison work. runs must be the precomputed descriptors
// matching runLen (sortRunsFor), and sc the calling stage's scratch.
func sortColumn(dst, src record.Slice, runLen int, runs []sortalg.Run, sc *sortalg.Scratch, cnt *sim.Counters) {
	r := src.Len()
	switch {
	case runLen <= 0 || runLen > r:
		sc.SortInto(dst, src)
		cnt.CompareUnits += sim.SortWork(r)
	case runLen == r:
		dst.Copy(src)
	default:
		k := r / runLen
		sc.MergeRunsInto(dst, src, runs)
		cnt.CompareUnits += sim.MergeWork(r, k)
	}
	cnt.MovedBytes += int64(len(dst.Data))
}

// sortRunsFor precomputes the run descriptors sortColumn needs for columns
// of r records made of sorted runs of length runLen (nil when a full sort
// or a pure copy applies), so the merge stage does not rebuild them per
// round.
func sortRunsFor(r, runLen int) []sortalg.Run {
	if runLen <= 0 || runLen >= r {
		return nil
	}
	return sortalg.ContiguousRuns(r, r/runLen)
}

// runScatterPass executes one scatter pass on processor pr, reading columns
// of in and appending arrival-order chunks to out. All column, message and
// write buffers cycle through pool, and the permutation is replayed from
// precomputed tables (see pattern.go). It merges per-stage counters into
// cnt when the pass completes.
func runScatterPass(pr *cluster.Proc, pl Plan, spec scatterSpec, in Input, out *pdm.Store, tagBase int, pool *record.Pool, cnt *sim.Counters, onRound func()) error {
	p := pr.Rank()
	P := pl.P
	r, s, z := pl.R, pl.S, pl.Z
	rounds := pl.Rounds()
	nSlots := s / P

	var cRead, cSort, cComm, cPerm, cWrite sim.Counters
	nextFree := make([]int, nSlots) // owned-column slot → next arrival row

	// Pattern tables, computed once per pass when destCol ignores the
	// source column; read-only thereafter, so the concurrent stages may
	// share them.
	var sharedSend sendPlan
	var sharedRecv recvPlan
	if spec.colInvariant {
		buildSendPlan(&sharedSend, spec.destCol, 0, r, P)
		sharedRecv.build(spec.destCol, 0, r, nSlots, P, p)
	}

	read := func(rd scatterRound) (scatterRound, error) {
		// The round → column map IS the pass's future access sequence: hint
		// the next round's column so an async disk stages it while this
		// round's read, sort and communication proceed.
		if next := rd.col + P; next < s {
			in.PrefetchRows(p, next, 0, r)
		}
		rd.buf = pool.Get(r, z)
		if err := in.ReadRows(&cRead, p, rd.col, 0, rd.buf); err != nil {
			return rd, err
		}
		cRead.Rounds++
		return rd, nil
	}

	var sortSc sortalg.Scratch
	sortRuns := sortRunsFor(r, spec.runLen)
	sortStage := func(rd scatterRound) (scatterRound, error) {
		sorted := pool.Get(r, z)
		sortColumn(sorted, rd.buf, spec.runLen, sortRuns, &sortSc, &cSort)
		pool.Put(rd.buf)
		rd.buf = sorted
		return rd, nil
	}

	var commPlan sendPlan // stage scratch for column-dependent passes
	fill := make([]int32, P)
	communicate := func(rd scatterRound) (scatterRound, error) {
		// Pack one outgoing buffer per destination processor, scanning the
		// sorted column in order so every (source, destination) chunk is a
		// sorted run. The plan turns the scan into one copy per extent.
		sp := &sharedSend
		if !spec.colInvariant {
			buildSendPlan(&commPlan, spec.destCol, rd.col, r, P)
			sp = &commPlan
		}
		tag := tagBase + rd.t
		if spec.targetProcs == nil {
			// Planned collective: the fabric packs per-destination pooled
			// buffers straight from the sorted column (charging the pack)
			// and runs the round through the exchange board with a single
			// synchronization.
			in, err := pr.AllToAllPlan(&cComm, tag, rd.buf, sp, pool)
			pool.Put(rd.buf)
			rd.buf = record.Slice{}
			if err != nil {
				return rd, err
			}
			rd.inMsgs = in
			return rd, nil
		}
		outMsgs := record.GetHeaders(P)
		for d := 0; d < P; d++ {
			outMsgs[d] = pool.Get(int(sp.Counts[d]), z)
			fill[d] = 0
		}
		replayExtents(outMsgs, fill, rd.buf, sp.Exts, z)
		cComm.MovedBytes += int64(r * z)
		pool.Put(rd.buf)
		rd.buf = record.Slice{}

		// Targeted sends: only the computed target set gets a message
		// (property 1 of Section 3); receive from exactly the sources
		// whose target set includes this processor.
		for _, d := range spec.targetProcs(rd.col) {
			if outMsgs[d].Len() == 0 {
				return rd, fmt.Errorf("core: %s: empty message for computed target %d", spec.name, d)
			}
			if err := pr.Send(&cComm, d, tag, outMsgs[d]); err != nil {
				return rd, err
			}
			outMsgs[d] = record.Slice{}
		}
		for d := 0; d < P; d++ {
			pool.Put(outMsgs[d]) // unsent (pattern says empty) buffers recycle
		}
		record.PutHeaders(outMsgs)
		rd.inMsgs = record.GetHeaders(P)
		for q := 0; q < P; q++ {
			srcCol := rd.t*P + q
			for _, d := range spec.targetProcs(srcCol) {
				if d == p {
					msg, err := pr.Recv(q, tag)
					if err != nil {
						return rd, err
					}
					rd.inMsgs[q] = msg
				}
			}
		}
		return rd, nil
	}

	var recvPlans []recvPlan // stage scratch, per source, column-dependent passes
	slotCounts := make([]int32, nSlots)
	fills := make([]int32, nSlots)
	permute := func(rd scatterRound) (scatterRound, error) {
		// Receiver-side replay of the oblivious pattern: scan each source
		// column of this round in sorted order; records destined to one of
		// this processor's columns arrive in exactly that order. The plans
		// reduce the replay to one copy per (source, slot) extent.
		if recvPlans == nil && !spec.colInvariant {
			recvPlans = make([]recvPlan, P)
		}
		for k := range slotCounts {
			slotCounts[k] = 0
		}
		for q := 0; q < P; q++ {
			msg := rd.inMsgs[q]
			if msg.Data == nil {
				continue
			}
			rp := &sharedRecv
			if !spec.colInvariant {
				rp = &recvPlans[q]
				rp.build(spec.destCol, rd.t*P+q, r, nSlots, P, p)
			}
			if msg.Len() != rp.total {
				return rd, fmt.Errorf("core: %s: message from %d has %d records, pattern wants %d",
					spec.name, q, msg.Len(), rp.total)
			}
			for k, c := range rp.counts {
				slotCounts[k] += c
			}
		}
		rd.writes = record.GetHeaders(nSlots)
		for k := range rd.writes {
			if slotCounts[k] > 0 {
				rd.writes[k] = pool.Get(int(slotCounts[k]), z)
			}
			fills[k] = 0
		}
		for q := 0; q < P; q++ {
			msg := rd.inMsgs[q]
			if msg.Data == nil {
				continue
			}
			rp := &sharedRecv
			if !spec.colInvariant {
				rp = &recvPlans[q]
			}
			replayExtents(rd.writes, fills, msg, rp.exts, z)
			cPerm.MovedBytes += int64(msg.Len() * z)
			pool.Put(msg)
		}
		record.PutHeaders(rd.inMsgs)
		rd.inMsgs = nil
		return rd, nil
	}

	write := func(rd scatterRound) error {
		// Deterministic order over owned columns keeps the on-disk arrival
		// order reproducible.
		for k := 0; k < nSlots; k++ {
			chunk := rd.writes[k]
			if chunk.Data == nil || chunk.Len() == 0 {
				continue
			}
			if err := out.WriteRows(&cWrite, p, p+k*P, nextFree[k], chunk); err != nil {
				return err
			}
			nextFree[k] += chunk.Len()
			pool.Put(chunk)
		}
		record.PutHeaders(rd.writes)
		rd.writes = nil
		if onRound != nil {
			onRound()
		}
		return nil
	}

	src := func(emit func(scatterRound) error) error {
		for t := 0; t < rounds; t++ {
			if err := emit(scatterRound{t: t, col: t*P + p}); err != nil {
				return err
			}
		}
		return nil
	}

	err := pipeline.RunDrain(pipeDepth, src, write,
		func() error { return out.Flush(p) },
		read, sortStage, communicate, permute)
	for _, c := range []sim.Counters{cRead, cSort, cComm, cPerm, cWrite} {
		cnt.Add(c)
	}
	if err != nil {
		return fmt.Errorf("core: %s pass: %w", spec.name, err)
	}
	// Every owned column must have been filled exactly.
	for k := 0; k < nSlots; k++ {
		if nextFree[k] != r {
			return fmt.Errorf("core: %s pass: column %d received %d of %d records", spec.name, p+k*P, nextFree[k], r)
		}
	}
	return nil
}
