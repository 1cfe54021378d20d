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

// runMergePass executes the fused steps 5–8 on the column-owned layout —
// the final pass of the 3-pass threaded program and of subblock columnsort.
//
// Per round, each processor sorts its column (step 5) and then resolves the
// two column boundaries it touches: writing [L; H] for the sorted merge of
// (bottom of column j−1, top of column j), the final top of column j is H
// and the final bottom of column j−1 is L (steps 6–8 compressed into
// adjacent-half merges). Bottom halves travel to the right-hand neighbour;
// final bottoms travel back. This is the paper's 7-stage pipeline: read,
// sort, communicate, sort, communicate, permute, write.
//
// The pass writes TRUE row order — its output is the sorted file.
func runMergePass(pr *cluster.Proc, pl Plan, runLen int, in Input, out *pdm.Store, tagBase int, pool *record.Pool, cnt *sim.Counters, onRound func()) error {
	p := pr.Rank()
	P := pl.P
	r, s, z := pl.R, pl.S, pl.Z
	h := r / 2
	rounds := pl.Rounds()

	var cRead, cSort, cComm1, cMerge, cComm2, cWrite sim.Counters
	// Tags: boundary b uses tagBase+2b for the bottom half moving right
	// and tagBase+2b+1 for the final bottom moving left. Boundary b sits
	// between columns b and b+1.
	tagB := func(b int) int { return tagBase + 2*b }
	tagF := func(b int) int { return tagBase + 2*b + 1 }

	type round struct {
		t, col   int
		buf      record.Slice // sorted column [top; bottom]
		merged   record.Slice // boundary merge result (aliased by finalTop)
		finalTop record.Slice
		finalBot record.Slice
	}

	read := func(rd round) (round, error) {
		if next := rd.col + P; next < s {
			in.PrefetchRows(p, next, 0, r) // stage the next round's column
		}
		rd.buf = pool.Get(r, z)
		if err := in.ReadRows(&cRead, p, rd.col, 0, rd.buf); err != nil {
			return rd, err
		}
		cRead.Rounds++
		return rd, nil
	}

	var sortSc sortalg.Scratch
	sortRuns := sortRunsFor(r, runLen)
	sortStage := func(rd round) (round, error) { // step 5
		sorted := pool.Get(r, z)
		sortColumn(sorted, rd.buf, runLen, sortRuns, &sortSc, &cSort)
		pool.Put(rd.buf)
		rd.buf = sorted
		return rd, nil
	}

	comm1 := func(rd round) (round, error) { // step 6: ship bottoms right
		if rd.col+1 < s {
			bot := pool.Get(h, z)
			bot.Copy(rd.buf.Sub(h, r))
			cComm1.MovedBytes += int64(len(bot.Data))
			if err := pr.Send(&cComm1, (p+1)%P, tagB(rd.col), bot); err != nil {
				return rd, err
			}
		}
		return rd, nil
	}

	mergeStage := func(rd round) (round, error) { // step 7 at boundary col−1|col
		if rd.col == 0 {
			rd.finalTop = rd.buf.Sub(0, h)
			return rd, nil
		}
		prevBot, err := pr.Recv((p+P-1)%P, tagB(rd.col-1))
		if err != nil {
			return rd, err
		}
		merged := pool.Get(r, z)
		sortalg.MergeInto(merged, prevBot, rd.buf.Sub(0, h))
		pool.Put(prevBot)
		cMerge.CompareUnits += sim.MergeWork(r, 2)
		cMerge.MovedBytes += int64(len(merged.Data))
		rd.merged = merged
		rd.finalTop = merged.Sub(h, r)
		// The low half is column col−1's final bottom; send it back.
		back := pool.Get(h, z)
		back.Copy(merged.Sub(0, h))
		if err := pr.Send(&cMerge, (p+P-1)%P, tagF(rd.col-1), back); err != nil {
			return rd, err
		}
		return rd, nil
	}

	comm2 := func(rd round) (round, error) { // step 8: collect final bottom
		if rd.col+1 < s {
			fin, err := pr.Recv((p+1)%P, tagF(rd.col))
			if err != nil {
				return rd, err
			}
			rd.finalBot = fin
		} else {
			rd.finalBot = rd.buf.Sub(h, r) // faces +∞: already final
		}
		return rd, nil
	}

	write := func(rd round) error {
		if err := out.WriteRows(&cWrite, p, rd.col, 0, rd.finalTop); err != nil {
			return err
		}
		if err := out.WriteRows(&cWrite, p, rd.col, h, rd.finalBot); err != nil {
			return err
		}
		// Recycle this round's buffers: finalTop and finalBot are views of
		// buf or merged (or a received buffer, for finalBot off the last
		// column), so only the owning buffers go back.
		if rd.col+1 < s {
			pool.Put(rd.finalBot) // received whole-message buffer
		}
		pool.Put(rd.merged) // zero Slice for column 0: no-op
		pool.Put(rd.buf)
		if onRound != nil {
			onRound()
		}
		return nil
	}

	src := func(emit func(round) error) error {
		for t := 0; t < rounds; t++ {
			if err := emit(round{t: t, col: t*P + p}); err != nil {
				return err
			}
		}
		return nil
	}

	err := pipeline.RunDrain(pipeDepth, src, write,
		func() error { return out.Flush(p) },
		read, sortStage, comm1, mergeStage, comm2)
	for _, c := range []sim.Counters{cRead, cSort, cComm1, cMerge, cComm2, cWrite} {
		cnt.Add(c)
	}
	if err != nil {
		return fmt.Errorf("core: merge pass: %w", err)
	}
	return nil
}

// runSortPass is the degenerate pass used for single-column problems
// (s = 1): read, sort, write true order.
func runSortPass(pr *cluster.Proc, pl Plan, in Input, out *pdm.Store, pool *record.Pool, cnt *sim.Counters, onRound func()) error {
	p := pr.Rank()
	if pl.S != 1 {
		return fmt.Errorf("core: sort pass requires s=1, got s=%d", pl.S)
	}
	if p != 0 {
		return nil // column 0 belongs to processor 0
	}
	buf := pool.Get(pl.R, pl.Z)
	if err := in.ReadRows(cnt, 0, 0, 0, buf); err != nil {
		return err
	}
	cnt.Rounds++
	sorted := pool.Get(pl.R, pl.Z)
	var sc sortalg.Scratch
	sc.SortInto(sorted, buf)
	cnt.CompareUnits += sim.SortWork(pl.R)
	cnt.MovedBytes += int64(len(sorted.Data))
	err := out.WriteColumn(cnt, 0, 0, sorted)
	pool.Put(buf)
	pool.Put(sorted)
	if err != nil {
		return err
	}
	if onRound != nil {
		onRound()
	}
	return out.Flush(0)
}
