package core

import (
	"fmt"

	"colsort/internal/cluster"
	"colsort/internal/incore"
	"colsort/internal/pdm"
	"colsort/internal/pipeline"
	"colsort/internal/record"
	"colsort/internal/sim"
	"colsort/internal/sortalg"
)

// M-columnsort (Section 4) reinterprets the column height as r = M: every
// out-of-core column is held collectively by all P processors (row-blocked
// layout, M/P records each) and sorted by the distributed in-core columnsort
// of internal/incore. One round processes one column.
//
// The communicate stage of the out-of-core pipeline is eliminated: the
// paper designs the in-core sort so each processor finishes holding exactly
// the records it will write into its own portions of the target columns.
// Here that "designed final distribution" is realized as follows. After the
// in-core sort, processor q holds global ranks [q·(r/P), (q+1)·(r/P)).
//   - For the step-2 permutation (target column = rank mod s) and for the
//     subblock permutation, a contiguous rank block already contains an
//     exactly equal share of every target column's records, so each
//     processor writes straight into its own blocks: genuinely no
//     communication outside the in-core sort.
//   - For the step-4 permutation (target column = rank ÷ (r/s)) the shares
//     are unequal, so a final redistribution exchange routes each record to
//     the processor owning its destination block — the volume the paper
//     folds into the in-core sort's last step.
//
// mcolSpec captures one such pass.
type mcolSpec struct {
	name string
	// destCol maps a global sorted rank within source column j to its
	// target column.
	destCol func(rank int64, j int) int
	// colInvariant marks destCol as independent of j, letting the
	// distribution tables be computed once per pass.
	colInvariant bool
	// redistribute is true for passes whose rank blocks do not evenly
	// cover the target columns (step 4).
	redistribute bool
	// chunk is the number of records each target column receives per round
	// (r/s for steps 2 and 4, r/√s for the subblock permutation).
	chunk int
}

// mcolTagStride separates the tag windows of consecutive rounds: each round
// may run two full in-core sorts plus swaps and redistribution.
const mcolTagStride = 4 * incore.TagSpan

// runMColScatterPass executes one M-columnsort distribution pass.
func runMColScatterPass(pr *cluster.Proc, pl Plan, spec mcolSpec, in Input, out *pdm.Store, tagBase int, pool *record.Pool, cnt *sim.Counters, onRound func()) error {
	q := pr.Rank()
	P := pl.P
	r, s, z := pl.R, pl.S, pl.Z
	rb := r / P
	lo := q * rb

	if spec.chunk%P != 0 {
		return fmt.Errorf("core: %s: per-round chunk %d not divisible by P=%d", spec.name, spec.chunk, P)
	}
	share := spec.chunk / P // records per (target column, processor, round)

	var cRead, cSort, cComm, cWrite sim.Counters
	written := make([]int, s) // block-local next free row per target column

	type round struct {
		j   int // column index == round index
		buf record.Slice
		// perCol[tj] holds this processor's arrival chunk for column tj.
		perCol []record.Slice
	}

	read := func(rd round) (round, error) {
		if rd.j+1 < s {
			in.PrefetchRows(q, rd.j+1, lo, rb) // stage the next round's block
		}
		rd.buf = pool.Get(rb, z)
		if err := in.ReadRows(&cRead, q, rd.j, lo, rd.buf); err != nil {
			return rd, err
		}
		cRead.Rounds++
		return rd, nil
	}

	var sortSc sortalg.Scratch
	sorter := incore.Columnsort{Pool: pool, Scratch: &sortSc}
	sortStage := func(rd round) (round, error) {
		sorted, err := sorter.Sort(pr, &cSort, tagBase+rd.j*mcolTagStride, rd.buf)
		if err != nil {
			return rd, err
		}
		rd.buf = sorted
		return rd, nil
	}

	// Route each record to the processor owning its destination block:
	// rank gi belongs to target column tj with occurrence index
	// k = gi mod chunk — its position within tj's records this round, which
	// are exactly the contiguous ranks [tj·chunk, (tj+1)·chunk).
	// Owner = k ÷ share. Both sides compute k from the rank itself so the
	// pattern agrees even when a processor's rank block straddles column
	// chunks (s < P).
	destOf := func(gi int64) int {
		return int((gi % int64(spec.chunk)) / int64(share))
	}

	// Distribution tables. The redistribution routing pattern depends only
	// on ranks, so its send plan and per-source keep patterns are always
	// once-per-pass; the target-column map shares that luxury only when it
	// is column-invariant.
	var packPlan sendPlan
	var keepPlans []colPlan // per source processor, ranks this processor keeps
	if spec.redistribute {
		buildSendPlan(&packPlan, func(i, _ int) int { return destOf(int64(lo) + int64(i)) }, 0, rb, P)
		if spec.colInvariant {
			keepPlans = make([]colPlan, P)
			for src := 0; src < P; src++ {
				kp := &keepPlans[src]
				kp.reset(s)
				srcLo := int64(src) * int64(rb)
				for i := 0; i < rb; i++ {
					if gi := srcLo + int64(i); destOf(gi) == q {
						kp.add(spec.destCol(gi, 0))
					}
				}
			}
		}
	}
	var directPlan colPlan
	if !spec.redistribute && spec.colInvariant {
		directPlan.reset(s)
		for i := 0; i < rb; i++ {
			directPlan.add(spec.destCol(int64(lo)+int64(i), 0))
		}
	}

	fillCol := make([]int32, s)
	colCounts := make([]int32, s)
	// Stage scratch for column-dependent maps, rebuilt per round.
	var roundPlans []colPlan
	var directScratch colPlan
	distribute := func(rd round) (round, error) {
		local := rd.buf
		if spec.redistribute {
			// Planned collective: pack per destination straight from the
			// sorted rank block and exchange with one synchronization.
			inMsgs, err := pr.AllToAllPlan(&cComm, tagBase+rd.j*mcolTagStride+3*incore.TagSpan, local, &packPlan, pool)
			pool.Put(local)
			rd.buf = record.Slice{}
			if err != nil {
				return rd, err
			}
			// Reassemble: scan every source's rank range in order, keeping
			// the records whose destination is this processor — the keep
			// plans replay that scan as batched copies.
			plans := keepPlans
			if plans == nil {
				if roundPlans == nil {
					roundPlans = make([]colPlan, P)
				}
				plans = roundPlans
				for src := 0; src < P; src++ {
					kp := &plans[src]
					kp.reset(s)
					srcLo := int64(src) * int64(rb)
					for i := 0; i < rb; i++ {
						if gi := srcLo + int64(i); destOf(gi) == q {
							kp.add(spec.destCol(gi, rd.j))
						}
					}
				}
			}
			total := 0
			for tj := range colCounts {
				colCounts[tj] = 0
			}
			for src := 0; src < P; src++ {
				if inMsgs[src].Len() != plans[src].total {
					return rd, fmt.Errorf("core: %s: redistribution message from %d has %d records, pattern wants %d",
						spec.name, src, inMsgs[src].Len(), plans[src].total)
				}
				total += plans[src].total
				for tj, c := range plans[src].counts {
					colCounts[tj] += c
				}
			}
			if total != rb {
				return rd, fmt.Errorf("core: %s: redistribution delivered %d of %d records", spec.name, total, rb)
			}
			rd.perCol = record.GetHeaders(s)
			for tj := 0; tj < s; tj++ {
				if colCounts[tj] > 0 {
					rd.perCol[tj] = pool.Get(int(colCounts[tj]), z)
				}
				fillCol[tj] = 0
			}
			for src := 0; src < P; src++ {
				msg := inMsgs[src]
				replayExtents(rd.perCol, fillCol, msg, plans[src].exts, z)
				pool.Put(msg)
			}
			record.PutHeaders(inMsgs)
			cComm.MovedBytes += int64(rb * z)
			return rd, nil
		}
		// No redistribution: this processor's rank block contains exactly
		// `share` records per target column per round; group them.
		plan := &directPlan
		if !spec.colInvariant {
			plan = &directScratch
			plan.reset(s)
			for i := 0; i < rb; i++ {
				plan.add(spec.destCol(int64(lo)+int64(i), rd.j))
			}
		}
		for tj, c := range plan.counts {
			if int(c) > share {
				return rd, fmt.Errorf("core: %s: processor %d holds more than its share of column %d", spec.name, q, tj)
			}
		}
		rd.perCol = record.GetHeaders(s)
		for tj := 0; tj < s; tj++ {
			if plan.counts[tj] > 0 {
				rd.perCol[tj] = pool.Get(int(plan.counts[tj]), z)
			}
			fillCol[tj] = 0
		}
		replayExtents(rd.perCol, fillCol, local, plan.exts, z)
		cComm.MovedBytes += int64(rb * z)
		pool.Put(local)
		rd.buf = record.Slice{}
		return rd, nil
	}

	write := func(rd round) error {
		for tj := 0; tj < s; tj++ {
			chunk := rd.perCol[tj]
			if chunk.Data == nil || chunk.Len() == 0 {
				continue
			}
			if err := out.WriteRows(&cWrite, q, tj, lo+written[tj], chunk); err != nil {
				return err
			}
			written[tj] += chunk.Len()
			pool.Put(chunk)
		}
		record.PutHeaders(rd.perCol)
		rd.perCol = nil
		if onRound != nil {
			onRound()
		}
		return nil
	}

	src := func(emit func(round) error) error {
		for j := 0; j < s; j++ {
			if err := emit(round{j: j}); err != nil {
				return err
			}
		}
		return nil
	}

	err := pipeline.RunDrain(pipeDepth, src, write,
		func() error { return out.Flush(q) },
		read, sortStage, distribute)
	for _, c := range []sim.Counters{cRead, cSort, cComm, cWrite} {
		cnt.Add(c)
	}
	if err != nil {
		return fmt.Errorf("core: %s pass: %w", spec.name, err)
	}
	for tj := 0; tj < s; tj++ {
		if written[tj] != rb {
			return fmt.Errorf("core: %s pass: block of column %d received %d of %d records", spec.name, tj, written[tj], rb)
		}
	}
	return nil
}

// runMColMergePass executes M-columnsort's final pass (fused steps 5–8):
// per round, a distributed in-core sort of column j (step 5), a half-swap
// exchange assembling the overlap array [bottom(j−1); top(j)], a second
// distributed in-core sort of the overlap (step 7 — the paper's "each of
// the two sort stages turns into eight in-core sort stages"), and a
// half-rotation that lands every final half-column on the processors owning
// its rows, which are then written in TRUE row order.
func runMColMergePass(pr *cluster.Proc, pl Plan, in Input, out *pdm.Store, tagBase int, pool *record.Pool, cnt *sim.Counters, onRound func()) error {
	q := pr.Rank()
	P := pl.P
	r, s, z := pl.R, pl.S, pl.Z
	rb := r / P
	lo := q * rb
	half := P / 2

	var cRead, cSort, cBound, cWrite sim.Counters

	type round struct {
		j      int
		buf    record.Slice
		writes []struct {
			col, row int
			recs     record.Slice
		}
	}

	read := func(rd round) (round, error) {
		if rd.j+1 < s {
			in.PrefetchRows(q, rd.j+1, lo, rb)
		}
		rd.buf = pool.Get(rb, z)
		if err := in.ReadRows(&cRead, q, rd.j, lo, rd.buf); err != nil {
			return rd, err
		}
		cRead.Rounds++
		return rd, nil
	}

	var sortSc sortalg.Scratch
	sorter := incore.Columnsort{Pool: pool, Scratch: &sortSc}
	sortStage := func(rd round) (round, error) { // step 5
		sorted, err := sorter.Sort(pr, &cSort, tagBase+rd.j*mcolTagStride, rd.buf)
		if err != nil {
			return rd, err
		}
		rd.buf = sorted
		return rd, nil
	}

	// boundary carries cross-round state: this processor's piece of the
	// previous column's bottom half (only processors q ≥ P/2 hold one).
	var prevBottom record.Slice
	var boundSc sortalg.Scratch
	boundSorter := incore.Columnsort{Pool: pool, Scratch: &boundSc}

	boundary := func(rd round) (round, error) {
		j := rd.j
		win := tagBase + j*mcolTagStride
		swapTag := win + incore.TagSpan
		sortWin := win + 2*incore.TagSpan
		rotTag := win + 3*incore.TagSpan
		addWrite := func(col, row int, recs record.Slice) {
			rd.writes = append(rd.writes, struct {
				col, row int
				recs     record.Slice
			}{col, row, recs})
		}

		if j == 0 {
			// No left boundary: the top half of column 0 is final.
			if q < half {
				addWrite(0, lo, rd.buf)
			} else {
				prevBottom = rd.buf
			}
			if s == 1 && q >= half {
				addWrite(0, lo, rd.buf)
				prevBottom = record.Slice{}
			}
			return rd, nil
		}

		// Assemble the overlap O = [bottom(j−1); top(j)] block-distributed:
		// upper processors ship their saved bottom piece down, lower
		// processors ship their top piece up.
		var send record.Slice
		var dst int
		if q < half {
			send = rd.buf // my piece of top(j): O-ranks r/2 + q·rb
			dst = q + half
		} else {
			send = prevBottom // O-ranks (q−P/2)·rb
			dst = q - half
			prevBottom = rd.buf // my piece of bottom(j) for the next round
		}
		if err := pr.Send(&cBound, dst, swapTag, send); err != nil {
			return rd, err
		}
		oPiece, err := pr.Recv(dst, swapTag)
		if err != nil {
			return rd, err
		}

		// Step 7: sort the overlap.
		sortedO, err := boundSorter.Sort(pr, &cBound, sortWin, oPiece)
		if err != nil {
			return rd, err
		}

		// Step 8: rotate halves so each final half-column lands on the
		// owners of its rows, then write true positions.
		if err := pr.Send(&cBound, (q+half)%P, rotTag, sortedO); err != nil {
			return rd, err
		}
		piece, err := pr.Recv((q+half)%P, rotTag)
		if err != nil {
			return rd, err
		}
		if q >= half {
			// I now hold sorted-O ranks [(q−P/2)·rb, ...) ⊂ [0, r/2):
			// the final bottom of column j−1, at rows r/2 + (q−P/2)·rb
			// = q·rb = my own rows.
			addWrite(j-1, lo, piece)
		} else {
			// I hold sorted-O ranks [r/2 + q·rb, ...): the final top of
			// column j at rows q·rb.
			addWrite(j, lo, piece)
		}
		// The last column's bottom faces +∞ and is final as soon as its
		// round's sort completes.
		if j == s-1 && q >= half {
			addWrite(s-1, lo, prevBottom)
			prevBottom = record.Slice{}
		}
		return rd, nil
	}

	write := func(rd round) error {
		for _, w := range rd.writes {
			if err := out.WriteRows(&cWrite, q, w.col, w.row, w.recs); err != nil {
				return err
			}
			pool.Put(w.recs)
		}
		if onRound != nil {
			onRound()
		}
		return nil
	}

	src := func(emit func(round) error) error {
		for j := 0; j < s; j++ {
			if err := emit(round{j: j}); err != nil {
				return err
			}
		}
		return nil
	}

	err := pipeline.RunDrain(pipeDepth, src, write,
		func() error { return out.Flush(q) },
		read, sortStage, boundary)
	for _, c := range []sim.Counters{cRead, cSort, cBound, cWrite} {
		cnt.Add(c)
	}
	if err != nil {
		return fmt.Errorf("core: m-columnsort merge pass: %w", err)
	}
	return nil
}
