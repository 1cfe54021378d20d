package core

import (
	"fmt"

	"colsort/internal/bitperm"
	"colsort/internal/bounds"
	"colsort/internal/cluster"
	"colsort/internal/incore"
	"colsort/internal/pdm"
	"colsort/internal/pipeline"
	"colsort/internal/record"
	"colsort/internal/sim"
	"colsort/internal/sortalg"
)

// Hybrid group columnsort realizes the paper's second future-work item
// (Section 6): column heights BETWEEN M/P and M. The P processors form
// P/g groups of g; each column holds r = g·(M/P) records owned by one
// group (pdm.GroupBlocked) and is sorted by a distributed in-core
// columnsort WITHIN the group, while the communicate stage scatters records
// across groups. g = 1 degenerates to threaded columnsort and g = P to
// M-columnsort (both served by their dedicated implementations); the
// planner accepts 2 ≤ g ≤ P/2, trading the problem-size bound
// N ≤ (g·M/P)^{3/2}/√2 against sort-stage communication exactly as
// internal/hybrid's analytic model predicts.

// NewHybridPlan validates a hybrid configuration with group size g.
func NewHybridPlan(n int64, p, d, memPerProc, recSize, g int) (Plan, error) {
	pl := Plan{Alg: Hybrid, N: n, P: p, D: d, MemPerProc: memPerProc, Z: recSize, Group: g}
	if err := record.CheckSize(recSize); err != nil {
		return pl, err
	}
	if p < 1 || d < p || d%p != 0 {
		return pl, fmt.Errorf("core: need P ≥ 1 and P | D, got P=%d D=%d", p, d)
	}
	if !bitperm.IsPow2(p) || !bitperm.IsPow2(memPerProc) || memPerProc < 2 {
		return pl, fmt.Errorf("core: P=%d and M/P=%d must be powers of 2 (M/P even)", p, memPerProc)
	}
	if !bitperm.IsPow2(g) || g < 2 || g > p/2 {
		return pl, fmt.Errorf("core: hybrid group size g=%d must be a power of 2 with 2 ≤ g ≤ P/2=%d (use threaded for g=1, m-columnsort for g=P)", g, p/2)
	}
	if n < 1 || n&(n-1) != 0 {
		return pl, fmt.Errorf("core: N=%d must be a positive power of 2", n)
	}
	pl.R = g * memPerProc
	pl.Layout = pdm.GroupBlocked
	if int64(pl.R) > n {
		return pl, fmt.Errorf("core: N=%d smaller than one column r=%d", n, pl.R)
	}
	pl.S = int(n / int64(pl.R))
	ng := p / g
	if pl.S%ng != 0 {
		return pl, fmt.Errorf("core: the %d groups must evenly share s=%d columns", ng, pl.S)
	}
	if pl.R%pl.S != 0 {
		return pl, fmt.Errorf("core: s=%d must divide r=%d", pl.S, pl.R)
	}
	if memPerProc%pl.S != 0 {
		return pl, fmt.Errorf("core: s=%d must divide M/P=%d for balanced group writes", pl.S, memPerProc)
	}
	if !bounds.HeightOK(bounds.Threaded, int64(pl.R), int64(pl.S)) {
		return pl, fmt.Errorf("core: hybrid %w: r=%d < 2s²=%d (%w)",
			ErrHeightRestriction, pl.R, 2*pl.S*pl.S, ErrTooLarge)
	}
	if pl.S > 1 && !bounds.InCoreOK(int64(memPerProc), int64(g)) {
		return pl, fmt.Errorf("core: in-core %w within groups: M/P=%d < 2g²=%d", ErrHeightRestriction, memPerProc, 2*g*g)
	}
	return pl, nil
}

const hybridTagStride = 4 * incore.TagSpan

// hybridSpec is one hybrid distribution pass (steps 1–2 or 3–4). Both maps
// depend only on the sorted rank — never on the source column — so every
// distribution table is computed once per pass.
type hybridSpec struct {
	name    string
	destCol func(rank int64) int   // target column of a sorted rank
	occ     func(rank int64) int64 // rank's index within its column's chunk
}

// runHybridScatterPass: per round, each group reads one of its columns,
// sorts it with the in-group distributed columnsort, and scatters records
// to the blocks of the target columns' owners across all groups.
func runHybridScatterPass(pr *cluster.Proc, pl Plan, spec hybridSpec, in Input, out *pdm.Store, tagBase int, pool *record.Pool, cnt *sim.Counters, onRound func()) error {
	q := pr.Rank()
	P, g := pl.P, pl.Group
	ng := P / g
	r, s, z := pl.R, pl.S, pl.Z
	rb := r / g
	a, m := q/g, q%g
	lo := m * rb
	c := r / s
	share := c / g
	rounds := s / ng

	grp, err := cluster.ContiguousGroup(pr, a*g, g)
	if err != nil {
		return err
	}

	var cRead, cSort, cComm, cWrite sim.Counters
	written := make([]int, s) // per target column, block-local rows written

	type round struct {
		t, col int
		buf    record.Slice
		// perCol holds, per target column, this round's arrival chunk
		// (ng·share records); nil entries receive nothing.
		perCol []record.Slice
	}

	dest := func(gi int64) (proc int, tj int) {
		tj = spec.destCol(gi)
		k := spec.occ(gi)
		return (tj%ng)*g + int(k/int64(share)), tj
	}

	// Distribution tables, once per pass: the send plan packs my sorted
	// rank block [lo, lo+rb) per destination processor; keepPlans[m']
	// replays source member m's rank range, keeping the records destined
	// here and mapping them to target columns. Sources with the same
	// in-group position share a rank range, hence a plan.
	var sendPl sendPlan
	buildSendPlan(&sendPl, func(i, _ int) int { d, _ := dest(int64(lo) + int64(i)); return d }, 0, rb, P)
	keepPlans := make([]colPlan, g)
	for mm := 0; mm < g; mm++ {
		kp := &keepPlans[mm]
		kp.reset(s)
		srcLo := int64(mm) * int64(rb)
		for i := 0; i < rb; i++ {
			gi := srcLo + int64(i)
			if d, tj := dest(gi); d == q {
				kp.add(tj)
			}
		}
	}
	// Every target column a round touches must receive exactly its
	// ng·share-record chunk; validated once here instead of per round.
	colTotal := make([]int32, s)
	for src := 0; src < P; src++ {
		for tj, c := range keepPlans[src%g].counts {
			colTotal[tj] += c
		}
	}
	for tj, n := range colTotal {
		if n != 0 && int(n) != ng*share {
			return fmt.Errorf("core: %s: column %d would receive %d of %d records per round", spec.name, tj, n, ng*share)
		}
	}

	read := func(rd round) (round, error) {
		if next := rd.col + ng; next < s {
			in.PrefetchRows(q, next, lo, rb) // stage the next round's block
		}
		rd.buf = pool.Get(rb, z)
		if err := in.ReadRows(&cRead, q, rd.col, lo, rd.buf); err != nil {
			return rd, err
		}
		cRead.Rounds++
		return rd, nil
	}

	var sortSc sortalg.Scratch
	sorter := incore.Columnsort{Pool: pool, Scratch: &sortSc}
	sortStage := func(rd round) (round, error) {
		sorted, err := sorter.Sort(grp, &cSort, tagBase+rd.t*hybridTagStride, rd.buf)
		if err != nil {
			return rd, err
		}
		rd.buf = sorted
		return rd, nil
	}

	fillCol := make([]int32, s)
	distribute := func(rd round) (round, error) {
		// Planned collective: pack per destination processor in rank order,
		// straight from the sorted block, and exchange with one
		// synchronization.
		tag := tagBase + rd.t*hybridTagStride + incore.TagSpan
		inMsgs, err := pr.AllToAllPlan(&cComm, tag, rd.buf, &sendPl, pool)
		pool.Put(rd.buf)
		rd.buf = record.Slice{}
		if err != nil {
			return rd, err
		}

		// Replay every source's rank range in order; my arrivals for each
		// target column land contiguously in (source group, occurrence)
		// order — one block-local segment per column per round.
		rd.perCol = record.GetHeaders(s)
		for tj := 0; tj < s; tj++ {
			if colTotal[tj] > 0 {
				rd.perCol[tj] = pool.Get(ng*share, z)
			}
			fillCol[tj] = 0
		}
		for src := 0; src < P; src++ {
			msg := inMsgs[src]
			kp := &keepPlans[src%g]
			if msg.Len() != kp.total {
				return rd, fmt.Errorf("core: %s: message from %d has %d records, pattern wants %d",
					spec.name, src, msg.Len(), kp.total)
			}
			replayExtents(rd.perCol, fillCol, msg, kp.exts, z)
			cComm.MovedBytes += int64(msg.Len() * z)
			pool.Put(msg)
		}
		record.PutHeaders(inMsgs)
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
		for t := 0; t < rounds; t++ {
			if err := emit(round{t: t, col: t*ng + a}); err != nil {
				return err
			}
		}
		return nil
	}

	err = pipeline.RunDrain(pipeDepth, src, write,
		func() error { return out.Flush(q) },
		read, sortStage, distribute)
	for _, ct := range []sim.Counters{cRead, cSort, cComm, cWrite} {
		cnt.Add(ct)
	}
	if err != nil {
		return fmt.Errorf("core: %s pass: %w", spec.name, err)
	}
	for tj, n := range written {
		if n != 0 && n != rb {
			return fmt.Errorf("core: %s pass: block of column %d received %d of %d records", spec.name, tj, n, rb)
		}
	}
	return nil
}

// runHybridMergePass executes the fused steps 5–8 for the hybrid layout:
// per round each group sorts its column in-core; the overlap
// O = [bottom(j−1); top(j)] is assembled ON column j's group (bottom pieces
// arrive from the left-hand group, top pieces shift within the group), the
// group sorts O, and a rotation returns each final half-column to the
// owners of its rows for true-order writes.
func runHybridMergePass(pr *cluster.Proc, pl Plan, in Input, out *pdm.Store, tagBase int, pool *record.Pool, cnt *sim.Counters, onRound func()) error {
	q := pr.Rank()
	P, g := pl.P, pl.Group
	ng := P / g
	r, s, z := pl.R, pl.S, pl.Z
	rb := r / g
	a, m := q/g, q%g
	lo := m * rb
	h2 := g / 2
	rounds := s / ng

	grp, err := cluster.ContiguousGroup(pr, a*g, g)
	if err != nil {
		return err
	}

	// Cross-round tags live beyond every round window.
	crossBase := tagBase + (rounds+1)*hybridTagStride
	tagTB := func(j int) int { return crossBase + 4*j }     // bottom pieces → right group
	tagTT := func(j int) int { return crossBase + 4*j + 1 } // top pieces up within the group
	tagTF := func(j int) int { return crossBase + 4*j + 2 } // final bottoms → left group
	tagTG := func(j int) int { return crossBase + 4*j + 3 } // final tops down within the group

	var cRead, cSort, cBound, cWrite sim.Counters

	type round struct {
		t, col int
		buf    record.Slice
		writes []record.Slice
		rows   []int
	}

	read := func(rd round) (round, error) {
		if next := rd.col + ng; next < s {
			in.PrefetchRows(q, next, lo, rb)
		}
		rd.buf = pool.Get(rb, z)
		if err := in.ReadRows(&cRead, q, rd.col, lo, rd.buf); err != nil {
			return rd, err
		}
		cRead.Rounds++
		return rd, nil
	}

	var sortSc sortalg.Scratch
	sorter := incore.Columnsort{Pool: pool, Scratch: &sortSc}
	sortStage := func(rd round) (round, error) {
		sorted, err := sorter.Sort(grp, &cSort, tagBase+rd.t*hybridTagStride, rd.buf)
		if err != nil {
			return rd, err
		}
		rd.buf = sorted
		return rd, nil
	}

	var boundSc sortalg.Scratch
	boundSorter := incore.Columnsort{Pool: pool, Scratch: &boundSc}
	boundary := func(rd round) (round, error) {
		j := rd.t*ng + a
		left := (a - 1 + ng) % ng
		right := (a + 1) % ng
		addWrite := func(row int, recs record.Slice) {
			rd.writes = append(rd.writes, recs)
			rd.rows = append(rd.rows, row)
		}

		// Dispatch my sorted piece.
		if m >= h2 { // part of bottom(j)
			if j+1 < s {
				if err := pr.Send(&cBound, right*g+(m-h2), tagTB(j), rd.buf); err != nil {
					return rd, err
				}
			} else {
				addWrite(lo, rd.buf) // last column's bottom is final
			}
		} else { // part of top(j)
			if j == 0 {
				addWrite(lo, rd.buf) // first column's top is final
			} else {
				if err := pr.Send(&cBound, a*g+(m+h2), tagTT(j), rd.buf); err != nil {
					return rd, err
				}
			}
		}
		rd.buf = record.Slice{}

		// Resolve boundary (j−1, j) on this group.
		if j > 0 {
			var oPiece record.Slice
			var err error
			if m < h2 { // low half of O: bottom(j−1) pieces from the left group
				oPiece, err = pr.Recv(left*g+(m+h2), tagTB(j-1))
			} else { // high half of O: top(j) pieces from within the group
				oPiece, err = pr.Recv(a*g+(m-h2), tagTT(j))
			}
			if err != nil {
				return rd, err
			}
			sortedO, err := boundSorter.Sort(grp, &cBound, tagBase+rd.t*hybridTagStride+2*incore.TagSpan, oPiece)
			if err != nil {
				return rd, err
			}
			// Rotation: low half is column j−1's final bottom (owned by
			// the left group's upper members); high half is column j's
			// final top (owned by this group's lower members).
			if m < h2 {
				if err := pr.Send(&cBound, left*g+(m+h2), tagTF(j-1), sortedO); err != nil {
					return rd, err
				}
			} else {
				if err := pr.Send(&cBound, a*g+(m-h2), tagTG(j), sortedO); err != nil {
					return rd, err
				}
			}
			if m < h2 {
				top, err := pr.Recv(a*g+(m+h2), tagTG(j))
				if err != nil {
					return rd, err
				}
				addWrite(lo, top)
			}
		}
		// Collect my column's final bottom from the right group.
		if j+1 < s && m >= h2 {
			fin, err := pr.Recv(right*g+(m-h2), tagTF(j))
			if err != nil {
				return rd, err
			}
			addWrite(lo, fin)
		}
		return rd, nil
	}

	write := func(rd round) error {
		for k, recs := range rd.writes {
			if err := out.WriteRows(&cWrite, q, rd.col, rd.rows[k], recs); err != nil {
				return err
			}
			pool.Put(recs)
		}
		if onRound != nil {
			onRound()
		}
		return nil
	}

	src := func(emit func(round) error) error {
		for t := 0; t < rounds; t++ {
			if err := emit(round{t: t, col: t*ng + a}); err != nil {
				return err
			}
		}
		return nil
	}

	err = pipeline.RunDrain(pipeDepth, src, write,
		func() error { return out.Flush(q) },
		read, sortStage, boundary)
	for _, ct := range []sim.Counters{cRead, cSort, cBound, cWrite} {
		cnt.Add(ct)
	}
	if err != nil {
		return fmt.Errorf("core: hybrid merge pass: %w", err)
	}
	return nil
}
