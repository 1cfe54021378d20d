package colsort

// Hierarchical execution: the layer that takes Sort past any single
// columnsort run's problem-size bound. When n exceeds what one run can hold
// (the algorithm's restriction, or a WithMaxMemory cap), the source streams
// through replacement selection over a working set of one run's memory H
// (planRun: the largest run columnsort's relaxed bound admits), which
// spills maximal sorted runs — never shorter than H, about 2H on random
// input, one run on nearly-sorted input; and the runs are combined by a
// loser-tree k-way merge with prefetch on the run reads and write-behind on
// the merged output, streaming straight into the Sink — no extra
// materialization pass. See DESIGN.md §7 for the contracts.

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"os"
	"slices"

	"context"

	"colsort/internal/core"
	"colsort/internal/merge"
	"colsort/internal/pdm"
	"colsort/internal/record"
	"colsort/internal/runform"
	"colsort/internal/sim"
)

// defaultMergeFanIn is the runs-per-merge bound when WithMergeFanIn is not
// given: wide enough that inputs dozens of times the bound merge in one
// level, narrow enough that the read streams' prefetch buffers stay small.
const defaultMergeFanIn = 16

// defaultRedoBudget is how many run re-spills a hierarchical sort may spend
// when RetryPolicy does not set one: enough to survive a failed spill disk
// plus one unlucky scrub, small enough that a systematically failing
// storage stack still fails the sort promptly.
const defaultRedoBudget = 2

// wantHierarchical decides whether this Sort must take the hierarchical
// (runs + merge) path: the record count exceeds the algorithm's single-run
// problem-size bound, or a WithMaxMemory cap forces smaller runs. Hybrid
// group runs and PadNever sorts keep their strict single-run contracts.
func (e *Engine) wantHierarchical(o sortOptions, pl core.Plan, plErr error) (bool, error) {
	eligible := o.group == 0 && o.padding == PadAuto
	if plErr == nil {
		if o.maxMemory > 0 && pl.N*int64(pl.Z) > o.maxMemory {
			if !eligible {
				return false, fmt.Errorf("colsort: WithMaxMemory(%d) needs the hierarchical path, which supports only PadAuto and non-hybrid algorithms", o.maxMemory)
			}
			return true, nil
		}
		return false, nil
	}
	return eligible && errors.Is(plErr, core.ErrTooLarge), nil
}

// planRun finds the run plan of a hierarchical sort: the largest
// power-of-two record count the algorithm can sort in ONE run under the
// configuration and the WithMaxMemory cap. Its N is the formation memory
// H — the replacement-selection working set, and the job's admission
// lease — so columnsort's relaxed bound decides how long the runs are.
func (e *Engine) planRun(o sortOptions) (core.Plan, error) {
	z := int64(e.cfg.RecordSize)
	var best core.Plan
	var smallest int64 // smallest plannable run, for the error message
	found := false
	for try := int64(1); try > 0 && try <= 1<<52; try *= 2 {
		pl, err := e.Plan(o.alg, try)
		if err != nil {
			continue
		}
		if smallest == 0 {
			smallest = try
		}
		if o.maxMemory > 0 && try*z > o.maxMemory {
			continue // plannable but over the cap: only the error message cares
		}
		best, found = pl, true
	}
	if !found {
		if o.maxMemory > 0 && smallest > 0 {
			return core.Plan{}, fmt.Errorf("%w: WithMaxMemory(%d) admits no single %v run (the smallest plannable run is %d records × %d B = %d bytes); raise the cap or shrink MemPerProc",
				ErrMemoryTooSmall, o.maxMemory, o.alg, smallest, e.cfg.RecordSize, smallest*z)
		}
		return core.Plan{}, fmt.Errorf("colsort: no single-run plan exists for %v under this configuration", o.alg)
	}
	return best, nil
}

// mergeChunkRecs sizes the per-run read chunk and the emit chunk of the
// merges: half a column buffer by default, shrunk so that fanIn read
// streams plus the emit queue stay within a WithMaxMemory cap, clamped so
// chunks stay large enough to amortize per-chunk costs yet bounded in
// memory.
func (e *Engine) mergeChunkRecs(o sortOptions, fanIn int) int {
	c := e.cfg.MemPerProc / 2
	if o.maxMemory > 0 {
		if byBudget := int(o.maxMemory / int64((fanIn+4)*e.cfg.RecordSize)); byBudget < c {
			c = byBudget
		}
	}
	if c < 64 {
		c = 64
	}
	if c > 1<<16 {
		c = 1 << 16
	}
	return c
}

// PlanHierarchical reports how an above-bound Sort would execute n records
// hierarchically: the single-run plan whose record count is the formation
// memory H (the largest plannable run, optionally capped at maxMemory bytes
// of records; 0 means no cap) and batches = ⌈n/H⌉, the worst-case run
// count. It lets callers and `colsort -plan` price an above-bound sort
// without running it.
//
// Replacement selection's run count is data-dependent — typically about
// half of batches on random input, as low as 1 on nearly-sorted input —
// and never above batches, because every run but the last holds at least
// the H records resident when it started (render it as "≤ batches", the
// way `colsort -plan` does).
func (e *Engine) PlanHierarchical(alg Algorithm, n int64, maxMemory int64) (runPlan core.Plan, batches int, err error) {
	if n < 1 {
		return core.Plan{}, 0, fmt.Errorf("colsort: cannot sort %d records", n)
	}
	if maxMemory < 0 {
		return core.Plan{}, 0, fmt.Errorf("colsort: negative run-size cap %d", maxMemory)
	}
	runPlan, err = e.planRun(sortOptions{alg: alg, maxMemory: maxMemory})
	if err != nil {
		return core.Plan{}, 0, err
	}
	return runPlan, int((n + runPlan.N - 1) / runPlan.N), nil
}

// sortHierarchical executes the runs-plus-merge plan for n records arriving
// on rd, on the job's machine. The caller has already compiled the codec,
// validated the options, checked dst is non-nil, and chosen runPl; rd is
// closed by Sort's defer.
//
// rs, when non-nil, is a merge-phase crash-resume: every run a previous
// process spilled and verified (reopened from the checkpoint manifest) is
// adopted, formation is skipped entirely — zero records are re-sorted — and
// the merge restarts from the durable run set. rd is unused (and may be
// nil) then.
func (j *job) sortHierarchical(ctx context.Context, rd RecordReader, dst Sink, o sortOptions, codec record.KeyCodec, n int64, runPl core.Plan, rs *resumeState) (*Result, error) {
	fanIn := o.fanIn
	if fanIn == 0 {
		fanIn = defaultMergeFanIn
	}
	chunk := j.e.mergeChunkRecs(o, fanIn)
	stats := &MergeStats{FanIn: fanIn, RunRecords: runPl.N}

	// Durability: open (or, on resume, reopen for appending) the manifest
	// WAL. Every ckpt call below is a nil-safe no-op for ordinary jobs.
	if o.checkpoint != "" {
		firstID := 0
		if rs != nil {
			firstID = rs.maxID
		}
		ckpt, err := openManifestLog(o.checkpoint, firstID)
		if err != nil {
			return nil, err
		}
		j.ckpt = ckpt
		defer func() { j.ckpt.close() }() // failure path: keep state, release the handle
		if rs == nil {
			if err := ckpt.logBegin(o, j.e.cfg.RecordSize, n, runPl.N, fanIn); err != nil {
				return nil, err
			}
		}
	}

	var live []*merge.Run
	var ids []int // manifest ids parallel to live; populated only under checkpointing
	defer func() {
		for _, r := range live {
			if r != nil {
				r.Close()
			}
		}
	}()

	var want record.Checksum
	if rs != nil {
		live, ids, want = rs.live, rs.ids, rs.want
		rs.live = nil // this job owns them now
		stats.ResumedRuns = len(live)
	} else {
		if err := j.formRuns(ctx, rd, o, codec, n, runPl, &live, &ids, chunk, stats, &want); err != nil {
			return nil, err
		}
		// Durability point: formation is complete and every run durable;
		// after this entry a resume never re-sorts a single record.
		if err := j.ckpt.logIngestDone(want); err != nil {
			return nil, err
		}
	}
	stats.Runs = len(live)
	formSpill := stats.BytesWritten // formation-phase bytes, before any merge traffic
	runs := live
	live = nil // mergePhase owns the run set (and its close-on-error) now
	return j.mergePhase(ctx, runs, ids, dst, o, codec, n, runPl, stats, want, formSpill, chunk, fanIn, rs != nil)
}

// mergePlan is the merge schedule of a run set under a fan-in bound.
type mergePlan struct {
	// steps lists each intermediate merge's inputs as positions in the run
	// list, which grows by one output per step (step i's output is position
	// len(sizes)+i); the runs no step consumes feed the final merge.
	steps [][]int
	total int64 // records all merges together emit: the progress total
	depth int   // merge-tree levels, including the final merge
}

// mergeSchedule plans the merges of runs with the given record counts by
// Knuth's optimum merge pattern (TAOCP vol. 3 §5.4.9, the k-ary Huffman
// tree), which minimises the records intermediate merges rewrite: the first
// merge takes the ((B−2) mod (k−1))+2 smallest of the B runs, every later
// one the k smallest, until at most k runs remain for the final merge. Ties
// go to the earlier position, so the plan is deterministic.
func mergeSchedule(sizes []int64, fanIn int) mergePlan {
	type entry struct {
		pos   int
		size  int64
		depth int
	}
	live := make([]entry, len(sizes))
	for i, sz := range sizes {
		live[i] = entry{pos: i, size: sz}
	}
	var p mergePlan
	take := (len(live)-2)%(fanIn-1) + 2
	for len(live) > fanIn {
		slices.SortFunc(live, func(a, b entry) int {
			return cmp.Or(cmp.Compare(a.size, b.size), cmp.Compare(a.pos, b.pos))
		})
		out := entry{pos: len(sizes) + len(p.steps)}
		step := make([]int, take)
		for i, in := range live[:take] {
			step[i] = in.pos
			out.size += in.size
			out.depth = max(out.depth, in.depth)
		}
		out.depth++
		p.steps = append(p.steps, step)
		p.total += out.size
		live = append(live[take:], out)
		take = fanIn
	}
	for _, in := range live {
		p.total += in.size
		p.depth = max(p.depth, in.depth+1)
	}
	return p
}

// mergePhase executes the run set's merge schedule (mergeSchedule) and
// streams the final merge into the sink, verifying order in-stream and the
// multiset at end of stream. Under checkpointing each intermediate merge
// output becomes durable (fsync + "merged" WAL entry) before its consumed
// inputs are removed, so a crash at any point leaves a run set that
// re-plans and re-merges to byte-identical output; on success the
// checkpoint state is retired. ids maps live runs to their manifest ids
// (parallel slice; nil when not checkpointing). resumed marks a merge-phase
// resume, whose formation work happened in a previous process.
func (j *job) mergePhase(ctx context.Context, live []*merge.Run, ids []int, dst Sink, o sortOptions, codec record.KeyCodec, n int64, runPl core.Plan, stats *MergeStats, want record.Checksum, formSpill int64, chunk, fanIn int, resumed bool) (*Result, error) {
	defer func() {
		for _, r := range live {
			if r != nil {
				r.Close()
			}
		}
	}()

	sizes := make([]int64, len(live))
	for i, r := range live {
		sizes[i] = r.Records
	}
	plan := mergeSchedule(sizes, fanIn)
	stats.Levels = plan.depth

	// Merge progress is cumulative across EVERY merge, against the record
	// count the plan says all merges together emit: one nondecreasing
	// sequence that ends exactly at its total.
	opt := merge.Options{ChunkRecs: chunk, Faults: &j.faults}
	var mergedBase int64
	if o.progress != nil {
		batches, fn := len(live), o.progress
		opt.Progress = func(merged int64) {
			fn(Progress{Batches: batches, MergedRecords: mergedBase + merged, TotalRecords: plan.total})
		}
	}

	// Intermediate merges: each step's output joins the run list at the
	// position the plan gave it. The merges verify every CRC frame they
	// load, healing transient read corruption with a reread and counting
	// both into the job's fault stats.
	for _, step := range plan.steps {
		in := make([]*merge.Run, len(step))
		var inIDs []int
		for i, pos := range step {
			in[i] = live[pos]
			if j.ckpt != nil {
				inIDs = append(inIDs, ids[pos])
			}
		}
		d, err := j.m.NewSpillDisk(len(live)) // the step's position in the run list
		if err != nil {
			return nil, err
		}
		out, st, err := merge.MergeToRun(ctx, in, d, opt)
		if err != nil {
			d.Close()
			return nil, err
		}
		live = append(live, out)
		stats.BytesRead += st.BytesRead
		stats.BytesWritten += st.BytesWritten
		mergedBase += out.Records
		if j.ckpt != nil {
			// Durability points, in order: the merged output reaches
			// stable storage; the WAL records it (with the input ids it
			// consumed); only then are the consumed input files removed.
			// A crash between any two steps leaves either the inputs live
			// (the merge is redone) or the output live with orphan inputs
			// (swept at resume) — never a gap in the data.
			if err := pdm.SyncDisk(out.Disk); err != nil {
				return nil, err
			}
			outID, err := j.ckpt.logMerged(out, inIDs)
			if err != nil {
				return nil, err
			}
			ids = append(ids, outID)
		}
		for _, pos := range step {
			j.closeConsumedRun(live[pos])
			live[pos] = nil
		}
	}
	var final []*merge.Run
	for _, r := range live {
		if r != nil {
			final = append(final, r)
		}
	}

	// Final merge: stream straight into the sink, decoding each chunk on
	// the write-behind worker so the sink's I/O and the codec's work
	// overlap the compare/copy loop and the runs' prefetch. The emitted
	// order is checked record by record and the emitted multiset compared
	// to the ingest checksum at end of stream — streaming verification, at
	// the cost that a late failure means the sink has already received
	// bytes that must be discarded (Sort reports the error either way).
	w, err := dst.Open(j.e.cfg.RecordSize)
	if err != nil {
		return nil, err
	}
	got, st, err := merge.Merge(ctx, final, func(c record.Slice) error {
		codec.Decode(c)
		return w.Write(c)
	}, opt)
	stats.BytesRead += st.BytesRead
	stats.BytesWritten += st.BytesWritten
	if err != nil {
		w.Close()
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	if !got.Equal(want) {
		return nil, fmt.Errorf("colsort: streaming verification failed: the merged output's multiset (%d records) differs from the input's (%d); discard the sink's contents", got.Count, want.Count)
	}
	if j.ckpt != nil {
		// The sink holds the verified output: record completion and retire
		// the checkpoint state (manifest and remaining run files).
		for i, r := range live {
			if r != nil {
				r.Close()
				live[i] = nil
			}
		}
		j.ckpt.complete()
		j.ckpt = nil
	}
	// The engine fabric never runs on this path, so the real work is
	// accounted as synthetic passes — the selection tree, then the merge
	// trees — and Engine.Stats' cumulative counters (and the server's
	// /metrics derived from them) stay meaningful. A merge-phase resume
	// performed no formation in this process and accounts the merge only.
	z := int64(runPl.Z)
	mergeRecs := mergedBase + n // every record each merge emitted
	mergePass := []sim.Counters{{
		CompareUnits:   mergeRecs * int64(bits.Len64(uint64(fanIn))),
		DiskReadBytes:  stats.BytesRead,
		DiskReadOps:    int64(stats.Runs),
		DiskWriteBytes: stats.BytesWritten - formSpill,
		DiskWriteOps:   int64(stats.Levels),
		MovedBytes:     mergeRecs * z,
	}}
	passCnts := [][]sim.Counters{mergePass}
	if !resumed {
		formPass := []sim.Counters{{
			CompareUnits:   n * int64(bits.Len64(uint64(runPl.N))),
			DiskWriteBytes: formSpill,
			DiskWriteOps:   int64(stats.Runs),
			MovedBytes:     2 * n * z, // arena fill + run emit
		}}
		passCnts = [][]sim.Counters{formPass, mergePass}
	}
	return &Result{
		Result: &core.Result{Plan: runPl, PassCounters: passCnts},
		want:   want,
		realN:  n,
		codec:  codec,
		Merge:  stats,
	}, nil
}

// formRuns forms and spills maximal variable-length runs by tree-based
// replacement selection, consuming the source stream directly: records are
// encoded into normalized key space as they arrive, the former's arena
// (runPl.N records — the formation memory H that planRun sizes, honest
// against the job's admission lease) emits each run in its chosen
// direction, and each run streams through the CRC-framing writer onto a
// fresh spill disk, descending runs marked for the reversed merge reader.
// Order comes from the former, and end-to-end verification from the
// merge's in-stream order check plus the final multiset comparison against
// the ingest checksum.
//
// Recovery: the source stream that fed a run is consumed as the run forms,
// so when the scrub is armed and the redo budget is positive, each run's
// emitted chunks are RETAINED in pooled memory until its spill has been
// verified — a permanent spill failure or a scrub-detected corruption
// re-spills the retained copy onto a fresh disk (counted in BatchRedos).
// Retention is bounded at 2× the arena (the expected run length on random
// input): a run reaching the bound is cut there, so redo memory stays
// within two arenas' worth, at the cost of splitting longer-than-expected
// runs while scrubbing.
func (j *job) formRuns(ctx context.Context, rd RecordReader, o sortOptions, codec record.KeyCodec, n int64, runPl core.Plan, live *[]*merge.Run, ids *[]int, chunk int, stats *MergeStats, want *record.Checksum) error {
	// Recovery policy: how many runs may be re-spilled, and whether every
	// spilled run gets a post-spill CRC readback. The scrub is always on
	// under chaos injection (the only way a torn spill write is caught
	// while its run can still be re-spilled) and opt-in otherwise — on
	// healthy storage it costs one extra sequential read of every spilled
	// byte to detect nothing.
	redoBudget := defaultRedoBudget
	scrub := j.m.Chaos != nil
	if o.retry != nil {
		if o.retry.RedoBudget != 0 {
			redoBudget = o.retry.RedoBudget
		}
		if redoBudget < 0 {
			redoBudget = 0
		}
		scrub = scrub || o.retry.Scrub
	}
	spillSeq := 0
	newSpill := func() (pdm.Disk, error) {
		d, err := j.m.NewSpillDisk(spillSeq)
		spillSeq++
		return d, err
	}

	z := j.e.cfg.RecordSize
	var pool *record.Pool
	if len(j.m.Pools) > 0 {
		pool = j.m.Pools[0]
	}
	var idx int64
	read := func(rec []byte) (bool, error) {
		if idx >= n {
			return false, nil
		}
		if idx%4096 == 0 {
			if err := ctx.Err(); err != nil {
				return false, err
			}
		}
		if err := rd.ReadRecord(rec); err != nil {
			return false, fmt.Errorf("colsort: reading record %d: %w", idx, err)
		}
		codec.EncodeRecord(rec)
		want.Add(rec)
		idx++
		return true, nil
	}
	f := runform.New(int(runPl.N), z, pool, read)
	defer f.Close()
	buf := pool.Get(chunk, z)
	defer pool.Put(buf)

	retain := scrub && redoBudget > 0
	var formed int64
	for runIdx := 1; ; runIdx++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		desc, ok, err := f.NextRun()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		// Progress is emitted per drained chunk, not per completed run: a
		// run's length is data-dependent and unbounded (a sorted stream is
		// ONE run), so waiting for a run boundary could leave a streaming
		// caller without any progress signal for the whole sort.
		onChunk := func(got int) {
			formed += int64(got)
			if o.progress != nil {
				o.progress(Progress{Batch: runIdx, FormedRecords: formed, TotalRecords: n})
			}
		}
		run, recs, err := j.spillFormedRun(ctx, f, desc, buf, newSpill, chunk,
			scrub, retain, 2*runPl.N, redoBudget, pool, runIdx, onChunk)
		if err != nil {
			return err
		}
		*live = append(*live, run)
		// Durability point: the run (already scrubbed when armed) is fsync'd
		// before the manifest claims it. A formation-phase crash restarts
		// formation (DESIGN.md §12); a merge-phase crash resumes from these
		// runs with no re-sort.
		if j.ckpt != nil {
			if err := pdm.SyncDisk(run.Disk); err != nil {
				return err
			}
			id, err := j.ckpt.logRun(run)
			if err != nil {
				return err
			}
			*ids = append(*ids, id)
		}
		stats.BytesWritten += run.Bytes()
		if desc {
			stats.DownRuns++
		}
		if stats.MinRunRecords == 0 || recs < stats.MinRunRecords {
			stats.MinRunRecords = recs
		}
		if recs > stats.MaxRunRecords {
			stats.MaxRunRecords = recs
		}
	}
}

// spillFormedRun drains the former's current run onto a fresh spill disk.
// With retention armed, every emitted chunk is also copied into pooled
// memory until the run is verified: a permanent spill-write failure mid-run
// stops writing but KEEPS DRAINING the former (the retained copy is then
// the only copy of those records), after which the whole run is re-spilled
// onto fresh disks under the redo budget; a scrub failure re-spills the
// same way. Without retention, any permanent spill or scrub failure is
// terminal.
func (j *job) spillFormedRun(ctx context.Context, f *runform.Former, desc bool, buf record.Slice, newSpill func() (pdm.Disk, error), chunk int, scrub, retain bool, retainCap int64, redoBudget int, pool *record.Pool, runIdx int, onChunk func(got int)) (*merge.Run, int64, error) {
	var retained []record.Slice
	defer func() {
		for _, c := range retained {
			pool.Put(c)
		}
	}()

	d, err := newSpill()
	if err != nil {
		return nil, 0, err
	}
	w := merge.NewWriter(d, buf.Size, chunk)
	var recs int64
	var spillErr error
	for {
		got, err := f.Fill(buf)
		if err != nil {
			d.Close()
			return nil, 0, err
		}
		if got == 0 {
			break
		}
		c := buf.Sub(0, got)
		recs += int64(got)
		onChunk(got)
		if retain {
			cp := pool.Get(got, buf.Size)
			copy(cp.Data, c.Data)
			retained = append(retained, cp)
		}
		if spillErr == nil {
			if err := w.Append(c); err != nil {
				if !retain {
					d.Close()
					return nil, 0, fmt.Errorf("colsort: run %d: %w", runIdx, err)
				}
				spillErr = err
			}
		}
		if retain && recs >= retainCap {
			f.BreakRun() // bound redo memory; the rest becomes the next run
		}
	}

	var run *merge.Run
	if spillErr != nil {
		d.Close() // the half-written first attempt
	} else if run, err = w.Finish(); err != nil {
		d.Close()
		if !retain {
			return nil, 0, fmt.Errorf("colsort: run %d: %w", runIdx, err)
		}
		run, spillErr = nil, err
	} else {
		run.Descending = desc
		if scrub {
			// Read the spilled bytes back against their CRC frames NOW,
			// while the retained copy can still redo the run — at merge
			// time persistent spill corruption is fatal.
			if err := run.Scrub(ctx, &j.faults); err != nil {
				run.Close()
				if !retain {
					return nil, 0, fmt.Errorf("colsort: run %d: %w", runIdx, err)
				}
				run, spillErr = nil, err
			}
		}
	}
	for attempt := 1; spillErr != nil; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, fmt.Errorf("colsort: run %d: %w", runIdx, spillErr)
		}
		if errors.Is(spillErr, pdm.ErrNoSpace) {
			// Out of space is not redoable: a fresh spill disk lives on the
			// same full filesystem. Surface it without spending the budget.
			return nil, 0, fmt.Errorf("colsort: run %d: %w", runIdx, spillErr)
		}
		if attempt > redoBudget {
			return nil, 0, fmt.Errorf("colsort: redo budget (%d) exhausted: run %d: %w", redoBudget, runIdx, spillErr)
		}
		j.faults.BatchRedos.Add(1)
		run, spillErr = respillRetained(ctx, retained, buf.Size, desc, newSpill, chunk, scrub, &j.faults)
	}
	return run, recs, nil
}

// respillRetained writes a formed run's retained chunks onto a fresh spill
// disk and re-verifies it.
func respillRetained(ctx context.Context, retained []record.Slice, z int, desc bool, newSpill func() (pdm.Disk, error), chunk int, scrub bool, faults *pdm.FaultStats) (*merge.Run, error) {
	d, err := newSpill()
	if err != nil {
		return nil, err
	}
	w := merge.NewWriter(d, z, chunk)
	for _, c := range retained {
		if err := w.Append(c); err != nil {
			d.Close()
			return nil, err
		}
	}
	run, err := w.Finish()
	if err != nil {
		d.Close()
		return nil, err
	}
	run.Descending = desc
	if scrub {
		if err := run.Scrub(ctx, faults); err != nil {
			run.Close()
			return nil, err
		}
	}
	return run, nil
}

// closeConsumedRun closes a merge input run and, under checkpointing (whose
// spill files survive Close), removes its durable file — legal only after
// the WAL entry of the merge that consumed it is durable.
func (j *job) closeConsumedRun(r *merge.Run) {
	var path string
	if j.ckpt != nil {
		path = pdm.DiskPath(r.Disk)
	}
	r.Close()
	if path != "" {
		_ = os.Remove(path)
	}
}
