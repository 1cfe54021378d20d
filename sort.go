package colsort

import (
	"context"
	"fmt"

	"colsort/internal/core"
	"colsort/internal/pdm"
	"colsort/internal/record"
	"colsort/internal/sim"
	"colsort/internal/verify"
)

// Sort submits one sorting job to the engine: the records of src are
// sorted into dst under ctx.
//
//	res, err := engine.Sort(ctx, colsort.FromFile("in.dat"), colsort.ToFile("out.dat"),
//	        colsort.WithAlgorithm(colsort.Subblock),
//	        colsort.WithKeySpec(colsort.KeySpec{Offset: 16, Width: 8}))
//
// The input is read once, in index order, by the first pass itself:
// each processor reads its own column portions from the source straight
// into its pass buffers, so no copy of the input lands on the simulated
// cluster's disks. The records are
// sorted by the configured algorithm, verified (global sortedness in PDM
// column-major order plus multiset preservation, in one parallel scan)
// and — when dst is non-nil — streamed into the sink with any padding
// trimmed and any KeySpec normalization undone, each segment checked
// against the CRC32-C its verification recorded. A nil dst keeps the
// sorted data in Result.Output only.
//
// Sort is unbounded in n: when the record count exceeds the selected
// algorithm's problem-size bound (or a WithMaxMemory cap), the input is
// transparently formed into maximal sorted runs by replacement selection
// over one bounded run's memory, and the runs are combined by a loser-tree
// k-way merge (WithMergeFanIn) streaming straight into dst with prefetch
// on the run reads, write-behind on the output, and in-stream verification
// — see Result.Merge and DESIGN.md §7. This path requires a non-nil dst
// (the merged output only exists as a stream), the default PadAuto policy,
// and a non-hybrid algorithm.
//
// Concurrent Sort calls are admitted against the engine's TotalMemory
// budget: each job's ask is its WithMaxMemory cap when given, otherwise
// its run plan's record bytes. A job that does not fit waits FIFO for
// earlier jobs to release their leases — cancel ctx to stop waiting, or
// pass WithNoWait to fail fast with ErrBusy. Admitted jobs run fully in
// parallel: they share the engine's warm buffer pools and backend but
// keep their own fault counters, progress, cancellation and scratch
// namespace, so each result is byte-identical to a solo run.
//
// Cancelling ctx (or exceeding its deadline) tears the job down: all P
// processor goroutines, the pipeline stages between them and the
// asynchronous disk workers unwind, write-behind queues drain, scratch
// files are removed, and Sort returns an error satisfying
// errors.Is(err, ctx.Err()) without leaking goroutines or files.
//
// The returned Result carries the exact operation counts and the cost
// model; the caller owns Close.
func (e *Engine) Sort(ctx context.Context, src Source, dst Sink, opts ...Option) (*Result, error) {
	o := sortOptions{alg: Threaded, padding: PadAuto}
	for _, opt := range opts {
		opt(&o)
	}
	if src == nil {
		return nil, fmt.Errorf("colsort: nil Source")
	}
	if o.deadline > 0 {
		// The deadline clock starts here — admission waiting included — so
		// a queued job cannot outlive its budget before doing any work.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.deadline)
		defer cancel()
	}
	if o.maxMemory < 0 {
		return nil, fmt.Errorf("colsort: WithMaxMemory(%d): the cap must be ≥ 0", o.maxMemory)
	}
	if o.fanIn < 0 || o.fanIn == 1 {
		return nil, fmt.Errorf("colsort: WithMergeFanIn(%d): the fan-in must be ≥ 2", o.fanIn)
	}
	codec, err := o.keySpec.Compile(e.cfg.RecordSize)
	if err != nil {
		return nil, fmt.Errorf("colsort: %w", err)
	}
	n, rd, err := src.Open(e.cfg.RecordSize)
	if err != nil {
		return nil, err
	}
	defer rd.Close()
	if n < 1 {
		return nil, fmt.Errorf("colsort: cannot sort %d records", n)
	}
	pl, plErr := e.planOpts(o, n)
	hier, err := e.wantHierarchical(o, pl, plErr)
	if err != nil {
		return nil, err
	}

	// Size the job's ask BEFORE admission: the caller's declared cap when
	// given, otherwise the record bytes of the single run this job will
	// execute. Plan-level failures (unplannable count, hierarchical sort
	// without a Sink) surface here, before the job can occupy budget.
	var runPl core.Plan
	var ask int64
	if hier {
		if dst == nil {
			// Wrap BOTH sentinels: ErrSinkRequired names what is missing,
			// and callers branching on ErrTooLarge (the legacy above-bound
			// failure mode) must keep matching when the only thing missing
			// is a Sink.
			return nil, fmt.Errorf("%w: %d records exceed the single-run bound (%w) and must stream through the hierarchical merge; pass a non-nil Sink (Discard() drops the output)", ErrSinkRequired, n, core.ErrTooLarge)
		}
		if runPl, err = e.planRun(o); err != nil {
			return nil, err
		}
		ask = runPl.N * int64(runPl.Z)
	} else {
		if plErr != nil {
			return nil, plErr
		}
		ask = pl.N * int64(pl.Z)
	}
	if o.maxMemory > 0 {
		ask = o.maxMemory
	}

	l, err := e.admit(ctx, ask, o.noWait)
	if err != nil {
		return nil, err
	}
	defer l.release()

	j := e.newJob(ctx, o)
	res, err := j.run(ctx, src, rd, dst, o, codec, n, pl, runPl, hier)
	faults := j.faultStats()
	if res != nil {
		res.Faults = faults
		res.JobID = j.id
	}
	e.finishJob(res, faults, err)
	return res, err
}

// run executes one admitted job: the hierarchical runs-plus-merge path
// when hier is set, the single-run engine path otherwise.
func (j *job) run(ctx context.Context, src Source, rd RecordReader, dst Sink, o sortOptions, codec record.KeyCodec, n int64, pl, runPl core.Plan, hier bool) (*Result, error) {
	if hier {
		return j.sortHierarchical(ctx, rd, dst, o, codec, n, runPl, nil)
	}

	// An existing store of exactly the planned shape under the native key
	// is consumed in place; every other source streams straight into pass
	// 1's buffers, with no ingest copy.
	var in core.Input
	var stream *streamInput
	var want record.Checksum
	if ss, ok := src.(*storeSource); ok && codec.Identity() && n == pl.N && storeMatchesPlan(ss.st, pl) {
		cs, err := ss.st.Checksum()
		if err != nil {
			return nil, err
		}
		in, want = ss.st, cs
	} else {
		stream = &streamInput{rd: rd, codec: codec, n: n, sums: make([]record.Checksum, pl.P)}
		st, err := core.NewStream(pl, j.m, stream.read, stream.finish)
		if err != nil {
			return nil, err
		}
		in = st
	}
	res, err := core.Run(ctx, pl, j.m, in, core.Hooks{Progress: o.progress})
	if err != nil {
		return nil, err
	}
	if stream != nil {
		for _, cs := range stream.sums {
			want.Merge(cs)
		}
	}
	out := &Result{Result: res, want: want, codec: codec, pools: j.m.Pools}
	if n < pl.N {
		out.realN = n
	}
	if dst != nil {
		// Verify BEFORE emitting: a failed sort must never hand the sink a
		// plausible-looking output.
		if err := out.Verify(); err != nil {
			out.Close()
			return nil, fmt.Errorf("colsort: refusing to emit output: %w", err)
		}
		if err := out.drainTo(ctx, dst, &j.faults); err != nil {
			out.Close()
			return nil, err
		}
	}
	return out, nil
}

// planOpts turns the options into a validated plan for n records.
func (e *Engine) planOpts(o sortOptions, n int64) (core.Plan, error) {
	if o.group > 0 {
		// Hybrid group columnsort: padding is not supported (the group size
		// fixes the shape), so the count must be directly plannable.
		return e.PlanHybrid(o.group, n)
	}
	if o.padding == PadNever {
		return e.Plan(o.alg, n)
	}
	return e.planPadded(o.alg, n)
}

// streamInput feeds a core.Stream from the source's record stream. read
// runs under the stream's turn and only fills the real records, straight
// into the pass's buffer; finish runs on the reading rank after it hands
// the turn on: it normalizes the records through the codec, folds them into
// that rank's checksum, and pads the rest of the segment with all-0xFF
// records — which are maximal in the normalized space, so they sort to the
// end for every KeySpec.
type streamInput struct {
	rd    RecordReader
	codec record.KeyCodec
	n     int64
	sums  []record.Checksum // per rank
}

// realLen returns how many of the size records starting at global index
// first are real.
func (s *streamInput) realLen(first int64, size int) int {
	return int(min(max(s.n-first, 0), int64(size)))
}

func (s *streamInput) read(dst record.Slice, first int64) error {
	recs := dst.Sub(0, s.realLen(first, dst.Len()))
	if cr, ok := s.rd.(*chunkedReader); ok { // file and stream sources: no per-record copy
		if got, err := cr.readRecords(recs); err != nil {
			return fmt.Errorf("colsort: input record %d: %w", first+int64(got), err)
		}
		return nil
	}
	for i := 0; i < recs.Len(); i++ {
		if err := s.rd.ReadRecord(recs.Record(i)); err != nil {
			return fmt.Errorf("colsort: input record %d: %w", first+int64(i), err)
		}
	}
	return nil
}

func (s *streamInput) finish(p int, dst record.Slice, first int64) {
	real := s.realLen(first, dst.Len())
	recs := dst.Sub(0, real)
	s.codec.Encode(recs)
	s.sums[p].AddSlice(recs)
	pad := dst.Data[real*dst.Size:]
	for i := range pad {
		pad[i] = 0xff
	}
}

// storeMatchesPlan mirrors core.Run's input-shape check.
func storeMatchesPlan(st *pdm.Store, pl core.Plan) bool {
	return st.R == pl.R && st.S == pl.S && st.RecSize == pl.Z && st.P == pl.P &&
		st.Layout == pl.Layout && (pl.Layout != pdm.GroupBlocked || st.G == pl.Group)
}

// drainTo streams the result's real records into the sink, decoding each
// chunk back to the caller's byte layout. Each owned row segment is
// prefetched one step ahead, so an async-backed store overlaps the sink
// writes with its disk service time. When the result was verified, each
// segment is first held to the seal its verification recorded
// (checkSeal), so the sink only ever receives verified bytes; faults, when
// non-nil, counts the corrupt reads.
func (r *Result) drainTo(ctx context.Context, dst Sink, faults *pdm.FaultStats) error {
	if r.Output == nil {
		return fmt.Errorf("colsort: hierarchical result holds no output store: the sorted records were already streamed to the Sort call's Sink")
	}
	w, err := dst.Open(r.Output.RecSize)
	if err != nil {
		return err
	}
	err = scanRealPrefix(ctx, r.Output, r.RealRecords(), r.seals, faults, func(chunk record.Slice) error {
		r.codec.Decode(chunk)
		return w.Write(chunk)
	})
	if err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// scanRealPrefix streams the real (non-pad) prefix of a sorted store in
// global column-major order, invoking emit with successive record chunks.
// The pad tail is neither read nor prefetched (ErrStopScan), and each owned
// segment is prefetched one step ahead by ScanSegments. With seals (one
// per segment, from verify.Sealed) every segment read is checked against
// its seal before emit sees it. The sink egress (drainTo) drives it.
func scanRealPrefix(ctx context.Context, st *pdm.Store, real int64, seals []uint32, faults *pdm.FaultStats, emit func(record.Slice) error) error {
	var cnt sim.Counters
	buf := record.Make(st.R, st.RecSize)
	remaining := real
	k := 0
	return st.ScanSegments(func(p, j, lo, hi int) error {
		if remaining <= 0 {
			return pdm.ErrStopScan
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		chunk := buf.Sub(0, hi-lo)
		if err := st.ReadRows(&cnt, p, j, lo, chunk); err != nil {
			return err
		}
		if seals != nil {
			if err := checkSeal(st, p, j, lo, chunk, seals[k], faults); err != nil {
				return err
			}
		}
		k++
		recs := int64(chunk.Len())
		if recs > remaining {
			recs = remaining
		}
		if err := emit(chunk.Sub(0, int(recs))); err != nil {
			return err
		}
		remaining -= recs
		return nil
	})
}

// checkSeal holds one segment read to the CRC32-C its verification
// recorded. On a mismatch the segment is re-read once — a damaged read
// heals, the async layer's staged copy was consumed by the first read —
// and the detection (and a heal) is counted in faults; a second mismatch
// fails with ErrCorruptOutput.
func checkSeal(st *pdm.Store, p, j, lo int, chunk record.Slice, seal uint32, faults *pdm.FaultStats) error {
	if verify.CRC(chunk.Data) == seal {
		return nil
	}
	if faults != nil {
		faults.CorruptChunks.Add(1)
	}
	var cnt sim.Counters
	if err := st.ReadRows(&cnt, p, j, lo, chunk); err != nil {
		return err
	}
	if verify.CRC(chunk.Data) != seal {
		return fmt.Errorf("%w: column %d rows [%d,%d) of processor %d", ErrCorruptOutput, j, lo, lo+chunk.Len(), p)
	}
	if faults != nil {
		faults.Rereads.Add(1)
	}
	return nil
}
