package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"colsort"
	"colsort/internal/record"
)

// fileBench drives the file → file workloads through Engine.Sort.
type fileBench struct {
	c       config
	eng     *colsort.Engine
	ins     []input // data dropped once written; the hashes stay
	inPaths []string
	outPath string
	seq     int // jobs started, for input cycling and checkpoint dirs
}

// job sorts the next input file into the output file and checks the
// output against the reference. jt, when non-nil, traces the job.
// checkpoint is ignored by workloads that do not checkpoint.
func (b *fileBench) job(ctx context.Context, jt *jobTrace, checkpoint bool) (res *colsort.Result, el time.Duration, ps procSample, err error) {
	i := b.seq % len(b.ins)
	b.seq++
	var opts []colsort.Option
	if checkpoint && b.c.wl.checkpoint {
		dir := filepath.Join(b.c.dir, fmt.Sprintf("ckpt-%d", b.seq))
		defer os.RemoveAll(dir)
		opts = append(opts, colsort.WithCheckpoint(dir))
	}
	src := colsort.FromFile(b.inPaths[i])
	dst := colsort.ToFile(b.outPath)
	if b.c.flip {
		dst = flipSink{dst}
	}
	if jt != nil {
		src, dst = jt.source(src), jt.sink(dst)
		opts = append(opts, colsort.WithProgress(jt.progress))
	}
	before, err := sampleProc()
	if err != nil {
		return nil, 0, ps, err
	}
	t := time.Now()
	res, err = b.eng.Sort(ctx, src, dst, opts...)
	el = time.Since(t)
	after, perr := sampleProc()
	if err != nil {
		return nil, el, ps, err
	}
	if perr != nil {
		res.Close()
		return nil, el, ps, perr
	}
	if err := checkFile(b.outPath, b.ins[i].refHash); err != nil {
		res.Close()
		return nil, el, ps, err
	}
	return res, el, after.sub(before), nil
}

// checkFile compares the SHA-256 of the file at path with want.
func checkFile(path string, want [32]byte) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return err
	}
	return checkSum(h, want)
}

// setup times NewEngine through one warm-up job and keeps the engine.
func (b *fileBench) setup(ctx context.Context, w *window) (float64, error) {
	t := time.Now()
	eng, err := newEngine(b.c)
	if err != nil {
		return 0, err
	}
	b.eng = eng
	w.attempted++
	res, _, _, err := b.job(ctx, nil, true)
	if err != nil {
		w.fail("warm-up: %v", err)
		return time.Since(t).Seconds(), nil
	}
	res.Close()
	return time.Since(t).Seconds(), nil
}

// window runs jobs back to back for secs seconds and at least minJobs
// jobs. With tr non-nil it is the traced run's window, which cycles
// through an untraced job, a traced one (into tr and l) and, on a
// checkpointing workload, an untraced job without the checkpoint, so that
// the tracing overhead and durability's price are measured on interleaved
// jobs.
func (b *fileBench) window(ctx context.Context, secs float64, minJobs int, tr *tracer, l *layers) window {
	var w window
	cycle := 1
	if tr != nil {
		cycle = 2
		if b.c.wl.checkpoint {
			cycle = 3
		}
	}
	start := time.Now()
	for k := 0; ctx.Err() == nil; k++ {
		el := time.Since(start).Seconds()
		if windowOver(el, secs, len(w.lat), w.failed, minJobs) {
			break
		}
		w.attempted++
		var jt *jobTrace
		var m0, m1 runtime.MemStats
		traced := tr != nil && k%cycle == 1
		base := k%cycle == 2
		if traced {
			jt = newJobTrace()
			runtime.ReadMemStats(&m0)
		}
		rssReset := tr == nil && resetPeakRSS() == nil
		t := time.Now()
		res, d, ps, err := b.job(ctx, jt, !base)
		if err != nil {
			w.fail("%v", err)
			continue
		}
		if tr != nil && !traced {
			if base {
				w.baseLat = append(w.baseLat, d.Seconds())
			} else {
				w.plainLat = append(w.plainLat, d.Seconds())
			}
			res.Close()
			continue
		}
		if traced {
			runtime.ReadMemStats(&m1)
			hier, levels := res.Merge != nil, 0
			if hier {
				levels = res.Merge.Levels
			}
			jt.record(tr, int64(b.seq), t, t.Add(d), hier, levels)
			l.add(res, jt, ps, float64(m1.TotalAlloc-m0.TotalAlloc)/mib, float64(m1.NumGC-m0.NumGC), b.c.wl.records())
		}
		if res.Result != nil && len(res.PassCounters) > 0 {
			w.modeled = res.EstimateBeowulf().Total
		}
		if rssReset {
			if rss, err := peakRSSMiB(); err == nil {
				w.rss = append(w.rss, rss)
			}
		}
		res.Close()
		w.lat = append(w.lat, d.Seconds())
		w.busy += d.Seconds()
		w.bytes += b.c.wl.inputBytes
		w.proc = w.proc.add(ps)
	}
	return w
}

// runFile runs a file workload and returns its outcome.
func runFile(c config, ins []input) (outcome, error) {
	ctx, cancel := runCtx()
	defer cancel()
	b := &fileBench{c: c, ins: ins, outPath: filepath.Join(c.dir, "out.dat")}
	for i := range ins {
		p := filepath.Join(c.dir, fmt.Sprintf("in-%d.dat", i))
		if err := os.WriteFile(p, ins[i].data, 0o644); err != nil {
			return outcome{}, err
		}
		b.inPaths = append(b.inPaths, p)
		b.ins[i].data = nil
	}
	if err := settle(); err != nil {
		fmt.Fprintf(c.out, "note: peak RSS not reset (%v); peak_rss_mib includes input generation\n", err)
	}

	var setupW window
	var setups []float64
	for k := 0; k < c.setups; k++ {
		if k > 0 {
			if err := b.eng.Close(); err != nil {
				return outcome{}, err
			}
		}
		s, err := b.setup(ctx, &setupW)
		if err != nil {
			return outcome{}, err
		}
		setups = append(setups, s)
	}
	defer b.eng.Close()

	if !c.trace {
		w := b.window(ctx, c.seconds, c.minJobs, nil, nil)
		ms, err := endToEnd(c, w, setups)
		if err != nil {
			return outcome{}, err
		}
		return outcome{attempted: w.attempted + setupW.attempted, failed: w.failed + setupW.failed, metrics: ms}, nil
	}

	// Traced run: traced jobs interleaved with untraced ones, for the
	// overheads; then the floor probes.
	fmt.Fprintf(c.out, "setup_s %.4f s (one set-up)\n", setups[0])
	p := &perLayer{tr: newTracer()}
	traced := b.window(ctx, c.seconds, traceMinJobs, p.tr, &p.l)
	p.untracedP50, p.tracedP50 = median(traced.plainLat), median(traced.lat)
	if c.wl.checkpoint {
		// Durability's price: the same input sorted, untraced, with and
		// without a manifest, one job of each in every cycle.
		p.manifestOverhead = p.untracedP50 - median(traced.baseLat)
		fmt.Fprintf(c.out, "checkpointed p50 %.4f s over %d jobs vs uncheckpointed p50 %.4f s over %d jobs (interleaved, both untraced)\n",
			p.untracedP50, len(traced.plainLat), median(traced.baseLat), len(traced.baseLat))
	}
	ms, err := finishTrace(c, p)
	return outcome{attempted: traced.attempted + setupW.attempted, failed: traced.failed + setupW.failed, metrics: ms}, err
}

// flipSink is the test hook behind config.flip: it hands the wrapped sink
// a copy of the first chunk with one byte changed.
type flipSink struct{ inner colsort.Sink }

func (s flipSink) Open(z int) (colsort.RecordWriter, error) {
	w, err := s.inner.Open(z)
	if err != nil {
		return nil, err
	}
	return &flipWriter{RecordWriter: w}, nil
}

type flipWriter struct {
	colsort.RecordWriter
	done bool
}

func (w *flipWriter) Write(recs record.Slice) error {
	if w.done || len(recs.Data) == 0 {
		return w.RecordWriter.Write(recs)
	}
	w.done = true
	c := record.Slice{Data: append([]byte(nil), recs.Data...), Size: recs.Size}
	c.Data[len(c.Data)/2] ^= 0x01
	return w.RecordWriter.Write(c)
}
