package main

import (
	"context"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"colsort"
)

// config is one benchmark run.
type config struct {
	wl       workload
	seed     uint64
	seconds  float64 // length of the measured window
	trace    bool    // the traced run: per-layer metrics instead of end-to-end ones
	dir      string  // scratch directory the run owns
	spansOut string  // where the traced run writes its spans ("" skips)
	setups   int     // set-ups whose median is setup_s
	minJobs  int     // jobs a window runs even past its length, for a tail
	commit   string
	out      io.Writer // human-readable report

	// flip, a test hook, makes every job's output differ from the program's
	// by one byte on its way to the checker.
	flip bool
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// outcome is what a run reports on its last line.
type outcome struct {
	attempted int
	failed    int
	metrics   []metric
}

// window accumulates the jobs of one measured window.
type window struct {
	lat       []float64 // seconds per verified job
	plainLat  []float64 // a traced window's untraced jobs, for the tracing overhead
	baseLat   []float64 // a traced window's untraced baseline jobs: without the checkpoint, or in-process instead of over HTTP
	busy      float64   // wall seconds the window's jobs took
	bytes     int64     // input bytes of the window's jobs
	proc      procSample
	attempted int
	failed    int
	rss       []float64 // MiB: each job's own VmHWM, when jobs run one at a time
	rejected  int       // HTTP 429s
	modeled   float64   // the last job's Beowulf-2003 cost-model estimate, seconds
}

// newEngine builds the engine every workload sorts on: P simulated
// processors with FileDisk scratch under the run's directory and Async on.
func newEngine(c config) (*colsort.Engine, error) {
	scratch := filepath.Join(c.dir, "scratch")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	return colsort.NewEngine(colsort.EngineConfig{Config: colsort.Config{
		Procs: procs, MemPerProc: c.wl.memPerProc, RecordSize: recSize,
		Dir: scratch, Async: true,
	}})
}

// checkSum compares the SHA-256 accumulated in h with the reference want.
func checkSum(h hash.Hash, want [32]byte) error {
	var got [32]byte
	h.Sum(got[:0])
	if got != want {
		return fmt.Errorf("output %x does not match the reference %x", got[:6], want[:6])
	}
	return nil
}

func (w *window) fail(f string, args ...any) {
	w.failed++
	fmt.Fprintf(os.Stderr, "job failed: "+f+"\n", args...)
}

// endToEnd returns the untraced metrics of a window, in BENCHMARK.json's
// order, and prints them with their derivations.
func endToEnd(c config, w window, setups []float64) ([]metric, error) {
	rss, rssNote := median(w.rss), fmt.Sprintf("median over %d jobs of the VmHWM each reached", len(w.rss))
	if len(w.rss) == 0 {
		var err error
		if rss, err = peakRSSMiB(); err != nil {
			return nil, err
		}
		rssNote = "VmHWM over the window"
	}
	tv, tp, tok := tail(w.lat)
	tailNote := fmt.Sprintf("p%.1f of %d jobs, %d beyond", tp, len(w.lat), tailBeyond)
	if !tok {
		tailNote = fmt.Sprintf("max of %d jobs: fewer than %d, no percentile has %d beyond", len(w.lat), tailBeyond+1, tailBeyond)
	}
	io := float64(w.proc.rchar+w.proc.wchar) / float64(w.bytes)
	ms := []metric{
		{"setup_s", median(setups), "s"},
		{"throughput_mib_s", float64(w.bytes) / mib / w.busy, "MiB/s"},
		{"job_p50_s", median(w.lat), "s"},
		{"job_tail_s", tv, "s"},
		{"cpu_s_per_gib", w.proc.cpu.Seconds() / (float64(w.bytes) / gib), "s/GiB"},
		{"peak_rss_mib", rss, "MiB"},
		{"io_bytes_per_byte", io, "B/B"},
	}
	notes := map[string]string{
		"setup_s":           fmt.Sprintf("median of %d set-ups %s", len(setups), fmtList(setups)),
		"throughput_mib_s":  fmt.Sprintf("%d MiB in %.3f s of jobs", w.bytes/mib, w.busy),
		"job_p50_s":         fmt.Sprintf("n=%d", len(w.lat)),
		"job_tail_s":        tailNote,
		"cpu_s_per_gib":     fmt.Sprintf("%.3f s user+sys of the whole process: engine and any clients", w.proc.cpu.Seconds()),
		"peak_rss_mib":      rssNote,
		"io_bytes_per_byte": fmt.Sprintf("floor %g (%s); floor/actual %.3f", c.wl.ioFloor, c.wl.ioFloorWhy, c.wl.ioFloor/io),
	}
	fmt.Fprintf(c.out, "end-to-end (untraced):\n")
	for _, m := range ms {
		fmt.Fprintf(c.out, "  %-18s %12.6g %-6s %s\n", m.name, m.value, m.unit, notes[m.name])
	}
	fmt.Fprintf(c.out, "  %-18s %12.6g %-6s %d of %d jobs failed, were refused or mismatched the reference\n",
		"error_rate", float64(w.failed)/float64(max(w.attempted, 1)), "ratio", w.failed, w.attempted)
	if w.modeled > 0 {
		printModeled(c, w.modeled, median(w.lat))
	}
	return ms, nil
}

func fmtList(xs []float64) string {
	s := "["
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.4g", x)
	}
	return s + "]"
}

// layers accumulates per-job figures of a traced window.
type layers struct {
	sinkBusy, allocMiB, gcs   []float64
	diskMiB, compareM         []float64
	netMiB, msgs              []float64
	runs, levels, runLenOverH []float64
	mergeReadMiB, mergeWrite  []float64
	ioRead, ioWrite           []float64 // bytes per job through read and write calls
	modeled                   []float64 // Beowulf-2003 cost-model estimate, seconds
	retries                   int64
	runRecords                int64 // H: records one run's memory holds
}

// add folds one traced job of n records into the layers: its result,
// trace and process counters, the MiB it allocated and the collections it
// saw.
func (l *layers) add(res *colsort.Result, jt *jobTrace, ps procSample, allocMiB, gcs float64, n int64) {
	l.sinkBusy = append(l.sinkBusy, jt.sinkBusy.Seconds())
	l.allocMiB = append(l.allocMiB, allocMiB)
	l.gcs = append(l.gcs, gcs)
	l.ioRead = append(l.ioRead, float64(ps.rchar))
	l.ioWrite = append(l.ioWrite, float64(ps.wchar))
	l.retries += res.Faults.DiskRetries
	if res.Result != nil && len(res.PassCounters) > 0 {
		tc := res.TotalCounters()
		l.diskMiB = append(l.diskMiB, float64(tc.DiskReadBytes+tc.DiskWriteBytes)/mib)
		l.compareM = append(l.compareM, float64(tc.CompareUnits)/1e6)
		l.netMiB = append(l.netMiB, float64(tc.NetBytes)/mib)
		l.msgs = append(l.msgs, float64(tc.NetMsgs))
		l.modeled = append(l.modeled, res.EstimateBeowulf().Total)
	}
	if m := res.Merge; m != nil {
		l.runs = append(l.runs, float64(m.Runs))
		l.levels = append(l.levels, float64(m.Levels))
		if m.Runs > 0 && m.RunRecords > 0 {
			l.runLenOverH = append(l.runLenOverH, float64(n)/float64(m.Runs)/float64(m.RunRecords))
			l.runRecords = m.RunRecords
		}
		l.mergeReadMiB = append(l.mergeReadMiB, float64(m.BytesRead)/mib)
		l.mergeWrite = append(l.mergeWrite, float64(m.BytesWritten)/mib)
	}
}

// perLayer assembles the per-layer metrics, in BENCHMARK.json's order. A
// layer the workload does not run reports 0.
type perLayer struct {
	tr          *tracer
	l           layers
	untracedP50 float64 // job (or request) p50 of the untraced jobs interleaved with the traced ones
	tracedP50   float64 // the same, traced
	// probes
	seqWrite, seqRead, fsyncMs float64
	colSort, fill, kway        float64
	codec, checksum            float64
	// workload-specific
	manifestOverhead                            float64
	upload, firstByte, download, serverOverhead float64
	rejected                                    int
}

// ioFloor returns how long a traced job's read and write bytes would take
// at the probed sequential bandwidth, and the job's median time.
func (p *perLayer) ioFloor() (floorS, jobS float64) {
	jobS, _ = p.tr.byName("job")
	if p.seqRead == 0 || p.seqWrite == 0 {
		return 0, jobS
	}
	return median(p.l.ioRead)/mib/p.seqRead + median(p.l.ioWrite)/mib/p.seqWrite, jobS
}

func (p *perLayer) metrics() []metric {
	span := func(name string) float64 { v, _ := p.tr.byName(name); return v }
	floorRatio := 0.0
	if floorS, jobS := p.ioFloor(); jobS > 0 {
		floorRatio = floorS / jobS
	}
	return []metric{
		{"colsort.ingest_s", span("colsort.ingest"), "s"},
		{"colsort.verify_s", span("colsort.verify"), "s"},
		{"colsort.egress_s", span("colsort.egress"), "s"},
		{"colsort.sink_busy_s", median(p.l.sinkBusy), "s"},
		{"colsort.alloc_mib_per_job", median(p.l.allocMiB), "MiB"},
		{"colsort.gc_per_job", median(p.l.gcs), "count"},
		{"core.pass1_s", span("core.pass1"), "s"},
		{"core.pass2_s", span("core.pass2"), "s"},
		{"core.pass3_s", span("core.pass3"), "s"},
		{"core.disk_mib", median(p.l.diskMiB), "MiB"},
		{"core.compare_munits", median(p.l.compareM), "Munits"},
		{"cluster.net_mib", median(p.l.netMiB), "MiB"},
		{"cluster.msgs", median(p.l.msgs), "count"},
		{"sortalg.column_sort_mrec_s", p.colSort, "Mrec/s"},
		{"pdm.seq_write_mib_s", p.seqWrite, "MiB/s"},
		{"pdm.seq_read_mib_s", p.seqRead, "MiB/s"},
		{"pdm.fsync_ms", p.fsyncMs, "ms"},
		{"pdm.floor_ratio", floorRatio, "ratio"},
		{"pdm.disk_retries", float64(p.l.retries), "count"},
		{"runform.formation_s", span("runform.formation"), "s"},
		{"runform.runs", median(p.l.runs), "count"},
		{"runform.run_len_over_h", median(p.l.runLenOverH), "ratio"},
		{"runform.fill_mrec_s", p.fill, "Mrec/s"},
		{"merge.level1_s", span("merge.level1"), "s"},
		{"merge.level2_s", span("merge.level2"), "s"},
		{"merge.levels", median(p.l.levels), "count"},
		{"merge.read_mib", median(p.l.mergeReadMiB), "MiB"},
		{"merge.write_mib", median(p.l.mergeWrite), "MiB"},
		{"merge.kway_mib_s", p.kway, "MiB/s"},
		{"record.codec_gib_s", p.codec, "GiB/s"},
		{"record.checksum_gib_s", p.checksum, "GiB/s"},
		{"manifest.overhead_s", p.manifestOverhead, "s"},
		{"server.upload_s", p.upload, "s"},
		{"server.first_body_byte_s", p.firstByte, "s"},
		{"server.download_s", p.download, "s"},
		{"server.overhead_s", p.serverOverhead, "s"},
		{"server.rejected_429", float64(p.rejected), "count"},
		{"trace.overhead_pct", 100 * (p.tracedP50 - p.untracedP50) / p.untracedP50, "%"},
	}
}

// printModeled prints the paper's cost-model estimate beside the measured
// job time it must never be mistaken for.
func printModeled(c config, modeled, measured float64) {
	fmt.Fprintf(c.out, "model.beowulf_s %.4f s  (MODELED, not measured: the paper's 2003 Beowulf cost model applied to the job's operation counts; the measured job p50 is %.4f s)\n",
		modeled, measured)
}

// printLayers prints the per-layer metrics, the self time of every span
// name and the floor comparisons.
func printLayers(c config, p *perLayer, ms []metric) {
	fmt.Fprintf(c.out, "per-layer (traced; 0 marks a layer this workload does not run):\n")
	for _, m := range ms {
		fmt.Fprintf(c.out, "  %-28s %12.6g %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(c.out, "tracing overhead: untraced p50 %.4f s, traced p50 %.4f s\n", p.untracedP50, p.tracedP50)
	self := p.tr.selfTimes()
	fmt.Fprintf(c.out, "span medians (duration / self time):\n")
	for _, name := range []string{"job", "request", "colsort.ingest", "core.pass1", "core.pass2", "core.pass3",
		"colsort.verify", "colsort.egress", "runform.formation", "merge.spill_sync", "merge.level1",
		"merge.level2", "server.upload", "server.wait", "server.first_body_byte", "server.download"} {
		if d, n := p.tr.byName(name); n > 0 {
			fmt.Fprintf(c.out, "  %-20s n=%-4d %9.4f s / %9.4f s\n", name, n, d, self[name])
		}
	}

	// Floors: the time each layer's work would take at its probe's rate,
	// over the time the traced jobs spent in that layer.
	n := float64(c.wl.records())
	floor := func(label string, floorS, actualS float64) {
		if floorS > 0 && actualS > 0 {
			fmt.Fprintf(c.out, "  %-34s floor %8.4f s / actual %8.4f s = %.3f\n", label, floorS, actualS, floorS/actualS)
		}
	}
	ioS, jobS := p.ioFloor()
	if len(p.l.modeled) > 0 {
		printModeled(c, median(p.l.modeled), jobS)
	}
	fmt.Fprintf(c.out, "floor ratios (floor time / measured time):\n")
	floor("pdm: job I/O at probe bandwidth", ioS, jobS)
	if p.colSort > 0 {
		var passes float64
		for _, k := range []string{"core.pass1", "core.pass2", "core.pass3"} {
			v, _ := p.tr.byName(k)
			passes += v
		}
		// The P processors sort in parallel on at most P cores.
		par := float64(min(procs, runtime.NumCPU()))
		floor("sortalg: 3 local sorts of N records", 3*n/1e6/p.colSort/par, passes)
	}
	if p.fill > 0 {
		v, _ := p.tr.byName("runform.formation")
		floor("runform: forming N records", n/1e6/p.fill, v)
	}
	if p.kway > 0 {
		v1, _ := p.tr.byName("merge.level1")
		v2, _ := p.tr.byName("merge.level2")
		floor("merge: bytes merged at k-way rate", median(p.l.mergeReadMiB)/p.kway, v1+v2)
	}
	if p.checksum > 0 {
		v, _ := p.tr.byName("colsort.ingest")
		floor("record: checksum of the input", float64(c.wl.inputBytes)/gib/p.checksum, v)
	}
}

// windowOver reports whether a window that has run el of its secs seconds,
// with done verified and failed jobs, should stop: after secs once it has
// minJobs jobs of either kind, and regardless after twice secs plus half a
// minute.
func windowOver(el, secs float64, done, failed, minJobs int) bool {
	return el >= secs && (done >= minJobs || failed >= minJobs || el >= 2*secs+30)
}

// finishTrace runs the floor probes, prints the per-layer metrics and
// writes the spans out.
func finishTrace(c config, p *perLayer) ([]metric, error) {
	if err := probe(c, p); err != nil {
		return nil, err
	}
	ms := p.metrics()
	printLayers(c, p, ms)
	if c.spansOut != "" {
		if err := p.tr.write(c.spansOut); err != nil {
			return nil, err
		}
		fmt.Fprintf(c.out, "spans: %d written to %s\n", len(p.tr.spans), c.spansOut)
	}
	return ms, nil
}

// runLimit bounds a whole run's jobs, so a hung job cannot keep the
// benchmark from exiting within its three minutes.
const runLimit = 150 * time.Second

func runCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), runLimit)
}

// settle returns freed memory to the operating system and restarts the
// peak-RSS mark, so input generation does not count as the program's.
func settle() error {
	runtime.GC()
	debug.FreeOSMemory()
	return resetPeakRSS()
}

// traceMinJobs is the fewest jobs a window of the traced run measures; it
// reports medians, not a tail.
const traceMinJobs = 5
