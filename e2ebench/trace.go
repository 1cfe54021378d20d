package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"colsort"
	"colsort/internal/record"
)

// span is one traced interval. Times are seconds since the tracer started;
// Parent is the ID of the span that caused it (0 for a root) and Job the
// job or request all spans of one operation share.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Job    int64   `json:"job"`
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory; write dumps them when the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records the span [start, end] and returns its ID. A zero start or
// end means the point was never reached, and nothing is recorded.
func (t *tracer) add(name string, parent int, job int64, start, end time.Time) int {
	if start.IsZero() || end.IsZero() || end.Before(start) {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: job, Name: name,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds()})
	return id
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// byName returns the median duration of the spans called name, and how many
// there were.
func (t *tracer) byName(name string) (float64, int) {
	var ds []float64
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, s.dur())
		}
	}
	return median(ds), len(ds)
}

// selfTimes returns, per span name, the median self time: a span's
// duration minus the part of its interval its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string][]float64{}
	for _, s := range t.spans {
		self[s.Name] = append(self[s.Name], s.dur()-covered(s, children[s.ID]))
	}
	out := map[string]float64{}
	for name, v := range self {
		out[name] = median(v)
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(p span, kids []span) float64 {
	iv := make([][2]float64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]float64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi float64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// jobTrace collects the timestamps of one traced Sort call, taken at the
// boundaries the public API exposes: the Source and Sink wrappers and the
// WithProgress events. Fields are written from the engine's goroutines and
// read after Sort returns.
type jobTrace struct {
	mu sync.Mutex

	srcOpen   time.Time // Source.Open
	lastRec   time.Time // the last input record was read: ingest ends
	sinkOpen  time.Time // Sink.Open
	sinkClose time.Time // RecordWriter.Close returned
	sinkBusy  time.Duration

	passStart, passEnd map[int]time.Time // single-run passes, from rank 0's events
	formEnd            time.Time         // last run-formation event
}

func newJobTrace() *jobTrace {
	return &jobTrace{passStart: map[int]time.Time{}, passEnd: map[int]time.Time{}}
}

// progress is the WithProgress callback.
func (jt *jobTrace) progress(ev colsort.Progress) {
	now := time.Now()
	jt.mu.Lock()
	defer jt.mu.Unlock()
	switch {
	case ev.Pass > 0 && ev.Batches == 0 && ev.Round == 0:
		if _, ok := jt.passStart[ev.Pass]; !ok {
			jt.passStart[ev.Pass] = now
		}
	case ev.Pass > 0 && ev.Batches == 0 && ev.Round == ev.Rounds:
		jt.passEnd[ev.Pass] = now
	case ev.Pass == 0 && ev.FormedRecords > 0:
		jt.formEnd = now
	}
}

// source wraps src so the trace sees Open and the last record read.
func (jt *jobTrace) source(src colsort.Source) colsort.Source { return tracedSource{src, jt} }

// sink wraps dst so the trace sees Open, Close and the time spent inside
// the writer.
func (jt *jobTrace) sink(dst colsort.Sink) colsort.Sink { return tracedSink{dst, jt} }

type tracedSource struct {
	inner colsort.Source
	jt    *jobTrace
}

func (s tracedSource) Open(z int) (int64, colsort.RecordReader, error) {
	s.jt.mu.Lock()
	s.jt.srcOpen = time.Now()
	s.jt.mu.Unlock()
	n, rd, err := s.inner.Open(z)
	if err != nil {
		return n, rd, err
	}
	return n, &tracedReader{inner: rd, left: n, jt: s.jt}, nil
}

type tracedReader struct {
	inner colsort.RecordReader
	left  int64
	jt    *jobTrace
}

func (r *tracedReader) ReadRecord(rec []byte) error {
	err := r.inner.ReadRecord(rec)
	if r.left--; r.left == 0 {
		r.jt.mu.Lock()
		r.jt.lastRec = time.Now()
		r.jt.mu.Unlock()
	}
	return err
}

func (r *tracedReader) Close() error { return r.inner.Close() }

type tracedSink struct {
	inner colsort.Sink
	jt    *jobTrace
}

func (s tracedSink) Open(z int) (colsort.RecordWriter, error) {
	s.jt.mu.Lock()
	s.jt.sinkOpen = time.Now()
	s.jt.mu.Unlock()
	w, err := s.inner.Open(z)
	if err != nil {
		return w, err
	}
	return &tracedWriter{inner: w, jt: s.jt}, nil
}

type tracedWriter struct {
	inner colsort.RecordWriter
	jt    *jobTrace
}

func (w *tracedWriter) Write(recs record.Slice) error {
	t := time.Now()
	err := w.inner.Write(recs)
	w.busy(t)
	return err
}

func (w *tracedWriter) Close() error {
	t := time.Now()
	err := w.inner.Close()
	w.busy(t)
	w.jt.mu.Lock()
	w.jt.sinkClose = time.Now()
	w.jt.mu.Unlock()
	return err
}

func (w *tracedWriter) busy(since time.Time) {
	d := time.Since(since)
	w.jt.mu.Lock()
	w.jt.sinkBusy += d
	w.jt.mu.Unlock()
}

// record turns the job's timestamps into spans under a root "job" span
// covering [start, end]. hier marks a sort that formed runs and merged
// them; levels is its merge depth.
func (jt *jobTrace) record(t *tracer, job int64, start, end time.Time, hier bool, levels int) {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	root := t.add("job", 0, job, start, end)
	if !hier {
		t.add("colsort.ingest", root, job, jt.srcOpen, jt.lastRec)
		var lastEnd time.Time
		for p, s := range jt.passStart {
			e := jt.passEnd[p]
			t.add(fmt.Sprintf("core.pass%d", p), root, job, s, e)
			if e.After(lastEnd) {
				lastEnd = e
			}
		}
		t.add("colsort.verify", root, job, lastEnd, jt.sinkOpen)
		t.add("colsort.egress", root, job, jt.sinkOpen, jt.sinkClose)
		return
	}
	t.add("runform.formation", root, job, jt.srcOpen, jt.formEnd)
	// Levels are numbered from the first. The last merges straight into
	// the sink, which it opens first; every level before it writes runs and
	// is covered by one span. A one-level merge has only the spill's sync
	// and manifest work between formation and the sink.
	if levels >= 2 {
		t.add("merge.level1", root, job, jt.formEnd, jt.sinkOpen)
		t.add("merge.level2", root, job, jt.sinkOpen, jt.sinkClose)
		return
	}
	t.add("merge.spill_sync", root, job, jt.formEnd, jt.sinkOpen)
	t.add("merge.level1", root, job, jt.sinkOpen, jt.sinkClose)
}
