package main

import (
	"crypto/sha256"
	"encoding/json"
	"io"
	"os"
	"testing"
)

// tiny shrinks a workload to test size while keeping its path: a single
// run stays one run, and the merge workloads still form runs and merge.
func tiny(t *testing.T, name string) workload {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	switch {
	case w.http:
		w.inputBytes = 256 << 10
	case w.memPerProc < 16384:
		w.inputBytes, w.memPerProc = 4*mib, 256
	default:
		w.inputBytes, w.memPerProc = mib, 1024
	}
	return w
}

func tinyConfig(t *testing.T, w workload, trace bool) config {
	return config{wl: w, seed: 3, seconds: 0.01, trace: trace, setups: 1, minJobs: 1,
		commit: "test", out: io.Discard}
}

// benchmarkSpec is the part of BENCHMARK.json the runs must agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSpecNamesEveryWorkload(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
}

// TestTinyWorkloads passes each workload at test size through both the
// untraced and the traced run, and checks that every metric BENCHMARK.json
// declares is reported, with its unit, and nothing else.
func TestTinyWorkloads(t *testing.T) {
	s := loadSpec(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			c := tinyConfig(t, tiny(t, w.name), trace)
			out, err := run(c, t.TempDir())
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if out.failed != 0 || out.attempted < 2 {
				t.Errorf("%s trace=%v: %d of %d jobs failed", w.name, trace, out.failed, out.attempted)
			}
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			got := map[string]string{}
			for _, m := range out.metrics {
				got[m.name] = m.unit
			}
			if len(got) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w.name, trace, len(got), len(want))
			}
			for _, m := range want {
				if u, ok := got[m.Name]; !ok || u != m.Unit {
					t.Errorf("%s trace=%v: metric %s reported with unit %q, want %q", w.name, trace, m.Name, u, m.Unit)
				}
			}
			if !trace {
				for _, m := range out.metrics {
					if m.value <= 0 {
						t.Errorf("%s: end-to-end %s = %g, want > 0", w.name, m.name, m.value)
					}
				}
			}
		}
	}
}

// TestTracedLayers checks that the traced run sees each workload's layers.
func TestTracedLayers(t *testing.T) {
	want := map[string][]string{
		"single-run-64m":        {"colsort.ingest_s", "core.pass1_s", "core.pass3_s", "cluster.net_mib", "sortalg.column_sort_mrec_s"},
		"merge-64m":             {"runform.formation_s", "runform.fill_mrec_s", "merge.level1_s", "merge.level2_s", "merge.kway_mib_s"},
		"durable-presorted-64m": {"runform.formation_s", "merge.level1_s", "manifest.overhead_s"},
		"http-stream-8m":        {"server.upload_s", "server.first_body_byte_s", "server.download_s", "server.overhead_s", "colsort.ingest_s"},
	}
	for name, layers := range want {
		out, err := run(tinyConfig(t, tiny(t, name), true), t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := map[string]float64{}
		for _, m := range out.metrics {
			got[m.name] = m.value
		}
		for _, l := range layers {
			if got[l] == 0 {
				t.Errorf("%s: %s is 0; the traced run missed the layer", name, l)
			}
		}
		if name == "merge-64m" && got["merge.levels"] != 2 {
			t.Errorf("merge-64m: %g merge levels at test size, want 2", got["merge.levels"])
		}
		if name == "durable-presorted-64m" && got["runform.runs"] != 1 {
			t.Errorf("durable-presorted-64m: %g runs formed, want 1", got["runform.runs"])
		}
	}
}

// TestFlippedByteIsAnError corrupts one byte of every output, in the sink
// of a file workload and in the client of the HTTP one: each such job must
// count as failed, and the run as incorrect.
func TestFlippedByteIsAnError(t *testing.T) {
	for _, name := range []string{"single-run-64m", "merge-64m", "http-stream-8m"} {
		c := tinyConfig(t, tiny(t, name), false)
		c.flip = true
		out, err := run(c, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.attempted == 0 || out.failed != out.attempted {
			t.Errorf("%s: %d of %d corrupted jobs counted as failed", name, out.failed, out.attempted)
		}
	}
}

func TestTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: the helper must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n       int
		v, pct  float64
		wantErr bool
	}{
		{n: 0, v: 0, pct: 0, wantErr: true},
		{n: 10, v: 10, pct: 100, wantErr: true},
		{n: 11, v: 1, pct: 100.0 / 11},
		{n: 20, v: 10, pct: 50},
		{n: 100, v: 90, pct: 90},
		{n: 1000, v: 990, pct: 99},
	} {
		v, pct, ok := tail(seq(tc.n))
		if v != tc.v || pct != tc.pct || ok == tc.wantErr {
			t.Errorf("tail of 1..%d = %g at p%g (ok %v), want %g at p%g (ok %v)", tc.n, v, pct, ok, tc.v, tc.pct, !tc.wantErr)
		}
		// Exactly ten samples lie beyond the reported one.
		if ok {
			beyond := 0
			for _, x := range seq(tc.n) {
				if x > v {
					beyond++
				}
			}
			if beyond != tailBeyond {
				t.Errorf("tail of 1..%d: %d samples beyond it, want %d", tc.n, beyond, tailBeyond)
			}
		}
	}
}

// TestSeedDeterminesInputs checks that the seed alone fixes every input,
// that no input is already in its sorted order (so an output that merely
// copied its input fails the check), and that the streamed body of an
// input is the input.
func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range workloads {
		name := w.name
		w := tiny(t, name)
		a, b, c := makeInputs(w, 1), makeInputs(w, 1), makeInputs(w, 2)
		for i := range a {
			if a[i].inHash == a[i].refHash {
				t.Errorf("%s input %d is already sorted", name, i)
			}
			h := sha256.New()
			if _, err := io.Copy(h, w.body(1, i)); err != nil {
				t.Fatal(err)
			}
			if err := checkSum(h, a[i].inHash); err != nil {
				t.Errorf("%s input %d: streamed body: %v", name, i, err)
			}
			if a[i].inHash != b[i].inHash || a[i].refHash != b[i].refHash {
				t.Errorf("%s input %d: the same seed gave different inputs", name, i)
			}
			if a[i].inHash == c[i].inHash {
				t.Errorf("%s input %d: seeds 1 and 2 gave the same input", name, i)
			}
			for j := range a[:i] {
				if a[i].inHash == a[j].inHash {
					t.Errorf("%s: inputs %d and %d are the same", name, j, i)
				}
			}
		}
	}
}
