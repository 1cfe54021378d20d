package colsort

// Tests of the hierarchical (above-bound) Sort path: replacement-selection
// run formation, spilled sorted runs, and the streaming k-way merge.
//
// The acceptance bar (ISSUE 4): a file-backed input at least 3× larger than
// the largest single-run bound sorts via Sorter.Sort with output
// byte-identical to a reference sort, under ascending AND descending
// KeySpecs, and a mid-merge cancel unwinds leak-free.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"colsort/internal/record"
	"colsort/internal/testutil"
)

// refSortBytes returns the byte-identical expected output of sorting raw
// under ks: the engine's total order is plain bytes.Compare over
// codec-normalized records (field order first, deterministic tie-break on
// the remaining bytes), decoded back to the caller's layout.
func refSortBytes(t testing.TB, raw []byte, z int, ks KeySpec) []byte {
	t.Helper()
	codec, err := ks.Compile(z)
	if err != nil {
		t.Fatal(err)
	}
	enc := record.NewSlice(append([]byte(nil), raw...), z)
	codec.Encode(enc)
	n := enc.Len()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return bytes.Compare(enc.Record(idx[a]), enc.Record(idx[b])) < 0
	})
	out := record.Make(n, z)
	for i, j := range idx {
		out.CopyRecord(i, enc, j)
	}
	codec.Decode(out)
	return out.Data
}

// genRaw builds n records of z bytes from the given generator.
func genRaw(n, z int, g record.Generator) []byte {
	raw := make([]byte, n*z)
	for i := 0; i < n; i++ {
		g.Gen(raw[i*z:(i+1)*z], int64(i))
	}
	return raw
}

// staircase reorders raw into consecutive segments of the given record
// counts, each ascending and each sorting entirely below the segment before
// it. When every segment but the last holds at least the formation memory H
// (MergeStats.RunRecords), replacement selection forms exactly one run per
// segment: each arrival from the next segment sorts below the current run
// and waits for the next one. Tests that need exact run counts and sizes
// build their input with it.
func staircase(t testing.TB, raw []byte, z int, sizes []int) []byte {
	t.Helper()
	sorted := refSortBytes(t, raw, z, KeySpec{})
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total*z != len(sorted) {
		t.Fatalf("staircase segments hold %d records, the input %d", total, len(sorted)/z)
	}
	out := make([]byte, 0, len(sorted))
	hi := total
	for _, s := range sizes {
		out = append(out, sorted[(hi-s)*z:hi*z]...)
		hi -= s
	}
	return out
}

// TestHierarchicalFileBacked3x is the acceptance test: a file-backed input
// more than 3× the largest single-run bound, sorted through FromFile/ToFile
// under ascending and descending KeySpecs, byte-identical to the reference.
func TestHierarchicalFileBacked3x(t *testing.T) {
	const p, mem, z = 4, 256, 32
	s, err := New(Config{Procs: p, MemPerProc: mem, RecordSize: z})
	if err != nil {
		t.Fatal(err)
	}
	bound := s.MaxRecords(Threaded)
	n := int(3*bound) + 123 // >3× the bound, non-power-of-two tail
	raw := genRaw(n, z, record.Uniform{Seed: 21})

	for _, order := range []Order{Ascending, Descending} {
		order := order
		t.Run(fmt.Sprintf("%v/replacement-select", order), func(t *testing.T) {
			dir := t.TempDir()
			testutil.CheckLeaks(t, filepath.Join(dir, "scratch"))
			in := filepath.Join(dir, "in.dat")
			out := filepath.Join(dir, "out.dat")
			if err := os.WriteFile(in, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			fs, err := New(Config{Procs: p, MemPerProc: mem, RecordSize: z,
				Dir: filepath.Join(dir, "scratch"), Async: true})
			if err != nil {
				t.Fatal(err)
			}
			ks := KeySpec{Offset: 8, Width: 8, Order: order}
			res, err := fs.Sort(context.Background(), FromFile(in), ToFile(out),
				WithAlgorithm(Threaded), WithKeySpec(ks))
			if err != nil {
				t.Fatal(err)
			}
			defer res.Close()
			if res.Merge == nil {
				t.Fatal("above-bound sort did not take the hierarchical path")
			}
			// Every run but the last holds at least RunRecords records, so
			// ⌈n / RunRecords⌉ bounds the run count.
			maxRuns := (int64(n) + res.Merge.RunRecords - 1) / res.Merge.RunRecords
			if int64(res.Merge.Runs) > maxRuns {
				t.Errorf("formed %d runs, more than the bound %d (run size %d)", res.Merge.Runs, maxRuns, res.Merge.RunRecords)
			}
			if res.RealRecords() != int64(n) {
				t.Errorf("RealRecords = %d, want %d", res.RealRecords(), n)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, refSortBytes(t, raw, z, ks)) {
				t.Error("hierarchical output is not byte-identical to the reference sort")
			}
		})
	}
}

// TestHierarchicalCancelMidMerge cancels during the k-way merge phase (a
// merge progress event proves the merge is live): the sort must unwind with
// context.Canceled, no goroutine leaks, and no scratch or spill files.
func TestHierarchicalCancelMidMerge(t *testing.T) {
	dir := t.TempDir()
	testutil.CheckLeaks(t, dir)
	const p, mem, z = 4, 256, 32
	s, err := New(Config{Procs: p, MemPerProc: mem, RecordSize: z, Dir: dir, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	bound := s.MaxRecords(Threaded)
	n := 4 * bound
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	sawMerge := false
	res, err := s.Sort(ctx, Generate(record.Uniform{Seed: 5}, n), Discard(),
		WithAlgorithm(Threaded),
		WithProgress(func(ev Progress) {
			if ev.Pass == 0 && ev.MergedRecords > 0 { // the k-way merge is running
				sawMerge = true
				once.Do(cancel)
			}
		}))
	if err == nil {
		res.Close()
		t.Fatal("cancelled hierarchical sort returned no error")
	}
	if !sawMerge {
		t.Fatal("no merge progress event observed before the failure")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want errors.Is(err, context.Canceled)", err)
	}

	// The sorter remains usable after the cancelled hierarchical run.
	var out bytes.Buffer
	ok, err := s.Sort(context.Background(), Generate(record.Uniform{Seed: 6}, 2*bound), ToWriter(&out))
	if err != nil {
		t.Fatalf("Sort after cancel: %v", err)
	}
	ok.Close()
}

// TestHierarchicalFanInLevels forces a multi-level merge tree (fan-in 2
// over 6 runs of duplicate-heavy records) and checks the output still
// matches the reference exactly.
func TestHierarchicalFanInLevels(t *testing.T) {
	testutil.CheckGoroutines(t)
	const p, mem, z = 4, 256, 16
	s, err := New(Config{Procs: p, MemPerProc: mem, RecordSize: z})
	if err != nil {
		t.Fatal(err)
	}
	bound := s.MaxRecords(Threaded)
	sizes := []int{int(bound), int(bound), int(bound), int(bound), int(bound), int(bound)}
	raw := staircase(t, genRaw(6*int(bound), z, record.Zipf{Seed: 8}), z, sizes)
	var out bytes.Buffer
	res, err := s.Sort(context.Background(), FromBytes(raw), ToWriter(&out),
		WithAlgorithm(Threaded), WithMergeFanIn(2))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if res.Merge.Runs != 6 {
		t.Fatalf("formed %d runs from a 6-step staircase, want 6", res.Merge.Runs)
	}
	if res.Merge.Levels != 3 {
		t.Errorf("merge tree has %d levels, want 3 with fan-in 2 over 6 equal runs", res.Merge.Levels)
	}
	if !bytes.Equal(out.Bytes(), refSortBytes(t, raw, z, KeySpec{})) {
		t.Error("multi-level merge output differs from the reference sort")
	}
}

// TestMergeSchedule pins the optimum merge pattern: the first merge takes
// the ((B−2) mod (k−1))+2 smallest runs, every later one the k smallest,
// ties to the earlier position, until at most k runs remain.
func TestMergeSchedule(t *testing.T) {
	equal := func(b int) []int64 {
		s := make([]int64, b)
		for i := range s {
			s[i] = 1
		}
		return s
	}
	for _, c := range []struct {
		name  string
		sizes []int64
		fanIn int
		steps [][]int
		total int64
		depth int
	}{
		{"one run", []int64{10}, 4, nil, 10, 1},
		{"fits the fan-in", []int64{4, 4, 4, 4}, 4, nil, 16, 1},
		// Level by level would merge runs 0..3 (32 records) and pass run 4
		// through; the optimum merges only the two smallest (12).
		{"5 runs at fan-in 4", []int64{8, 8, 8, 8, 4}, 4, [][]int{{4, 0}}, 12 + 36, 2},
		{"fan-in 2", equal(6), 2, [][]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}}, 2 + 2 + 2 + 4 + 6, 3},
	} {
		p := mergeSchedule(c.sizes, c.fanIn)
		if fmt.Sprint(p.steps) != fmt.Sprint(c.steps) || p.total != c.total || p.depth != c.depth {
			t.Errorf("%s: plan steps=%v total=%d depth=%d, want steps=%v total=%d depth=%d",
				c.name, p.steps, p.total, p.depth, c.steps, c.total, c.depth)
		}
	}
	// The merge-64m shape: 33 runs at fan-in 16 rewrite 3+16 runs in two
	// merges, where level by level rewrites 32.
	p := mergeSchedule(equal(33), 16)
	if len(p.steps) != 2 || len(p.steps[0]) != 3 || len(p.steps[1]) != 16 || p.total != 3+16+33 || p.depth != 2 {
		t.Errorf("33 runs at fan-in 16: %d steps %v, total %d, depth %d; want merges of 3 and 16, total 52, depth 2",
			len(p.steps), p.steps, p.total, p.depth)
	}
}

// TestMinimumVolumeMerge sorts 4.5 runs' worth of records at fan-in 4, where
// the optimum schedule (merge the half run with one full run first) differs
// from level by level (merge four full runs first): the bytes written must
// be the optimum's, merge progress must end exactly at the advertised
// total, and the output must be byte-identical to a one-level merge.
func TestMinimumVolumeMerge(t *testing.T) {
	testutil.CheckGoroutines(t)
	const z = 16
	s, err := New(Config{Procs: 4, MemPerProc: 256, RecordSize: z})
	if err != nil {
		t.Fatal(err)
	}
	runN := int(s.MaxRecords(Threaded))
	n := 4*runN + runN/2
	raw := staircase(t, genRaw(n, z, record.Uniform{Seed: 21}), z, []int{runN, runN, runN, runN, runN / 2})

	var out bytes.Buffer
	var last Progress
	res, err := s.Sort(context.Background(), FromBytes(raw), ToWriter(&out),
		WithMergeFanIn(4),
		WithProgress(func(ev Progress) {
			if ev.MergedRecords > 0 {
				last = ev
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if res.Merge.Runs != 5 || res.Merge.RunRecords != int64(runN) || res.Merge.Levels != 2 {
		t.Fatalf("%d runs of %d records, %d levels; want 5 runs of %d records, 2 levels",
			res.Merge.Runs, res.Merge.RunRecords, res.Merge.Levels, runN)
	}
	// Formation spills n records, the one intermediate merge rewrites the
	// half run and one full run, the final merge emits n.
	if want := int64(n+runN+runN/2+n) * z; res.Merge.BytesWritten != want {
		t.Errorf("BytesWritten = %d, want the optimum schedule's %d", res.Merge.BytesWritten, want)
	}
	if want := int64(n + runN + runN/2); last.TotalRecords != want || last.MergedRecords != want {
		t.Errorf("merge progress ends at %d of %d, want %d of %d", last.MergedRecords, last.TotalRecords, want, want)
	}

	var one bytes.Buffer
	res1, err := s.Sort(context.Background(), FromBytes(raw), ToWriter(&one))
	if err != nil {
		t.Fatal(err)
	}
	defer res1.Close()
	if res1.Merge.Levels != 1 {
		t.Fatalf("default fan-in merged 5 runs in %d levels, want 1", res1.Merge.Levels)
	}
	if !bytes.Equal(out.Bytes(), one.Bytes()) {
		t.Error("scheduled merge output differs from the one-level merge's")
	}
	if !bytes.Equal(out.Bytes(), refSortBytes(t, raw, z, KeySpec{})) {
		t.Error("scheduled merge output differs from the reference sort")
	}
}

// TestWithMaxMemoryForcesRuns caps the run size below an otherwise
// plannable n: the sort must take the hierarchical path and still produce
// the reference output.
func TestWithMaxMemoryForcesRuns(t *testing.T) {
	testutil.CheckGoroutines(t)
	const p, mem, z = 2, 256, 16
	s, err := New(Config{Procs: p, MemPerProc: mem, RecordSize: z})
	if err != nil {
		t.Fatal(err)
	}
	const n = 2048 // within the threaded bound for this config
	if _, err := s.Plan(Threaded, n); err != nil {
		t.Fatalf("n=%d should be single-run plannable: %v", n, err)
	}
	raw := genRaw(n, z, record.Dup{Seed: 4})
	var out bytes.Buffer
	res, err := s.Sort(context.Background(), FromBytes(raw), ToWriter(&out),
		WithAlgorithm(Threaded), WithMaxMemory(int64(n/4)*z))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if res.Merge == nil {
		t.Fatal("WithMaxMemory did not force run formation")
	}
	if res.Merge.RunRecords != n/4 {
		t.Errorf("formation memory %d records, want the cap's %d", res.Merge.RunRecords, n/4)
	}
	if res.Merge.Runs < 1 || res.Merge.Runs > 4 {
		t.Fatalf("formed %d runs, want 1..4: %+v", res.Merge.Runs, res.Merge)
	}
	if !bytes.Equal(out.Bytes(), refSortBytes(t, raw, z, KeySpec{})) {
		t.Error("memory-capped output differs from the reference sort")
	}
}

// TestHierarchicalRequiresSink pins the contract that an above-bound sort
// cannot run with a nil Sink — the merged output exists only as a stream.
func TestHierarchicalRequiresSink(t *testing.T) {
	const p, mem, z = 4, 256, 16
	s, err := New(Config{Procs: p, MemPerProc: mem, RecordSize: z})
	if err != nil {
		t.Fatal(err)
	}
	n := 3 * s.MaxRecords(Threaded)
	_, err = s.Sort(context.Background(), Generate(record.Uniform{Seed: 1}, n), nil)
	if err == nil {
		t.Fatal("above-bound sort with nil Sink succeeded")
	}
	if !errors.Is(err, ErrSinkRequired) {
		t.Errorf("err = %v, want errors.Is(err, ErrSinkRequired)", err)
	}
	// Legacy callers branch on the sentinel: the nil-Sink failure is still
	// fundamentally "n exceeds the bound" and must keep matching it.
	if !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want errors.Is(err, ErrTooLarge)", err)
	}
}

// TestHierarchicalProgress pins the hierarchical progress families on an
// input of exactly three runs: formation events tagged with Batch 1..3 in
// order, then merge events tagged with Batches 3 whose MergedRecords climb
// monotonically to n.
func TestHierarchicalProgress(t *testing.T) {
	const p, mem, z = 4, 256, 16
	s, err := New(Config{Procs: p, MemPerProc: mem, RecordSize: z})
	if err != nil {
		t.Fatal(err)
	}
	bound := s.MaxRecords(Threaded)
	n := 3 * bound
	b := int(bound)
	raw := staircase(t, genRaw(int(n), z, record.Uniform{Seed: 2}), z, []int{b, b, b})
	var batchSeen []int
	var formed, merged []int64
	res, err := s.Sort(context.Background(), FromBytes(raw), Discard(),
		WithProgress(func(ev Progress) {
			if ev.Pass > 0 {
				t.Errorf("engine pass event %+v on the hierarchical path", ev)
				return
			}
			if ev.TotalRecords != n {
				t.Errorf("event TotalRecords = %d, want %d", ev.TotalRecords, n)
			}
			if ev.FormedRecords > 0 {
				if len(batchSeen) == 0 || batchSeen[len(batchSeen)-1] != ev.Batch {
					batchSeen = append(batchSeen, ev.Batch)
				}
				formed = append(formed, ev.FormedRecords)
				return
			}
			if ev.Batches != 3 {
				t.Errorf("merge event with Batches = %d, want 3", ev.Batches)
			}
			merged = append(merged, ev.MergedRecords)
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if res.Merge.Runs != 3 {
		t.Fatalf("formed %d runs from a 3-step staircase, want 3", res.Merge.Runs)
	}
	if want := []int{1, 2, 3}; fmt.Sprint(batchSeen) != fmt.Sprint(want) {
		t.Errorf("batch sequence %v, want %v", batchSeen, want)
	}
	if len(formed) == 0 || formed[len(formed)-1] != n {
		t.Errorf("formation progress %v does not end at %d", formed, n)
	}
	if len(merged) == 0 || merged[len(merged)-1] != n {
		t.Errorf("merge progress %v does not end at %d", merged, n)
	}
	for i := 1; i < len(merged); i++ {
		if merged[i] < merged[i-1] {
			t.Errorf("merge progress not monotone: %v", merged)
		}
	}
}

// TestPlanHierarchical pins the planning API against what Sort actually
// executes: the same run plan, and a batch count that bounds the runs
// formed — reached exactly by an input of that many staircase steps.
func TestPlanHierarchical(t *testing.T) {
	const p, mem, z = 4, 256, 16
	s, err := New(Config{Procs: p, MemPerProc: mem, RecordSize: z})
	if err != nil {
		t.Fatal(err)
	}
	bound := s.MaxRecords(Threaded)
	n := 3*bound + 7
	runPl, batches, err := s.PlanHierarchical(Threaded, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	if runPl.N != bound {
		t.Errorf("planned run of %d records, want the bound %d", runPl.N, bound)
	}
	if batches != 4 {
		t.Errorf("planned %d batches, want 4", batches)
	}
	b := int(bound)
	raw := staircase(t, genRaw(int(n), z, record.Uniform{Seed: 3}), z, []int{b, b, b, 7})
	res, err := s.Sort(context.Background(), FromBytes(raw), Discard())
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if int64(res.Merge.Runs) != int64(batches) || res.Merge.RunRecords != runPl.N {
		t.Errorf("Sort executed %d runs × %d, PlanHierarchical said ≤ %d × %d",
			res.Merge.Runs, res.Merge.RunRecords, batches, runPl.N)
	}
	// On random input the planned batch count is a worst-case bound, not an
	// exact prediction.
	rs, err := s.Sort(context.Background(), Generate(record.Uniform{Seed: 3}, n), Discard())
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if int64(rs.Merge.Runs) > int64(batches) {
		t.Errorf("replacement selection formed %d runs, above the planned bound %d", rs.Merge.Runs, batches)
	}
	// The capped form must agree with WithMaxMemory's batch sizing.
	if _, capped, err := s.PlanHierarchical(Threaded, 2048, 1024*z); err != nil || capped != 2 {
		t.Errorf("capped plan = %d batches (%v), want 2", capped, err)
	}
	if _, _, err := s.PlanHierarchical(Threaded, n, 1); err == nil {
		t.Error("a 1-byte run cap planned successfully")
	}
}

// TestHierarchicalOptionValidation covers the new options' error paths.
func TestHierarchicalOptionValidation(t *testing.T) {
	s, err := New(Config{Procs: 2, MemPerProc: 256, RecordSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	src := Generate(record.Uniform{Seed: 1}, 1024)
	if _, err := s.Sort(context.Background(), src, nil, WithMergeFanIn(1)); err == nil {
		t.Error("WithMergeFanIn(1) accepted")
	}
	if _, err := s.Sort(context.Background(), src, nil, WithMaxMemory(-5)); err == nil {
		t.Error("WithMaxMemory(-5) accepted")
	}
	// A cap too small for even one column must fail with the sentinel.
	if _, err := s.Sort(context.Background(), src, Discard(), WithMaxMemory(16)); !errors.Is(err, ErrMemoryTooSmall) {
		t.Errorf("tiny cap error = %v, want errors.Is(err, ErrMemoryTooSmall)", err)
	}
}

// TestReplacementSelectFewerRuns is the run-length acceptance test: on
// uniform random input well above the bound, replacement selection must form
// at most 0.6× the ⌈n/H⌉ runs of H-record batches (theory says ~0.5×), with
// output byte-identical to the reference sort.
func TestReplacementSelectFewerRuns(t *testing.T) {
	testutil.CheckGoroutines(t)
	const p, mem, z = 4, 256, 16
	s, err := New(Config{Procs: p, MemPerProc: mem, RecordSize: z})
	if err != nil {
		t.Fatal(err)
	}
	bound := s.MaxRecords(Threaded)
	n := int(16*bound) + 123
	raw := genRaw(n, z, record.Uniform{Seed: 17})
	var out bytes.Buffer
	res, err := s.Sort(context.Background(), FromBytes(raw), ToWriter(&out),
		WithAlgorithm(Threaded))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	rs := res.Merge
	if !bytes.Equal(out.Bytes(), refSortBytes(t, raw, z, KeySpec{})) {
		t.Error("output differs from the reference sort")
	}
	batches := (int64(n) + rs.RunRecords - 1) / rs.RunRecords
	if int64(rs.Runs)*10 > 6*batches {
		t.Errorf("replacement selection formed %d runs vs %d H-record batches; want ≤ 0.6×", rs.Runs, batches)
	}
	if rs.MaxRunRecords <= rs.RunRecords {
		t.Errorf("longest run is %d records, no longer than the %d-record working set", rs.MaxRunRecords, rs.RunRecords)
	}
	if rs.MinRunRecords < 1 || rs.MinRunRecords > rs.MaxRunRecords {
		t.Errorf("run-length stats inconsistent: min %d, max %d", rs.MinRunRecords, rs.MaxRunRecords)
	}
}

// TestReplacementSelectNearlySorted pins the production win: inputs that are
// already nearly sorted — ascending or descending — collapse to at most two
// runs regardless of how far above the bound they are.
func TestReplacementSelectNearlySorted(t *testing.T) {
	testutil.CheckGoroutines(t)
	const p, mem, z = 4, 256, 16
	s, err := New(Config{Procs: p, MemPerProc: mem, RecordSize: z})
	if err != nil {
		t.Fatal(err)
	}
	bound := s.MaxRecords(Threaded)
	n := int(6 * bound)
	cases := []struct {
		name string
		gen  record.Generator
		down bool
	}{
		{"nearly-sorted-asc", record.NearlySorted{Seed: 9, Window: 64}, false},
		{"nearly-sorted-desc", record.NearlyReverse{Seed: 9, Window: 64}, true},
		{"k-disordered", record.Disordered{Seed: 9, K: 32}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw := genRaw(n, z, tc.gen)
			var out bytes.Buffer
			res, err := s.Sort(context.Background(), FromBytes(raw), ToWriter(&out),
				WithAlgorithm(Threaded))
			if err != nil {
				t.Fatal(err)
			}
			defer res.Close()
			if res.Merge.Runs > 2 {
				t.Errorf("%s input formed %d runs, want ≤ 2", tc.name, res.Merge.Runs)
			}
			if tc.down && res.Merge.DownRuns < 1 {
				t.Errorf("descending input formed no descending runs: %+v", res.Merge)
			}
			if !bytes.Equal(out.Bytes(), refSortBytes(t, raw, z, KeySpec{})) {
				t.Error("output differs from the reference sort")
			}
		})
	}
}

// TestReplacementSelectProgress pins the formation-phase progress family:
// events tagged with Batch (the run index) and FormedRecords climbing to n,
// followed by merge events with monotone MergedRecords.
func TestReplacementSelectProgress(t *testing.T) {
	const p, mem, z = 4, 256, 16
	s, err := New(Config{Procs: p, MemPerProc: mem, RecordSize: z})
	if err != nil {
		t.Fatal(err)
	}
	bound := s.MaxRecords(Threaded)
	n := 3 * bound
	var formed []int64
	var runIdx []int
	var merged []int64
	res, err := s.Sort(context.Background(), Generate(record.Uniform{Seed: 2}, n), Discard(),
		WithProgress(func(ev Progress) {
			switch {
			case ev.FormedRecords > 0:
				if ev.TotalRecords != n {
					t.Errorf("formation event TotalRecords = %d, want %d", ev.TotalRecords, n)
				}
				formed = append(formed, ev.FormedRecords)
				if len(runIdx) == 0 || runIdx[len(runIdx)-1] != ev.Batch {
					runIdx = append(runIdx, ev.Batch)
				}
			case ev.MergedRecords > 0:
				merged = append(merged, ev.MergedRecords)
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if len(formed) == 0 || formed[len(formed)-1] != n {
		t.Errorf("formation progress %v does not end at %d", formed, n)
	}
	for i := 1; i < len(formed); i++ {
		if formed[i] <= formed[i-1] {
			t.Errorf("formation progress not strictly increasing: %v", formed)
		}
	}
	for i, r := range runIdx {
		if r != i+1 {
			t.Errorf("run indices %v are not 1..%d", runIdx, len(runIdx))
			break
		}
	}
	if len(runIdx) != res.Merge.Runs {
		t.Errorf("saw %d distinct run indices, Merge.Runs = %d", len(runIdx), res.Merge.Runs)
	}
	if len(merged) == 0 || merged[len(merged)-1] != n {
		t.Errorf("merge progress %v does not end at %d", merged, n)
	}
}

// TestMergeProgressMonotoneMultiLevel pins the cumulative merge progress
// across a multi-level tree: one nondecreasing MergedRecords sequence with a
// constant TotalRecords covering every intermediate merge plus the final one.
func TestMergeProgressMonotoneMultiLevel(t *testing.T) {
	testutil.CheckGoroutines(t)
	const p, mem, z = 4, 256, 16
	s, err := New(Config{Procs: p, MemPerProc: mem, RecordSize: z})
	if err != nil {
		t.Fatal(err)
	}
	bound := s.MaxRecords(Threaded)
	n := 8 * bound
	var merged []int64
	var total int64
	res, err := s.Sort(context.Background(), Generate(record.Uniform{Seed: 11}, n), Discard(),
		WithAlgorithm(Threaded), WithMergeFanIn(2),
		WithProgress(func(ev Progress) {
			if ev.Pass == 0 && ev.MergedRecords > 0 {
				if total == 0 {
					total = ev.TotalRecords
				} else if ev.TotalRecords != total {
					t.Errorf("merge TotalRecords changed mid-stream: %d then %d", total, ev.TotalRecords)
				}
				merged = append(merged, ev.MergedRecords)
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if res.Merge.Levels < 2 {
		t.Fatalf("merge tree has %d levels, want ≥ 2 (the test needs intermediate merges)", res.Merge.Levels)
	}
	// The cumulative total covers intermediate merge output plus the final
	// merge's n records — strictly more than n with ≥ 2 levels.
	if total <= n {
		t.Errorf("cumulative merge total = %d, want > %d with intermediate levels", total, n)
	}
	for i := 1; i < len(merged); i++ {
		if merged[i] < merged[i-1] {
			t.Fatalf("merge progress not monotone at %d: %d then %d", i, merged[i-1], merged[i])
		}
	}
	if len(merged) == 0 || merged[len(merged)-1] != total {
		t.Errorf("merge progress ends at %d, want the advertised total %d", merged[len(merged)-1], total)
	}
}
