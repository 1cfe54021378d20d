package runform

import (
	"bytes"
	"errors"
	"sort"
	"testing"

	"colsort/internal/record"
)

// sliceReader feeds the records of s to a Former one at a time.
func sliceReader(s record.Slice) func(rec []byte) (bool, error) {
	i := 0
	return func(rec []byte) (bool, error) {
		if i >= s.Len() {
			return false, nil
		}
		copy(rec, s.Record(i))
		i++
		return true, nil
	}
}

type formedRun struct {
	desc bool
	recs record.Slice
}

// former is the driving surface the Former and the reference heapFormer
// share.
type former interface {
	NextRun() (desc, ok bool, err error)
	Fill(out record.Slice) (int, error)
	BreakRun()
}

// formRuns drives f to exhaustion through a bufRecs-record buffer and
// returns every run it emits. With breakAt > 0 a run is cut by BreakRun once
// it reaches breakAt records, checked after each Fill the way the
// hierarchical sort bounds a retained run.
func formRuns(f former, bufRecs, z int, breakAt int) ([]formedRun, error) {
	buf := record.Make(bufRecs, z)
	var runs []formedRun
	for {
		desc, ok, err := f.NextRun()
		if err != nil || !ok {
			return runs, err
		}
		var out bytes.Buffer
		for {
			n, err := f.Fill(buf)
			if err != nil {
				return runs, err
			}
			if n == 0 {
				break
			}
			out.Write(buf.Sub(0, n).Data)
			if breakAt > 0 && out.Len() >= breakAt*z {
				f.BreakRun()
			}
		}
		runs = append(runs, formedRun{desc: desc, recs: record.NewSlice(out.Bytes(), z)})
	}
}

// formAll drives a Former to exhaustion and returns every run it emits.
func formAll(t *testing.T, capacity int, in record.Slice) []formedRun {
	t.Helper()
	f := New(capacity, in.Size, nil, sliceReader(in))
	defer f.Close()
	runs, err := formRuns(f, 64, in.Size, 0)
	if err != nil {
		t.Fatal(err)
	}
	return runs
}

// checkRuns verifies every run is monotone in its declared direction and
// that the emitted multiset is exactly the input.
func checkRuns(t *testing.T, in record.Slice, runs []formedRun) {
	t.Helper()
	total := 0
	var all bytes.Buffer
	for i, r := range runs {
		if r.recs.Len() == 0 {
			t.Fatalf("run %d is empty", i)
		}
		for j := 1; j < r.recs.Len(); j++ {
			c := bytes.Compare(r.recs.Record(j-1), r.recs.Record(j))
			if r.desc && c < 0 {
				t.Fatalf("run %d (descending) ascends at record %d", i, j)
			}
			if !r.desc && c > 0 {
				t.Fatalf("run %d (ascending) descends at record %d", i, j)
			}
		}
		total += r.recs.Len()
		all.Write(r.recs.Data)
	}
	if total != in.Len() {
		t.Fatalf("runs hold %d records, input had %d", total, in.Len())
	}
	got := record.NewSlice(all.Bytes(), in.Size)
	ref := record.Make(in.Len(), in.Size)
	ref.Copy(in)
	sortSlice(got)
	sortSlice(ref)
	if !bytes.Equal(got.Data, ref.Data) {
		t.Fatal("emitted records are not a permutation of the input")
	}
}

func sortSlice(s record.Slice) {
	n := s.Len()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return bytes.Compare(s.Record(idx[a]), s.Record(idx[b])) < 0
	})
	out := record.Make(n, s.Size)
	for i, j := range idx {
		out.CopyRecord(i, s, j)
	}
	copy(s.Data, out.Data)
}

// TestRandomRunsNearTwiceCapacity pins the headline property: on random
// input, replacement selection forms runs averaging ~2× the heap capacity,
// so clearly fewer runs than the n/capacity fixed batches.
func TestRandomRunsNearTwiceCapacity(t *testing.T) {
	const n, capacity, z = 10000, 500, 16
	in := record.Make(n, z)
	record.Fill(in, record.Uniform{Seed: 42}, 0)
	runs := formAll(t, capacity, in)
	checkRuns(t, in, runs)
	fixed := n / capacity // 20
	if len(runs) > fixed*65/100 {
		t.Fatalf("random input formed %d runs; want ≤ 0.65× the %d fixed batches", len(runs), fixed)
	}
}

// TestSortedInputSingleAscendingRun: already-sorted input must collapse to
// one ascending run regardless of capacity.
func TestSortedInputSingleAscendingRun(t *testing.T) {
	const n, z = 5000, 16
	in := record.Make(n, z)
	record.Fill(in, record.Sorted{}, 0)
	runs := formAll(t, 64, in)
	checkRuns(t, in, runs)
	if len(runs) != 1 || runs[0].desc {
		t.Fatalf("sorted input formed %d runs (desc=%v), want 1 ascending", len(runs), runs[0].desc)
	}
}

// TestReverseInputSingleDescendingRun: strictly descending input must be
// detected by the direction heuristic and collapse to one descending run.
func TestReverseInputSingleDescendingRun(t *testing.T) {
	const n, z = 5000, 16
	in := record.Make(n, z)
	for i := 0; i < n; i++ {
		in.SetKey(i, uint64(n-i))
	}
	runs := formAll(t, 64, in)
	checkRuns(t, in, runs)
	if len(runs) != 1 || !runs[0].desc {
		t.Fatalf("descending input formed %d runs, want 1 descending", len(runs))
	}
}

// TestNearlySortedStaysFewRuns: bounded-displacement disorder smaller than
// the heap is absorbed entirely (the emitted frontier trails the arrival
// frontier by ~capacity positions).
func TestNearlySortedStaysFewRuns(t *testing.T) {
	const n, z = 8000, 16
	in := record.Make(n, z)
	record.Fill(in, record.Disordered{Seed: 7, K: 32}, 0)
	runs := formAll(t, 256, in)
	checkRuns(t, in, runs)
	if len(runs) > 2 {
		t.Fatalf("k-disordered input (k≪capacity) formed %d runs, want ≤ 2", len(runs))
	}
}

// TestHeavyDuplicates: a tiny key universe must not break runs — equal
// records always extend (ties are ≥ / ≤, not strict).
func TestHeavyDuplicates(t *testing.T) {
	const n, z = 4000, 16
	in := record.Make(n, z)
	record.Fill(in, record.Dup{Seed: 3, K: 2}, 0)
	runs := formAll(t, 128, in)
	checkRuns(t, in, runs)
	if len(runs) > n/128 {
		t.Fatalf("duplicate-heavy input formed %d runs, want fewer than the %d fixed batches", len(runs), n/128)
	}
}

// TestEdgeSizes covers capacity ≥ n (one run), capacity 1 (degenerate),
// and an empty input (no runs).
func TestEdgeSizes(t *testing.T) {
	const z = 16
	in := record.Make(100, z)
	record.Fill(in, record.Uniform{Seed: 9}, 0)

	runs := formAll(t, 1000, in)
	checkRuns(t, in, runs)
	if len(runs) != 1 {
		t.Fatalf("capacity ≥ n formed %d runs, want 1", len(runs))
	}

	runs = formAll(t, 1, in)
	checkRuns(t, in, runs)

	empty := record.Make(0, z)
	f := New(8, z, nil, sliceReader(empty))
	defer f.Close()
	if _, ok, err := f.NextRun(); err != nil || ok {
		t.Fatalf("empty input: NextRun = (ok=%v, err=%v), want no run", ok, err)
	}
}

// TestReadErrorPropagates: input failures surface from NextRun (initial
// fill) and Fill (steady state) without corrupting internal state.
func TestReadErrorPropagates(t *testing.T) {
	boom := errors.New("input exploded")
	const z = 16
	fail := func(rec []byte) (bool, error) { return false, boom }
	f := New(8, z, nil, fail)
	defer f.Close()
	if _, _, err := f.NextRun(); !errors.Is(err, boom) {
		t.Fatalf("NextRun err = %v, want the input's error", err)
	}

	in := record.Make(50, z)
	record.Fill(in, record.Uniform{Seed: 1}, 0)
	next := sliceReader(in)
	n := 0
	flaky := func(rec []byte) (bool, error) {
		if n == 20 {
			return false, boom
		}
		n++
		return next(rec)
	}
	f2 := New(8, z, nil, flaky)
	defer f2.Close()
	if _, ok, err := f2.NextRun(); err != nil || !ok {
		t.Fatalf("NextRun = (ok=%v, err=%v), want a run", ok, err)
	}
	buf := record.Make(64, z)
	for {
		m, err := f2.Fill(buf)
		if err != nil {
			if !errors.Is(err, boom) {
				t.Fatalf("Fill err = %v, want the input's error", err)
			}
			return
		}
		if m == 0 { // run boundary before the error point: start the next run
			if _, ok, err := f2.NextRun(); err != nil || !ok {
				t.Fatalf("NextRun = (ok=%v, err=%v) before the input's error surfaced", ok, err)
			}
		}
	}
}
