package colsort

// Tests of the durable-job path: WithCheckpoint's persisted run manifest,
// Engine.Resume after a mid-merge and mid-formation crash, the deadline
// option, and the manifest replay's crash-tolerance. The "crash" is a
// context cancellation fired from a progress callback — the same abrupt
// teardown a SIGKILL inflicts on the checkpoint state, since the WAL is
// fsync'd at every durability point and never repaired on the way down
// (scripts/crash_resume_e2e.sh kills a real process for the end-to-end
// version of the same contract).

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"colsort/internal/record"
	"colsort/internal/testutil"
)

// ckptConfig builds a file-backed engine small enough that n records force a
// deep hierarchical sort, with scratch under dir/scratch.
func ckptConfig(t *testing.T, dir string) *Sorter {
	t.Helper()
	s, err := New(Config{Procs: 4, MemPerProc: 256, RecordSize: 32,
		Dir: filepath.Join(dir, "scratch"), Async: true})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// legacyManifest rewrites a crashed job's manifest into the format of an
// older release whose jobs could form fixed batches: the begin entry names
// "formation":"fixed-batch", and every run entry carries the cumulative
// source records consumed ("consumed") with a multiset checksum ("want").
// This release reads neither field; the rewrite pins that such a manifest
// still replays. The checksum value is the ingest_done one when the
// manifest has it (only its JSON shape matters).
func legacyManifest(t *testing.T, ckptDir string) {
	t.Helper()
	path := filepath.Join(ckptDir, "manifest.wal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	entries := make([]map[string]json.RawMessage, len(lines))
	want := json.RawMessage(`{}`)
	for i, line := range lines {
		if err := json.Unmarshal([]byte(line), &entries[i]); err != nil {
			t.Fatalf("manifest line %d: %v", i+1, err)
		}
		if string(entries[i]["type"]) == `"ingest_done"` {
			want = entries[i]["want"]
		}
	}
	var out bytes.Buffer
	var consumed int64
	runs := 0
	for _, e := range entries {
		switch string(e["type"]) {
		case `"begin"`:
			e["formation"] = json.RawMessage(`"fixed-batch"`)
		case `"run"`:
			var r struct{ Records int64 }
			if err := json.Unmarshal(e["run"], &r); err != nil {
				t.Fatal(err)
			}
			consumed += r.Records
			e["consumed"] = json.RawMessage(fmt.Sprint(consumed))
			e["want"] = want
			runs++
		}
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(append(line, '\n'))
	}
	if runs == 0 {
		t.Fatal("the crashed job's manifest records no durable run to rewrite")
	}
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointResumeMidMerge crashes a checkpointed sort during the merge
// phase and resumes it: the output must be byte-identical to the
// uninterrupted sort and ZERO records re-sorted — every run is adopted from
// the manifest (ResumedRuns == the full live set, BatchRedos == 0). The
// fixed-batch case resumes from the same crash state written in an older
// release's fixed-batch manifest format (legacyManifest).
func TestCheckpointResumeMidMerge(t *testing.T) {
	for _, legacy := range []bool{true, false} {
		legacy := legacy
		name := "replacement-select"
		if legacy {
			name = "fixed-batch"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := ckptConfig(t, dir)
			bound := s.MaxRecords(Threaded)
			n := int(6 * bound)
			raw := genRaw(n, 32, record.Uniform{Seed: 31})
			want := refSortBytes(t, raw, 32, KeySpec{})
			ckptDir := filepath.Join(dir, "ckpt")

			// Crash once the merge is demonstrably running: fan-in 2 over ≥6
			// runs guarantees intermediate merge levels, so the manifest holds
			// a mix of formation runs and merged outputs at the crash.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var once sync.Once
			res, err := s.Sort(ctx, FromBytes(raw), Discard(),
				WithMergeFanIn(2), WithCheckpoint(ckptDir),
				WithProgress(func(ev Progress) {
					if ev.Pass == 0 && ev.MergedRecords > 0 {
						once.Do(cancel)
					}
				}))
			if err == nil {
				res.Close()
				t.Fatal("cancelled checkpointed sort returned no error")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if _, err := os.Stat(filepath.Join(ckptDir, "manifest.wal")); err != nil {
				t.Fatalf("crashed job left no manifest: %v", err)
			}
			if legacy {
				legacyManifest(t, ckptDir)
			}

			var out bytes.Buffer
			rres, err := s.Resume(context.Background(), ckptDir, FromBytes(raw), ToWriter(&out))
			if err != nil {
				t.Fatalf("Resume: %v", err)
			}
			defer rres.Close()
			if !bytes.Equal(out.Bytes(), want) {
				t.Error("resumed output is not byte-identical to the uninterrupted sort")
			}
			if rres.Merge == nil {
				t.Fatal("resumed sort reports no merge stats")
			}
			if rres.Merge.ResumedRuns == 0 || rres.Merge.ResumedRuns != rres.Merge.Runs {
				t.Errorf("ResumedRuns = %d, want the full live set (%d): a merge-phase resume re-sorts nothing",
					rres.Merge.ResumedRuns, rres.Merge.Runs)
			}
			if rres.Faults.BatchRedos != 0 {
				t.Errorf("BatchRedos = %d after a merge-phase resume, want 0", rres.Faults.BatchRedos)
			}
			// Success retires the checkpoint: manifest and run files are gone.
			if _, err := os.Stat(filepath.Join(ckptDir, "manifest.wal")); !os.IsNotExist(err) {
				t.Errorf("manifest survived a completed job (stat err %v)", err)
			}
			st := s.Engine().Stats()
			if st.JobsResumed != 1 || st.RunsResumed != int64(rres.Merge.ResumedRuns) {
				t.Errorf("engine stats JobsResumed=%d RunsResumed=%d, want 1/%d",
					st.JobsResumed, st.RunsResumed, rres.Merge.ResumedRuns)
			}
		})
	}
}

// TestCheckpointResumeAfterFirstMerge crashes a checkpointed sort right
// after its first intermediate merge became durable. The resume re-plans
// from the durable run set (three formation runs plus the merged output)
// and must produce byte-identical output with zero records re-sorted.
func TestCheckpointResumeAfterFirstMerge(t *testing.T) {
	dir := t.TempDir()
	s := ckptConfig(t, dir)
	runN := int(s.MaxRecords(Threaded))
	n := 4*runN + runN/2
	// Five runs of known sizes: four of runN records, one of runN/2.
	raw := staircase(t, genRaw(n, 32, record.Uniform{Seed: 35}), 32, []int{runN, runN, runN, runN, runN / 2})
	ckptDir := filepath.Join(dir, "ckpt")

	// At fan-in 4 the five runs plan as one 2-way merge of 1.5 runs'
	// records, then the final merge: cancel once the first has emitted all
	// of its records, so the crash lands after its WAL entry.
	first := int64(runN + runN/2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := s.Sort(ctx, FromBytes(raw), Discard(),
		WithMergeFanIn(4), WithCheckpoint(ckptDir),
		WithProgress(func(ev Progress) {
			if ev.MergedRecords >= first {
				cancel()
			}
		}))
	if err == nil {
		res.Close()
		t.Fatal("cancelled checkpointed sort returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	var out bytes.Buffer
	rres, err := s.Resume(context.Background(), ckptDir, nil, ToWriter(&out))
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	defer rres.Close()
	if !bytes.Equal(out.Bytes(), refSortBytes(t, raw, 32, KeySpec{})) {
		t.Error("resumed output is not byte-identical to the reference sort")
	}
	m := rres.Merge
	if m.Runs != 4 || m.ResumedRuns != 4 || m.Levels != 1 {
		t.Errorf("resume merged %d runs (%d resumed) in %d levels, want the 4 durable runs in one final merge",
			m.Runs, m.ResumedRuns, m.Levels)
	}
	if rres.Faults.BatchRedos != 0 {
		t.Errorf("BatchRedos = %d after a merge-phase resume, want 0", rres.Faults.BatchRedos)
	}
}

// TestCheckpointResumeMidMergeNilSource is the merge-phase resume with no
// Source at all: once the manifest records ingest_done, the input is never
// read again.
func TestCheckpointResumeMidMergeNilSource(t *testing.T) {
	dir := t.TempDir()
	s := ckptConfig(t, dir)
	bound := s.MaxRecords(Threaded)
	n := int(4 * bound)
	raw := genRaw(n, 32, record.Uniform{Seed: 33})
	ckptDir := filepath.Join(dir, "ckpt")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	res, err := s.Sort(ctx, FromBytes(raw), Discard(),
		WithMergeFanIn(2), WithCheckpoint(ckptDir),
		WithProgress(func(ev Progress) {
			if ev.Pass == 0 && ev.MergedRecords > 0 {
				once.Do(cancel)
			}
		}))
	if err == nil {
		res.Close()
		t.Fatal("cancelled checkpointed sort returned no error")
	}

	var out bytes.Buffer
	rres, err := s.Resume(context.Background(), ckptDir, nil, ToWriter(&out))
	if err != nil {
		t.Fatalf("Resume with nil Source: %v", err)
	}
	defer rres.Close()
	if !bytes.Equal(out.Bytes(), refSortBytes(t, raw, 32, KeySpec{})) {
		t.Error("nil-source resumed output differs from the reference")
	}
}

// TestCheckpointResumeMidFormation crashes a job during run formation, with
// durable runs already in its manifest, and rewrites the manifest into an
// older release's fixed-batch format (legacyManifest), whose formation-phase
// resume skipped the durable prefix. Resume must restart formation instead:
// no run adopted, the crashed attempt's ckpt- spill files swept before the
// restarted job forms anything, and the output byte-identical.
func TestCheckpointResumeMidFormation(t *testing.T) {
	dir := t.TempDir()
	s := ckptConfig(t, dir)
	bound := s.MaxRecords(Threaded)
	n := int(6 * bound)
	raw := genRaw(n, 32, record.Uniform{Seed: 35})
	ckptDir := filepath.Join(dir, "ckpt")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	res, err := s.Sort(ctx, FromBytes(raw), Discard(),
		WithCheckpoint(ckptDir),
		WithProgress(func(ev Progress) {
			if ev.FormedRecords > 0 && ev.Batch >= 3 { // runs 1 and 2 are durable
				once.Do(cancel)
			}
		}))
	if err == nil {
		res.Close()
		t.Fatal("cancelled checkpointed sort returned no error")
	}
	legacyManifest(t, ckptDir)
	stale, err := filepath.Glob(filepath.Join(ckptDir, "ckpt-*"))
	if err != nil || len(stale) < 2 {
		t.Fatalf("crashed formation left %d spill files (%v), want ≥ 2", len(stale), err)
	}

	var out bytes.Buffer
	var leftover []string
	var checked sync.Once
	rres, err := s.Resume(context.Background(), ckptDir, FromBytes(raw), ToWriter(&out),
		WithProgress(func(Progress) {
			checked.Do(func() {
				for _, p := range stale {
					if _, err := os.Stat(p); err == nil {
						leftover = append(leftover, p)
					}
				}
			})
		}))
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	defer rres.Close()
	if !bytes.Equal(out.Bytes(), refSortBytes(t, raw, 32, KeySpec{})) {
		t.Error("formation-restarted output is not byte-identical to the reference")
	}
	if rres.Merge.ResumedRuns != 0 {
		t.Errorf("ResumedRuns = %d of %d runs, want 0: a formation-phase crash restarts formation",
			rres.Merge.ResumedRuns, rres.Merge.Runs)
	}
	if len(leftover) != 0 {
		t.Errorf("orphan spill files survived into the restarted formation: %v", leftover)
	}
}

// TestCheckpointRSFormationRestart crashes replacement-selection formation:
// the heap's contents died with the process, so Resume restarts formation
// from scratch — and the restarted job still ends byte-identical.
func TestCheckpointRSFormationRestart(t *testing.T) {
	dir := t.TempDir()
	s := ckptConfig(t, dir)
	bound := s.MaxRecords(Threaded)
	n := int(6 * bound)
	raw := genRaw(n, 32, record.Uniform{Seed: 37})
	ckptDir := filepath.Join(dir, "ckpt")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	res, err := s.Sort(ctx, FromBytes(raw), Discard(),
		WithCheckpoint(ckptDir),
		WithProgress(func(ev Progress) {
			if ev.Pass == 0 && ev.FormedRecords > 0 && ev.MergedRecords == 0 {
				once.Do(cancel)
			}
		}))
	if err == nil {
		res.Close()
		t.Skip("sort completed before formation could be interrupted")
	}

	var out bytes.Buffer
	rres, err := s.Resume(context.Background(), ckptDir, FromBytes(raw), ToWriter(&out))
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	defer rres.Close()
	if !bytes.Equal(out.Bytes(), refSortBytes(t, raw, 32, KeySpec{})) {
		t.Error("restarted replacement-selection output differs from the reference")
	}
	if rres.Merge.ResumedRuns != 0 {
		t.Errorf("ResumedRuns = %d after an RS formation restart, want 0 (formation redone)", rres.Merge.ResumedRuns)
	}
}

// TestResumeValidation covers the refusals: no manifest, a completed job,
// and a mismatched source size.
func TestResumeValidation(t *testing.T) {
	dir := t.TempDir()
	s := ckptConfig(t, dir)

	if _, err := s.Resume(context.Background(), filepath.Join(dir, "nope"), nil, Discard()); err == nil {
		t.Error("Resume on a nonexistent manifest dir succeeded")
	}

	// A completed checkpointed job retires its state; resuming it must fail.
	bound := s.MaxRecords(Threaded)
	n := int(3 * bound)
	raw := genRaw(n, 32, record.Uniform{Seed: 39})
	ckptDir := filepath.Join(dir, "ckpt")
	res, err := s.Sort(context.Background(), FromBytes(raw), Discard(), WithCheckpoint(ckptDir))
	if err != nil {
		t.Fatal(err)
	}
	res.Close()
	if _, err := s.Resume(context.Background(), ckptDir, FromBytes(raw), Discard()); err == nil {
		t.Error("Resume after successful completion succeeded")
	}

	// Crash one, then offer a source of the wrong size.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	res, err = s.Sort(ctx, FromBytes(raw), Discard(),
		WithCheckpoint(ckptDir),
		WithProgress(func(ev Progress) {
			if ev.Pass == 0 && ev.MergedRecords > 0 {
				once.Do(cancel)
			}
		}))
	if err == nil {
		res.Close()
		t.Fatal("cancelled checkpointed sort returned no error")
	}
	short := raw[:len(raw)-32]
	if _, err := s.Resume(context.Background(), ckptDir, FromBytes(short), Discard()); err == nil {
		t.Error("Resume accepted a source with the wrong record count")
	}
	if _, err := s.Resume(context.Background(), ckptDir, FromBytes(raw), nil); !errors.Is(err, ErrSinkRequired) {
		t.Errorf("Resume with nil Sink: err = %v, want ErrSinkRequired", err)
	}
}

// TestManifestTornTail appends garbage (a torn final line) to a crashed
// job's manifest: replay must ignore the tear and the resume still succeed.
func TestManifestTornTail(t *testing.T) {
	dir := t.TempDir()
	s := ckptConfig(t, dir)
	bound := s.MaxRecords(Threaded)
	n := int(4 * bound)
	raw := genRaw(n, 32, record.Uniform{Seed: 41})
	ckptDir := filepath.Join(dir, "ckpt")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	res, err := s.Sort(ctx, FromBytes(raw), Discard(),
		WithMergeFanIn(2), WithCheckpoint(ckptDir),
		WithProgress(func(ev Progress) {
			if ev.Pass == 0 && ev.MergedRecords > 0 {
				once.Do(cancel)
			}
		}))
	if err == nil {
		res.Close()
		t.Fatal("cancelled checkpointed sort returned no error")
	}

	f, err := os.OpenFile(filepath.Join(ckptDir, "manifest.wal"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"merged","run":{"id":99`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var out bytes.Buffer
	rres, err := s.Resume(context.Background(), ckptDir, FromBytes(raw), ToWriter(&out))
	if err != nil {
		t.Fatalf("Resume over a torn manifest tail: %v", err)
	}
	defer rres.Close()
	if !bytes.Equal(out.Bytes(), refSortBytes(t, raw, 32, KeySpec{})) {
		t.Error("resumed output differs from the reference after a torn tail")
	}
}

// TestWithDeadlineExceeded checks the per-job deadline end to end: the sort
// fails with a wrapped context.DeadlineExceeded and unwinds leak-free — no
// goroutines, no scratch files.
func TestWithDeadlineExceeded(t *testing.T) {
	dir := t.TempDir()
	testutil.CheckLeaks(t, filepath.Join(dir, "scratch"))
	s := ckptConfig(t, dir)
	bound := s.MaxRecords(Threaded)
	n := 4 * bound

	res, err := s.Sort(context.Background(), Generate(record.Uniform{Seed: 43}, n), Discard(),
		WithDeadline(time.Nanosecond))
	if err == nil {
		res.Close()
		t.Fatal("sort with a 1ns deadline succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want errors.Is(err, context.DeadlineExceeded)", err)
	}

	// The engine stays serviceable after the deadline blew.
	res, err = s.Sort(context.Background(), Generate(record.Uniform{Seed: 44}, bound/2), Discard(),
		WithDeadline(time.Minute))
	if err != nil {
		t.Fatalf("sort with a generous deadline: %v", err)
	}
	res.Close()
}

// TestCheckpointSingleRunIgnored pins that WithCheckpoint on a below-bound
// sort (no hierarchical path) is accepted and harmless.
func TestCheckpointSingleRunIgnored(t *testing.T) {
	dir := t.TempDir()
	s := ckptConfig(t, dir)
	bound := s.MaxRecords(Threaded)
	res, err := s.Sort(context.Background(), Generate(record.Uniform{Seed: 45}, bound/2), Discard(),
		WithCheckpoint(filepath.Join(dir, "ckpt")))
	if err != nil {
		t.Fatalf("single-run sort with WithCheckpoint: %v", err)
	}
	res.Close()
	if _, err := os.Stat(filepath.Join(dir, "ckpt", "manifest.wal")); !os.IsNotExist(err) {
		t.Errorf("single-run sort wrote a manifest (stat err %v)", err)
	}
}
