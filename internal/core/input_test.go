package core

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"colsort/internal/cluster"
	"colsort/internal/pdm"
	"colsort/internal/record"
	"colsort/internal/testutil"
)

// genStream returns a Stream of plan pl whose records come from g in
// global column-major order — the order Store.Fill assigns — checking that
// the segments are read in that order. delay, when positive, slows every
// segment read.
func genStream(t *testing.T, pl Plan, m pdm.Machine, g record.Generator, delay time.Duration) *Stream {
	t.Helper()
	var next atomic.Int64
	read := func(dst record.Slice, first int64) error {
		if got := next.Swap(first + int64(dst.Len())); got != first {
			t.Errorf("segment at %d read after index %d", first, got)
		}
		time.Sleep(delay)
		for i := 0; i < dst.Len(); i++ {
			g.Gen(dst.Record(i), first+int64(i))
		}
		return nil
	}
	s, err := NewStream(pl, m, read, func(int, record.Slice, int64) {})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStreamMatchesStoreInput runs every pass program from a Stream and
// from a filled store of the same records: the outputs must be identical,
// and so must every pass's counters — the stream charges its reads exactly
// as the store reads it replaces.
func TestStreamMatchesStoreInput(t *testing.T) {
	plan := func(alg Algorithm, n int64, p, mem int) func() (Plan, error) {
		return func() (Plan, error) { return NewPlan(alg, n, p, p, mem, 16) }
	}
	cases := []struct {
		name string
		plan func() (Plan, error)
	}{
		{"threaded", plan(Threaded, 512*8, 4, 512)},
		{"threaded4", plan(Threaded4, 512*8, 4, 512)},
		{"subblock", plan(Subblock, 256*16, 4, 256)},
		{"mcolumn", plan(MColumn, 256*8, 4, 64)},
		{"combined", plan(Combined, 256*16, 4, 64)},
		{"hybrid", func() (Plan, error) { return NewHybridPlan(4096, 4, 4, 256, 16, 2) }},
		{"baseline3", plan(BaselineIO3, 512*8, 4, 512)},
		{"single-column", func() (Plan, error) { return NewPlan(Threaded, 512, 1, 1, 512, 16) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pl, err := tc.plan()
			if err != nil {
				t.Fatal(err)
			}
			m := pdm.Machine{P: pl.P, D: pl.D, StripeBytes: 1024}
			g := record.Uniform{Seed: 17}
			input, err := pl.NewInput(m, g)
			if err != nil {
				t.Fatal(err)
			}
			defer input.Close()
			fromStore, err := Run(context.Background(), pl, m, input, Hooks{})
			if err != nil {
				t.Fatal(err)
			}
			defer fromStore.Output.Close()
			fromStream, err := Run(context.Background(), pl, m, genStream(t, pl, m, g, 0), Hooks{})
			if err != nil {
				t.Fatal(err)
			}
			defer fromStream.Output.Close()
			if !reflect.DeepEqual(fromStream.PassCounters, fromStore.PassCounters) {
				t.Errorf("pass counters differ:\nstream %+v\nstore  %+v", fromStream.PassCounters, fromStore.PassCounters)
			}
			a, err := fromStore.Output.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			b, err := fromStream.Output.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a.Data, b.Data) {
				t.Error("outputs differ")
			}
		})
	}
}

// faultFirstDisk builds memory disks, except that the first disk 0 it
// builds fails every operation: with a Stream input, that disk belongs to
// pass 1's output store.
type faultFirstDisk struct{ built atomic.Bool }

func (b *faultFirstDisk) NewDisk(idx int) (pdm.Disk, error) {
	if idx == 0 && !b.built.Swap(true) {
		return &pdm.FaultDisk{Inner: pdm.NewMemDisk()}, nil
	}
	return pdm.NewMemDisk(), nil
}

func (*faultFirstDisk) Name() string { return "fault-first" }

// TestStreamAbortWakesWaitingRanks fails pass 1's first write, and cancels
// a run during pass 1, while the stream's slow reads keep other ranks
// waiting for their turn: Run must return promptly, with the root cause,
// and leave no goroutine behind.
func TestStreamAbortWakesWaitingRanks(t *testing.T) {
	testutil.CheckGoroutines(t)
	pl, err := NewPlan(Threaded, 2048*32, 4, 4, 2048, 16)
	if err != nil {
		t.Fatal(err)
	}
	const delay = 50 * time.Millisecond // × 32 segments: 1.6 s of reads
	g := record.Uniform{Seed: 5}

	run := func(ctx context.Context, m pdm.Machine) (error, time.Duration) {
		start := time.Now()
		done := make(chan error, 1)
		go func() {
			_, err := Run(ctx, pl, m, genStream(t, pl, m, g, delay), Hooks{})
			done <- err
		}()
		select {
		case err := <-done:
			return err, time.Since(start)
		case <-time.After(10 * time.Second):
			t.Fatal("Run did not return")
			return nil, 0
		}
	}

	m := pdm.Machine{P: pl.P, D: pl.D, Backend: &faultFirstDisk{}}
	err, took := run(context.Background(), m)
	if !errors.Is(err, pdm.ErrInjected) {
		t.Fatalf("disk fault: got %v, want the injected fault", err)
	}
	if took > 800*time.Millisecond {
		t.Errorf("disk fault: Run took %v, the stream's reads would take 1.6 s", took)
	}

	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(3*delay, cancel)
	err, took = run(ctx, pdm.Machine{P: pl.P, D: pl.D})
	if !errors.Is(err, context.Canceled) || !errors.Is(err, cluster.ErrAborted) {
		t.Fatalf("cancel: got %v, want a cancelled abort", err)
	}
	if took > 800*time.Millisecond {
		t.Errorf("cancel: Run took %v, the stream's reads would take 1.6 s", took)
	}
}
