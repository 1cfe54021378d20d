package colsort

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"colsort/internal/pdm"
	"colsort/internal/record"
	"colsort/internal/testutil"
)

// TestSingleRunBitFlipsNeverEmitWrongBytes sorts a below-bound input under
// silent read bit flips on every disk. A flip during the passes or the
// verification scan fails the sort; a flip on the egress read is caught by
// the segment's seal and healed by a re-read. Either way no seed may return
// success with output that differs from the fault-free sort.
func TestSingleRunBitFlipsNeverEmitWrongBytes(t *testing.T) {
	const n, z = 65536, 16
	raw := genRaw(n, z, record.Uniform{Seed: 21})
	want := refSortBytes(t, raw, z, KeySpec{})
	var ok, failed, healed int
	for seed := uint64(1); seed <= 100; seed++ {
		s, err := New(Config{Procs: 4, MemPerProc: 4096, RecordSize: z,
			Chaos: &ChaosConfig{Seed: seed, PBitFlip: 0.01}})
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		res, err := s.Sort(context.Background(), FromBytes(raw), ToWriter(&out))
		if err != nil {
			failed++
			continue
		}
		if res.Merge != nil {
			t.Fatal("the input must sort in a single run")
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("seed %d: Sort returned nil with output that differs from the fault-free sort", seed)
		}
		if res.Faults.ChunkRereads > 0 {
			healed++
		}
		ok++
		res.Close()
	}
	t.Logf("%d seeds sorted correctly (%d after healing an egress read), %d failed", ok, healed, failed)
	if healed == 0 {
		t.Error("no seed healed a corrupt egress read: the seal check never fired")
	}
}

// TestEgressSealMismatchFails corrupts a verified output segment on disk:
// the re-read cannot heal it, so the sort's egress fails with
// ErrCorruptOutput and counts the detection.
func TestEgressSealMismatchFails(t *testing.T) {
	const n, z = 1 << 12, 16
	s := newSorter(t, 4, 1<<10, z)
	res, err := s.Sort(context.Background(), FromBytes(genRaw(n, z, record.Uniform{Seed: 4})), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	seg := res.Output.Segments()[1]
	buf := record.Make(1, z)
	if err := res.Output.ReadRows(nil, seg.P, seg.J, seg.Lo, buf); err != nil {
		t.Fatal(err)
	}
	buf.Data[z-1] ^= 1
	if err := res.Output.WriteRows(nil, seg.P, seg.J, seg.Lo, buf); err != nil {
		t.Fatal(err)
	}
	var faults pdm.FaultStats
	err = res.drainTo(context.Background(), ToWriter(io.Discard), &faults)
	if !errors.Is(err, ErrCorruptOutput) {
		t.Fatalf("egress of a corrupted segment: got %v, want ErrCorruptOutput", err)
	}
	if c, r := faults.CorruptChunks.Load(), faults.Rereads.Load(); c != 1 || r != 0 {
		t.Errorf("counted %d corrupt segments and %d heals, want 1 and 0", c, r)
	}
}

// TestStreamInputShortReader: a FromReader source that ends early fails
// pass 1's stream read with the index of the first missing record, on the
// column-owned and the row-blocked layout, and leaves no scratch file or
// goroutine behind.
func TestStreamInputShortReader(t *testing.T) {
	const n, have, z = 3000, 1234, 32
	dir := t.TempDir()
	testutil.CheckLeaks(t, filepath.Join(dir, "scratch"))
	s, err := New(Config{Procs: 4, MemPerProc: 1024, RecordSize: z,
		Dir: filepath.Join(dir, "scratch"), Async: true})
	if err != nil {
		t.Fatal(err)
	}
	raw := genRaw(have, z, record.Uniform{Seed: 8})
	for _, alg := range []Algorithm{Threaded, MColumn} {
		_, err := s.Sort(context.Background(), FromReader(bytes.NewReader(raw), n), Discard(), WithAlgorithm(alg))
		if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), fmt.Sprintf("input record %d:", have)) {
			t.Errorf("%v: got %v, want input record %d: unexpected EOF", alg, err, have)
		}
	}
}

// cancelReader cancels its context once it has delivered after bytes, then
// keeps delivering.
type cancelReader struct {
	r      io.Reader
	after  int
	cancel context.CancelFunc
}

func (c *cancelReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if c.after -= n; c.after <= 0 {
		c.cancel()
	}
	return n, err
}

// TestStreamInputCancelDuringPass1 cancels a file-backed sort while pass 1
// is still reading its source: Sort must return the cancellation promptly
// and leave no goroutine or scratch file behind.
func TestStreamInputCancelDuringPass1(t *testing.T) {
	const n, z = 1 << 15, 32
	dir := t.TempDir()
	testutil.CheckLeaks(t, filepath.Join(dir, "scratch"))
	s, err := New(Config{Procs: 4, MemPerProc: 2048, RecordSize: z,
		Dir: filepath.Join(dir, "scratch"), Async: true})
	if err != nil {
		t.Fatal(err)
	}
	raw := genRaw(n, z, record.Uniform{Seed: 9})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &cancelReader{r: bytes.NewReader(raw), after: len(raw) / 8, cancel: cancel}
	done := make(chan error, 1)
	go func() {
		_, err := s.Sort(ctx, FromReader(src, n), Discard())
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Sort did not return after its context was cancelled")
	}
}

// TestStreamInputCountersMatchStoreInput: a sort whose pass 1 reads its
// source through the stream reports exactly the pass counters of the same
// sort consuming a plan-shaped store in place, so the cost-model estimate
// does not move.
func TestStreamInputCountersMatchStoreInput(t *testing.T) {
	const p, z = 4, 16
	cases := []struct {
		alg Algorithm
		n   int64
		mem int
	}{
		{Threaded, 1 << 13, 1 << 10},
		{Threaded4, 1 << 13, 1 << 10},
		{Subblock, 1 << 12, 256},
		{MColumn, 1 << 11, 64},
		{Combined, 1 << 12, 64},
	}
	for _, tc := range cases {
		t.Run(tc.alg.String(), func(t *testing.T) {
			s := newSorter(t, p, tc.mem, z)
			input, err := s.InputStore(tc.alg, tc.n)
			if err != nil {
				t.Fatal(err)
			}
			defer input.Close()
			if err := input.Fill(record.Uniform{Seed: 6}); err != nil {
				t.Fatal(err)
			}
			var inPlace, streamed bytes.Buffer
			a, err := s.Sort(context.Background(), FromStore(input), ToWriter(&inPlace), WithAlgorithm(tc.alg), WithPadding(PadNever))
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			raw, err := input.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			b, err := s.Sort(context.Background(), FromBytes(raw.Data), ToWriter(&streamed), WithAlgorithm(tc.alg), WithPadding(PadNever))
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			if !reflect.DeepEqual(a.PassCounters, b.PassCounters) {
				t.Errorf("pass counters differ:\nin place %+v\nstreamed %+v", a.PassCounters, b.PassCounters)
			}
			if !bytes.Equal(inPlace.Bytes(), streamed.Bytes()) {
				t.Error("outputs differ")
			}
		})
	}
}
