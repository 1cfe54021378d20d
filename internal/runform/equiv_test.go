package runform

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"colsort/internal/record"
)

// extremeKeys draws keys from {0, 1, MaxUint64-1, MaxUint64} with random
// payloads: genuine maximal keys tie the MaxKey a parked slot holds in the
// tree, so the tie's liveness check decides the winner.
type extremeKeys struct{ seed uint64 }

func (g extremeKeys) Gen(rec []byte, idx int64) {
	record.Dup{Seed: g.seed, K: 1 << 20}.Gen(rec, idx) // random payload
	keys := [...]uint64{0, 1, math.MaxUint64 - 1, math.MaxUint64}
	binary.BigEndian.PutUint64(rec, keys[binary.BigEndian.Uint64(rec[8:])%4])
}

// downToZero is a descending input ending in a block of zero keys: in a
// descending run a zero prefix complements to the tree's MaxKey.
type downToZero struct{ n int64 }

func (g downToZero) Gen(rec []byte, idx int64) {
	record.Sorted{Seed: 5}.Gen(rec, idx)
	k := uint64(0)
	if idx < g.n*3/4 {
		k = uint64(g.n - idx)
	}
	binary.BigEndian.PutUint64(rec, k)
}

// equivInput builds n z-byte records from g.
func equivInput(n, z int, g interface{ Gen([]byte, int64) }) record.Slice {
	in := record.Make(n, z)
	for i := 0; i < n; i++ {
		g.Gen(in.Record(i), int64(i))
	}
	return in
}

// checkSameRuns forms in with the loser-tree Former and the reference heap
// former and requires the identical sequence of (direction, run bytes).
func checkSameRuns(t *testing.T, in record.Slice, capacity, bufRecs, breakAt int) {
	t.Helper()
	f := New(capacity, in.Size, nil, sliceReader(in))
	defer f.Close()
	got, err := formRuns(f, bufRecs, in.Size, breakAt)
	if err != nil {
		t.Fatal(err)
	}
	h := newHeapFormer(capacity, in.Size, nil, sliceReader(in))
	defer h.Close()
	want, err := formRuns(h, bufRecs, in.Size, breakAt)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("tree former formed %d runs, heap former %d", len(got), len(want))
	}
	for i := range got {
		if got[i].desc != want[i].desc || !bytes.Equal(got[i].recs.Data, want[i].recs.Data) {
			t.Fatalf("run %d differs: tree (desc=%v, %d records), heap (desc=%v, %d records)",
				i, got[i].desc, got[i].recs.Len(), want[i].desc, want[i].recs.Len())
		}
	}
	if len(got) > 0 {
		checkRuns(t, in, got)
	}
}

// TestTreeFormerMatchesHeapFormer pins the loser-tree Former to the heap
// former it replaced: the same runs, in the same directions, on every
// input shape replacement selection treats differently, with and without
// BreakRun at a retention cap.
func TestTreeFormerMatchesHeapFormer(t *testing.T) {
	const n, z, capacity = 6000, 16, 200
	inputs := []struct {
		name string
		gen  interface{ Gen([]byte, int64) }
	}{
		{"uniform", record.Uniform{Seed: 1}},
		{"sorted", record.Sorted{Seed: 2}},
		{"reverse", record.Reverse{Seed: 3}},
		{"nearly-sorted", record.Disordered{Seed: 4, K: 32}},
		{"nearly-sorted-wide", record.Disordered{Seed: 4, K: 2 * capacity}},
		{"nearly-reverse", record.NearlyReverse{Seed: 6, Window: 4}},
		{"heavy-duplicates", record.Dup{Seed: 7, K: 3}},
		{"extreme-keys", extremeKeys{seed: 8}},
		{"down-to-zero", downToZero{n: n}},
	}
	for _, in := range inputs {
		recs := equivInput(n, z, in.gen)
		t.Run(in.name, func(t *testing.T) {
			checkSameRuns(t, recs, capacity, 64, 0)
		})
		t.Run(in.name+"/break-at-cap", func(t *testing.T) {
			checkSameRuns(t, recs, capacity, 64, 2*capacity)
		})
		t.Run(in.name+"/break-below-capacity", func(t *testing.T) {
			checkSameRuns(t, recs, capacity, 16, capacity/3)
		})
	}
}

// FuzzFormerMatchesHeap feeds arbitrary record bytes and capacities to both
// formers: they must agree on every run.
func FuzzFormerMatchesHeap(f *testing.F) {
	f.Add(uint16(4), uint8(0), []byte("the quick brown fox jumps over the lazy dog, twice: the quick brown fox"))
	f.Add(uint16(1), uint8(3), bytes.Repeat([]byte{0xff, 0, 0xff, 1}, 64))
	f.Add(uint16(37), uint8(5), bytes.Repeat([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}, 50))
	f.Fuzz(func(t *testing.T, capacity uint16, breakAt uint8, data []byte) {
		// Three input bytes per 16-byte record: a one-byte key (0xff
		// standing for the all-ones prefix) and two payload bytes, so
		// prefix ties — and ties at the tree's MaxKey — are common.
		const z = 16
		n := len(data) / 3
		if n > 4096 {
			n = 4096
		}
		in := record.Make(n, z)
		for i := 0; i < n; i++ {
			rec, b := in.Record(i), data[3*i:3*i+3]
			key := uint64(b[0])
			if b[0] == 0xff {
				key = math.MaxUint64
			}
			binary.BigEndian.PutUint64(rec, key)
			rec[8], rec[9] = b[1], b[2]
		}
		checkSameRuns(t, in, int(capacity%512)+1, 7, int(breakAt))
	})
}

// BenchmarkFormerFill forms runs from 1 Mi uniform 64-byte records with a
// 16384-record working set — the shape of one above-bound batch stream.
func BenchmarkFormerFill(b *testing.B) {
	const n, z, capacity = 1 << 20, 64, 16384
	in := record.Make(n, z)
	record.Fill(in, record.Uniform{Seed: 1}, 0)
	out := record.Make(4096, z)
	b.SetBytes(int64(n * z))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := New(capacity, z, nil, sliceReader(in))
		runs := 0
		for {
			_, ok, err := f.NextRun()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
			runs++
			for {
				m, err := f.Fill(out)
				if err != nil {
					b.Fatal(err)
				}
				if m == 0 {
					break
				}
			}
		}
		f.Close()
		b.ReportMetric(float64(runs), "runs")
	}
}
