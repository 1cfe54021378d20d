package verify

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"

	"colsort/internal/pdm"
	"colsort/internal/record"
	"colsort/internal/sim"
)

// The two-scan verifier the single parallel scan replaced: a serial
// multiset scan, then a serial order scan that copies each record it
// passes. Kept as the reference the scan must agree with.

func refStoreSorted(st *pdm.Store) error {
	var cnt sim.Counters
	var lastValid bool
	last := record.Make(1, st.RecSize)
	buf := record.Make(st.R, st.RecSize)
	return st.ScanSegments(func(p, j, lo, hi int) error {
		chunk := buf.Sub(0, hi-lo)
		if err := st.ReadRows(&cnt, p, j, lo, chunk); err != nil {
			return err
		}
		for i := 0; i < chunk.Len(); i++ {
			if lastValid && record.Compare(chunk, i, last, 0) < 0 {
				return &Error{Kind: "order violation", Column: j, Row: lo + i,
					Detail: fmt.Sprintf("key %x follows %x", chunk.Key(i), last.Key(0))}
			}
			last.CopyRecord(0, chunk, i)
			lastValid = true
		}
		return nil
	})
}

func refChecksum(st *pdm.Store) (record.Checksum, error) {
	var cnt sim.Counters
	var c record.Checksum
	buf := record.Make(st.R, st.RecSize)
	err := st.ScanSegments(func(p, j, lo, hi int) error {
		chunk := buf.Sub(0, hi-lo)
		if err := st.ReadRows(&cnt, p, j, lo, chunk); err != nil {
			return err
		}
		c.AddSlice(chunk)
		return nil
	})
	return c, err
}

func refMultiset(st *pdm.Store, want record.Checksum) error {
	got, err := refChecksum(st)
	if err != nil {
		return err
	}
	if !got.Equal(want) {
		return &Error{Kind: "multiset violation",
			Detail: fmt.Sprintf("checksum (count=%d sum=%x) != expected (count=%d sum=%x)",
				got.Count, got.Sum, want.Count, want.Sum)}
	}
	return nil
}

func refOutput(st *pdm.Store, want record.Checksum) error {
	if err := refMultiset(st, want); err != nil {
		return err
	}
	return refStoreSorted(st)
}

func refOutputPrefix(st *pdm.Store, n int64, want record.Checksum) error {
	var cnt sim.Counters
	var got record.Checksum
	var lastValid bool
	last := record.Make(1, st.RecSize)
	buf := record.Make(st.R, st.RecSize)
	var seen int64
	err := st.ScanSegments(func(p, j, lo, hi int) error {
		chunk := buf.Sub(0, hi-lo)
		if err := st.ReadRows(&cnt, p, j, lo, chunk); err != nil {
			return err
		}
		for i := 0; i < chunk.Len(); i++ {
			rec := chunk.Record(i)
			if seen < n {
				if lastValid && record.Compare(chunk, i, last, 0) < 0 {
					return &Error{Kind: "order violation", Column: j, Row: lo + i,
						Detail: fmt.Sprintf("key %x follows %x", chunk.Key(i), last.Key(0))}
				}
				last.CopyRecord(0, chunk, i)
				lastValid = true
				got.Add(rec)
			} else {
				for _, b := range rec {
					if b != 0xff {
						return &Error{Kind: "pad violation", Column: j, Row: lo + i,
							Detail: "non-pad record beyond the real prefix"}
					}
				}
			}
			seen++
		}
		return nil
	})
	if err != nil {
		return err
	}
	if !got.Equal(want) {
		return &Error{Kind: "multiset violation",
			Detail: fmt.Sprintf("prefix checksum (count=%d) != expected (count=%d)", got.Count, want.Count)}
	}
	return nil
}

// padded generates Sorted records below n and all-0xFF pads from n on.
type padded struct{ n int64 }

func (g padded) Name() string { return "padded" }

func (g padded) Gen(rec []byte, idx int64) {
	if idx < g.n {
		record.Sorted{Seed: 3}.Gen(rec, idx)
		return
	}
	for i := range rec {
		rec[i] = 0xff
	}
}

// refStore builds a 64×8 store (z=16, P=4) of the layout whose first n
// records are sorted and the rest pads, returning it with the checksum of
// the real records.
func refStore(t *testing.T, layout pdm.Layout, n int64) (*pdm.Store, record.Checksum) {
	t.Helper()
	const r, s, z = 64, 8, 16
	m := pdm.Machine{P: 4, D: 4}
	var st *pdm.Store
	var err error
	if layout == pdm.GroupBlocked {
		st, err = m.NewGroupStore(r, s, z, 2)
	} else {
		st, err = m.NewStore(r, s, z, layout)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if err := st.Fill(padded{n}); err != nil {
		t.Fatal(err)
	}
	var want record.Checksum
	rec := make([]byte, z)
	for i := int64(0); i < n; i++ {
		padded{n}.Gen(rec, i)
		want.Add(rec)
	}
	return st, want
}

// mutate rewrites the record at global column-major index g of st.
func mutate(t *testing.T, st *pdm.Store, g int64, f func(rec []byte)) {
	t.Helper()
	j, i := int(g/int64(st.R)), int(g%int64(st.R))
	p := st.Owner(i, j)
	var cnt sim.Counters
	buf := record.Make(1, st.RecSize)
	if err := st.ReadRows(&cnt, p, j, i, buf); err != nil {
		t.Fatal(err)
	}
	f(buf.Record(0))
	if err := st.WriteRows(&cnt, p, j, i, buf); err != nil {
		t.Fatal(err)
	}
}

// sameError requires two verification outcomes to match in Kind, Column
// and Row.
func sameError(t *testing.T, what string, got, want error) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: got %v, reference %v", what, got, want)
	}
	if got == nil {
		return
	}
	var ge, we *Error
	if !errors.As(got, &ge) || !errors.As(want, &we) {
		t.Fatalf("%s: got %v, reference %v", what, got, want)
	}
	if ge.Kind != we.Kind || ge.Column != we.Column || ge.Row != we.Row {
		t.Fatalf("%s: got %s at column %d row %d, reference %s at column %d row %d",
			what, ge.Kind, ge.Column, ge.Row, we.Kind, we.Column, we.Row)
	}
}

// TestScanMatchesReference checks the one-scan verifier against the
// two-scan reference on every layout, full and padded, clean and with
// intra-column, column-boundary, segment-boundary, multiset and pad
// violations (alone and combined) at seeded positions.
func TestScanMatchesReference(t *testing.T) {
	const total = 64 * 8
	rng := rand.New(rand.NewPCG(7, 13))
	type mutation struct {
		name string
		at   func(n int64) int64
		f    func(rec []byte)
	}
	smallKey := func(rec []byte) { record.PutKey(rec, 0) }
	mutations := []mutation{
		{"clean", nil, nil},
		{"intra-column", func(n int64) int64 { return 8*int64(rng.IntN(int(n/8))) + 3 }, smallKey},
		{"column-boundary", func(n int64) int64 { return 64 * (1 + int64(rng.IntN(int(n/64)-1))) }, smallKey},
		{"segment-boundary", func(n int64) int64 { return 16 * (1 + int64(rng.IntN(int(n/16)-1))) }, smallKey},
		{"multiset", func(n int64) int64 { return int64(rng.IntN(int(n))) }, func(rec []byte) { rec[len(rec)-1] ^= 1 }},
		{"swap-to-pad", func(n int64) int64 { return int64(rng.IntN(int(n))) }, func(rec []byte) {
			for i := range rec {
				rec[i] = 0xff
			}
		}},
		{"pad", func(n int64) int64 { return n + int64(rng.IntN(int(total-n))) }, func(rec []byte) { rec[0] = 0 }},
	}
	for _, layout := range []pdm.Layout{pdm.ColumnOwned, pdm.RowBlocked, pdm.GroupBlocked} {
		for _, n := range []int64{total, total - 77, 130} {
			for _, mu := range mutations {
				if mu.name == "pad" && n == total {
					continue
				}
				for rep := 0; rep < 4; rep++ {
					name := fmt.Sprintf("%v/n=%d/%s/%d", layout, n, mu.name, rep)
					st, want := refStore(t, layout, n)
					if mu.f != nil {
						mutate(t, st, mu.at(n), mu.f)
					}
					if n == total {
						sameError(t, name+"/Output", Output(st, want), refOutput(st, want))
						sameError(t, name+"/StoreSorted", StoreSorted(st), refStoreSorted(st))
					}
					ref := refOutputPrefix(st, n, want)
					if (mu.f == nil) != (ref == nil) {
						t.Fatalf("%s: reference verdict %v", name, ref)
					}
					sameError(t, name+"/OutputPrefix", OutputPrefix(st, n, want), ref)
					if n == total {
						ref = refOutput(st, want)
					}
					crcs, err := Sealed(st, n, want, nil)
					sameError(t, name+"/Sealed", err, ref)
					if err == nil && len(crcs) != len(st.Segments()) {
						t.Fatalf("%s: %d seals for %d segments", name, len(crcs), len(st.Segments()))
					}
				}
			}
		}
	}
}

// TestScanReadErrorMatchesReference fails every read of processor 2's
// disk: the scan reports the read error, unless an order violation comes
// earlier in scan order and the prefix form reports violations first —
// exactly as the reference does.
func TestScanReadErrorMatchesReference(t *testing.T) {
	for _, early := range []bool{false, true} {
		st, want := refStore(t, pdm.ColumnOwned, 500)
		if early {
			mutate(t, st, 64+5, func(rec []byte) { record.PutKey(rec, 0) }) // column 1, ahead of processor 2's column 2
		}
		st.Arrays[2].Disks[0] = &pdm.FaultDisk{Inner: st.Arrays[2].Disks[0]}
		ref := refOutputPrefix(st, 500, want)
		got := OutputPrefix(st, 500, want)
		if early {
			sameError(t, "early violation", got, ref)
		} else if !errors.Is(got, pdm.ErrInjected) || !errors.Is(ref, pdm.ErrInjected) {
			t.Fatalf("read error: got %v, reference %v", got, ref)
		}
		if err := Output(st, want); !errors.Is(err, pdm.ErrInjected) {
			t.Fatalf("Output: got %v, want the read error first", err)
		}
	}
}

// TestSealedCRCs checks that each seal is the CRC32-C of its segment's
// bytes, in Segments order.
func TestSealedCRCs(t *testing.T) {
	for _, layout := range []pdm.Layout{pdm.ColumnOwned, pdm.RowBlocked, pdm.GroupBlocked} {
		st, want := refStore(t, layout, 300)
		crcs, err := Sealed(st, 300, want, nil)
		if err != nil {
			t.Fatal(err)
		}
		var cnt sim.Counters
		for k, sg := range st.Segments() {
			buf := record.Make(sg.Hi-sg.Lo, st.RecSize)
			if err := st.ReadRows(&cnt, sg.P, sg.J, sg.Lo, buf); err != nil {
				t.Fatal(err)
			}
			if CRC(buf.Data) != crcs[k] {
				t.Fatalf("%v: segment %d seal %08x, bytes hash to %08x", layout, k, crcs[k], CRC(buf.Data))
			}
		}
	}
}

// BenchmarkVerify times Output on a 16 MiB file-backed store (P=4,
// 64-byte records), the one-scan verifier against the two-scan reference.
func BenchmarkVerify(b *testing.B) {
	const r, s, z = 16384, 16, 64
	m := pdm.Machine{P: 4, D: 4, Backend: pdm.FileBackend{Dir: b.TempDir()}}
	st, err := m.NewStore(r, s, z, pdm.ColumnOwned)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	g := record.Sorted{Seed: 1}
	if err := st.Fill(g); err != nil {
		b.Fatal(err)
	}
	want := record.OfGenerated(g, r*s, z)
	for _, v := range []struct {
		name string
		fn   func(*pdm.Store, record.Checksum) error
	}{{"scan", Output}, {"reference", refOutput}} {
		b.Run(v.name, func(b *testing.B) {
			b.SetBytes(r * s * z)
			for i := 0; i < b.N; i++ {
				if err := v.fn(st, want); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
