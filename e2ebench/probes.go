package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"colsort/internal/merge"
	"colsort/internal/pdm"
	"colsort/internal/record"
	"colsort/internal/runform"
	"colsort/internal/sortalg"
)

// The floor probes call the internal packages directly, at the workload's
// sizes and outside the timed window. Each repeats probeReps times and
// keeps the median rate.
const probeReps = 3

// probe runs the floor probes of the layers the workload exercises: the
// disk and the record codec always; the local column sort for a workload
// whose jobs sort in one run; formation and merge for one that formed runs
// of H = p.l.runRecords records.
func probe(c config, p *perLayer) error {
	var err error
	size := c.wl.inputBytes
	if p.seqWrite, p.seqRead, p.fsyncMs, err = probeDisk(c.dir, size); err != nil {
		return err
	}
	if p.codec, p.checksum, err = probeRecord(size); err != nil {
		return err
	}
	n, h := c.wl.records(), p.l.runRecords
	if h == 0 {
		p.colSort, err = probeColumnSort(c.wl.memPerProc)
		return err
	}
	if p.fill, err = probeFormation(c.wl.generator(c.seed, 0), n, int(h)); err != nil {
		return err
	}
	// The first merge level's shape: fan-in 16 over runs of about 2H; a
	// presorted input forms one run, which merges through alone.
	if c.wl.presorted {
		p.kway, err = probeMerge(1, int(n))
	} else {
		p.kway, err = probeMerge(16, int(min(2*h, n/16)))
	}
	return err
}

// medianRate runs f probeReps times; f returns the units it processed, and
// the median of units per second is returned.
func medianRate(f func() (float64, error)) (float64, error) {
	var rates []float64
	for i := 0; i < probeReps; i++ {
		t := time.Now()
		units, err := f()
		if err != nil {
			return 0, err
		}
		rates = append(rates, units/time.Since(t).Seconds())
	}
	return median(rates), nil
}

// probeDisk measures sequential FileDisk bandwidth in dir — the I/O floor —
// by writing and then reading back size bytes in 1 MiB requests, and the
// latency of an fsync after a 1 MiB write.
func probeDisk(dir string, size int64) (writeMiBs, readMiBs, fsyncMs float64, err error) {
	d, err := pdm.NewFileDisk(filepath.Join(dir, "probe-disk"))
	if err != nil {
		return 0, 0, 0, err
	}
	defer d.Close()
	buf := make([]byte, mib)
	record.Fill(record.Slice{Data: buf, Size: recSize}, record.Uniform{Seed: 7}, 0)
	writeMiBs, err = medianRate(func() (float64, error) {
		for off := int64(0); off < size; off += mib {
			if err := d.WriteAt(buf, off); err != nil {
				return 0, err
			}
		}
		return float64(size) / mib, nil
	})
	if err != nil {
		return 0, 0, 0, err
	}
	readMiBs, err = medianRate(func() (float64, error) {
		for off := int64(0); off < size; off += mib {
			if err := d.ReadAt(buf, off); err != nil {
				return 0, err
			}
		}
		return float64(size) / mib, nil
	})
	if err != nil {
		return 0, 0, 0, err
	}
	var syncs []float64
	for i := 0; i < 5; i++ {
		if err := d.WriteAt(buf, int64(i)*mib); err != nil {
			return 0, 0, 0, err
		}
		t := time.Now()
		if err := d.Sync(); err != nil {
			return 0, 0, 0, err
		}
		syncs = append(syncs, float64(time.Since(t).Microseconds())/1000)
	}
	return writeMiBs, readMiBs, median(syncs), nil
}

// probeColumnSort measures the local sort every pass runs: one column of
// colRecs uniform records, in million records per second.
func probeColumnSort(colRecs int) (float64, error) {
	src := record.Make(colRecs, recSize)
	dst := record.Make(colRecs, recSize)
	var sc sortalg.Scratch
	const cols = 16
	return medianRate(func() (float64, error) {
		for c := 0; c < cols; c++ {
			record.Fill(src, record.Uniform{Seed: uint64(c)}, 0)
			sc.SortInto(dst, src)
		}
		return float64(cols*colRecs) / 1e6, nil
	})
}

// probeFormation measures replacement-selection run formation over n
// records of g with a capacity-record heap, in million records per second —
// records formed, with no spill behind them. Generating the records is
// part of the time.
func probeFormation(g record.Generator, n int64, capacity int) (float64, error) {
	out := record.Make(merge.DefaultChunkRecs, recSize)
	return medianRate(func() (float64, error) {
		var idx int64
		f := runform.New(capacity, recSize, nil, func(rec []byte) (bool, error) {
			if idx == n {
				return false, nil
			}
			g.Gen(rec, idx)
			idx++
			return true, nil
		})
		defer f.Close()
		var formed int64
		for {
			_, ok, err := f.NextRun()
			if err != nil {
				return 0, err
			}
			if !ok {
				break
			}
			for {
				k, err := f.Fill(out)
				if err != nil {
					return 0, err
				}
				if k == 0 {
					break
				}
				formed += int64(k)
			}
		}
		if formed != n {
			return 0, fmt.Errorf("formation probe formed %d of %d records", formed, n)
		}
		return float64(n) / 1e6, nil
	})
}

// probeMerge measures a k-way merge of k sorted in-memory runs of runRecs
// records each, in MiB merged per second — the merge's compare and copy
// work with no disk behind it.
func probeMerge(k int, runRecs int) (float64, error) {
	runs := make([]*merge.Run, k)
	for i := range runs {
		s := record.Make(runRecs, recSize)
		record.Fill(s, record.Uniform{Seed: uint64(100 + i)}, 0)
		sortalg.Sort(s)
		w := merge.NewWriter(pdm.NewMemDisk(), recSize, merge.DefaultChunkRecs)
		if err := w.Append(s); err != nil {
			return 0, err
		}
		r, err := w.Finish()
		if err != nil {
			return 0, err
		}
		runs[i] = r
		defer r.Close()
	}
	return medianRate(func() (float64, error) {
		_, st, err := merge.Merge(context.Background(), runs, func(record.Slice) error { return nil }, merge.Options{})
		return float64(st.BytesWritten) / mib, err
	})
}

// probeRecord measures the key codec (a descending KeySpec, the
// non-identity transform) and the multiset checksum over size bytes, in
// GiB per second.
func probeRecord(size int64) (codecGiBs, checksumGiBs float64, err error) {
	s := record.Make(int(size/recSize), recSize)
	record.Fill(s, record.Uniform{Seed: 13}, 0)
	codec, err := record.KeySpec{Order: record.Descending}.Compile(recSize)
	if err != nil {
		return 0, 0, err
	}
	codecGiBs, err = medianRate(func() (float64, error) {
		codec.Encode(s)
		return float64(size) / gib, nil
	})
	if err != nil {
		return 0, 0, err
	}
	var sink record.Checksum
	checksumGiBs, err = medianRate(func() (float64, error) {
		var c record.Checksum
		c.AddSlice(s)
		sink.Merge(c)
		return float64(size) / gib, nil
	})
	return codecGiBs, checksumGiBs, err
}
