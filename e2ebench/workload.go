package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"colsort/internal/record"
)

// Fixed for every workload.
const (
	recSize = 64 // bytes per record
	procs   = 4  // simulated processors
	mib     = 1 << 20
	gib     = 1 << 30
)

// workload is one named input set and the way the benchmark drives it.
// BENCHMARK.json records why each was chosen.
type workload struct {
	name string

	inputs     int   // distinct inputs, cycled through by the jobs
	inputBytes int64 // bytes per input
	memPerProc int   // Config.MemPerProc: one run (16384) or a merge (1024)
	presorted  bool  // k-disordered records instead of uniform ones
	checkpoint bool  // WithCheckpoint, a fresh manifest directory per job
	http       bool  // POST /v1/sort through an in-process server
	setups     int   // set-ups whose median is setup_s: more where each is short

	// ioFloor is the fewest bytes moved per input byte by any sort of this
	// input on this memory, and ioFloorWhy its derivation.
	ioFloor    float64
	ioFloorWhy string
}

var workloads = []workload{
	{
		name: "single-run-64m", inputs: 1, inputBytes: 64 * mib, memPerProc: 16384, setups: 5,
		ioFloor: 4, ioFloorWhy: "read input + write and read one spill (64 MiB exceeds the 4 MiB of memory) + write output",
	},
	{
		name: "merge-64m", inputs: 1, inputBytes: 64 * mib, memPerProc: 1024, setups: 5,
		ioFloor: 4, ioFloorWhy: "read input + write runs + read runs + write output",
	},
	{
		name: "durable-presorted-64m", inputs: 1, inputBytes: 64 * mib, memPerProc: 1024, setups: 5,
		presorted: true, checkpoint: true,
		ioFloor: 4, ioFloorWhy: "read input + write the one run + read it back + write output",
	},
	{
		name: "http-stream-8m", inputs: 8, inputBytes: 8 * mib, memPerProc: 16384, http: true, setups: 9,
		ioFloor: 6, ioFloorWhy: "client send + server receive + write and read one spill + server send + client receive",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// records is the record count of one input.
func (w workload) records() int64 { return w.inputBytes / recSize }

// generator returns the record generator of input i under seed. Every
// input of every workload draws from its own stream. The presorted input
// is k-disordered: every key lies within 64 positions of its sorted place,
// so the input has real inversions but still forms one run.
func (w workload) generator(seed uint64, i int) record.Generator {
	s := record.Hash64(seed ^ record.Hash64(uint64(i)+1))
	if w.presorted {
		return record.Disordered{Seed: s}
	}
	return record.Uniform{Seed: s}
}

// body streams input i under seed from its generator, so whoever sends or
// sorts it holds no copy of the whole input.
func (w workload) body(seed uint64, i int) io.Reader {
	return &genReader{g: w.generator(seed, i), n: w.records(), buf: make([]byte, 0, genChunk*recSize)}
}

// genChunk is the number of records genReader generates at a time.
const genChunk = 1024

type genReader struct {
	g       record.Generator
	next, n int64 // the next record to generate, and the record count
	buf     []byte
	off     int // bytes of buf already read
}

func (r *genReader) Read(p []byte) (int, error) {
	if r.off == len(r.buf) {
		if r.next == r.n {
			return 0, io.EOF
		}
		k := min(genChunk, r.n-r.next)
		r.buf = r.buf[:k*recSize]
		record.Fill(record.Slice{Data: r.buf, Size: recSize}, r.g, r.next)
		r.next += k
		r.off = 0
	}
	n := copy(p, r.buf[r.off:])
	r.off += n
	return n, nil
}

// input is one generated input with its untimed reference: the SHA-256 of
// the input bytes and of the same records sorted by bytes.Compare.
type input struct {
	data    []byte
	inHash  [32]byte
	refHash [32]byte
}

// makeInputs generates the workload's inputs from seed and builds the
// reference for each.
func makeInputs(w workload, seed uint64) []input {
	ins := make([]input, w.inputs)
	for i := range ins {
		data := make([]byte, w.inputBytes)
		record.Fill(record.Slice{Data: data, Size: recSize}, w.generator(seed, i), 0)
		ins[i] = input{data: data, inHash: sha256.Sum256(data), refHash: referenceHash(data)}
	}
	return ins
}

// referenceHash sorts the records of data by bytes.Compare — independently
// of the program under test — and returns the SHA-256 of the sorted bytes.
func referenceHash(data []byte) [32]byte {
	n := len(data) / recSize
	idx := make([]int32, n)
	keys := make([]uint64, n)
	for i := range idx {
		idx[i] = int32(i)
		keys[i] = binary.BigEndian.Uint64(data[i*recSize:])
	}
	// The 8-byte big-endian prefix orders like bytes.Compare on those
	// bytes; only equal prefixes fall through to the full comparison.
	slices.SortFunc(idx, func(a, b int32) int {
		if ka, kb := keys[a], keys[b]; ka != kb {
			if ka < kb {
				return -1
			}
			return 1
		}
		return bytes.Compare(data[int(a)*recSize:int(a+1)*recSize], data[int(b)*recSize:int(b+1)*recSize])
	})
	h := sha256.New()
	for _, i := range idx {
		h.Write(data[int(i)*recSize : int(i+1)*recSize])
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

func (in input) String() string {
	return fmt.Sprintf("%d B in=%x ref=%x", len(in.data), in.inHash[:6], in.refHash[:6])
}
