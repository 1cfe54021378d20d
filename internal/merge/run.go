// Package merge implements the hierarchical execution layer that lifts the
// library past any single columnsort run's problem-size bound: bounded
// sorted RUNS (each produced by one engine execution) spilled onto simulated
// disks, then combined by a loser-tree k-way streaming merge with overlapped
// I/O — the classic external-sort structure (run formation + multiway merge)
// engineered on top of the paper's algorithms.
//
// A Run lives on ONE pdm.Disk as a flat sequence of fixed-size records in
// sorted order. Writers buffer records into large sequential WriteAt calls
// (which an AsyncDisk retires in the background — write-behind); Readers
// stream chunks back, hinting each next chunk to the disk's Prefetcher one
// step ahead of consumption, so the merge's compare/copy work overlaps every
// run's disk service time — the multi-run prefetch schedule is simply
// one-ahead per run, k-wide.
package merge

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"colsort/internal/pdm"
	"colsort/internal/record"
)

// castagnoli is the CRC32C polynomial table framing every spilled run
// chunk — the same integrity check production storage formats use, with
// hardware support on every platform the sort runs on.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Run is a finished sorted run: Records records of RecSize bytes, stored
// contiguously from offset 0 of Disk. The Run owns the disk; Close releases
// it (removing a file-backed spill).
//
// Runs written by Writer are CRC-framed: every FrameBytes-aligned chunk
// (the last one shorter) has its CRC32C recorded in a sidecar index that
// lives with the Run, computed from the writer's buffer BEFORE the bytes
// enter the write path. Readers verify each chunk as it is loaded, so bit
// rot, torn writes and in-flight corruption on the spill path are detected
// (ErrCorrupt) instead of flowing silently into "verified" output.
type Run struct {
	Disk    pdm.Disk
	RecSize int
	Records int64

	// Descending marks a run spilled in descending order (replacement
	// selection's "down" runs). Such runs are consumed through a
	// ReverseReader so every merge input is ascending; the on-disk layout
	// and CRC framing are identical to an ascending run's.
	Descending bool

	// FrameBytes is the CRC frame length (0: unframed legacy run); crcs[i]
	// is the CRC32C of bytes [i·FrameBytes, min((i+1)·FrameBytes, Bytes())).
	FrameBytes int
	crcs       []uint32
}

// framed reports whether the run carries a CRC sidecar index.
func (r *Run) framed() bool { return r.FrameBytes > 0 && r.crcs != nil }

// CRCs returns the run's CRC32C sidecar index (nil for an unframed run).
// The caller must not mutate it; it is exposed so a durability layer can
// persist the sidecar alongside the run and hand it back to Reopen.
func (r *Run) CRCs() []uint32 { return r.crcs }

// Reopen reconstructs a Run around an already-written disk from persisted
// metadata — the resume path's counterpart to Writer.Finish. The crcs slice
// is the sidecar a manifest recorded when the run was spilled; the reopened
// run verifies every frame against it on read, so a run damaged between the
// crash and the resume is detected exactly like in-flight corruption.
func Reopen(d pdm.Disk, recSize int, records int64, descending bool, frameBytes int, crcs []uint32) *Run {
	return &Run{
		Disk:       d,
		RecSize:    recSize,
		Records:    records,
		Descending: descending,
		FrameBytes: frameBytes,
		crcs:       crcs,
	}
}

// readFrameVerified reads the frame-aligned extent [off, off+len(buf)) and
// verifies its CRC32C. On mismatch the read is re-issued once directly —
// the corrupt bytes may have come from a damaged prefetch staging or a
// transient in-flight corruption, and any staged extent at this offset was
// consumed (invalidated) by the first read — before the chunk is declared
// lost with ErrCorrupt. faults, when non-nil, counts detections and heals.
func (r *Run) readFrameVerified(buf []byte, off int64, faults *pdm.FaultStats) error {
	if err := r.Disk.ReadAt(buf, off); err != nil {
		return fmt.Errorf("merge: read run: %w", err)
	}
	if !r.framed() {
		return nil
	}
	idx := int(off / int64(r.FrameBytes))
	if idx >= len(r.crcs) || off%int64(r.FrameBytes) != 0 {
		return fmt.Errorf("merge: unaligned framed read at offset %d (frame %d bytes, %d frames)", off, r.FrameBytes, len(r.crcs))
	}
	if crc32.Checksum(buf, castagnoli) == r.crcs[idx] {
		return nil
	}
	if faults != nil {
		faults.CorruptChunks.Add(1)
	}
	if err := r.Disk.ReadAt(buf, off); err != nil {
		return fmt.Errorf("merge: reread of corrupt run chunk: %w", err)
	}
	if crc32.Checksum(buf, castagnoli) == r.crcs[idx] {
		if faults != nil {
			faults.Rereads.Add(1)
		}
		return nil
	}
	return fmt.Errorf("%w: frame %d at run offset %d (+%d bytes)", ErrCorrupt, idx, off, len(buf))
}

// Scrub re-reads the whole run sequentially, verifying every CRC frame
// (with the same one-reread fallback the merge readers use, so only
// PERSISTENT corruption — a torn write, on-disk bit rot — fails it). It is
// the post-spill readback that catches silent write-path corruption while
// the batch that produced the run can still be redone.
func (r *Run) Scrub(ctx context.Context, faults *pdm.FaultStats) error {
	if !r.framed() {
		return nil
	}
	buf := make([]byte, r.FrameBytes)
	left := r.Bytes()
	var off int64
	for left > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		n := int64(len(buf))
		if n > left {
			n = left
		}
		if err := r.readFrameVerified(buf[:n], off, faults); err != nil {
			return fmt.Errorf("scrub: %w", err)
		}
		off += n
		left -= n
	}
	return nil
}

// Bytes returns the run's payload size.
func (r *Run) Bytes() int64 { return r.Records * int64(r.RecSize) }

// Close releases the backing disk.
func (r *Run) Close() error {
	if r.Disk == nil {
		return nil
	}
	err := r.Disk.Close()
	r.Disk = nil
	return err
}

// Writer appends records sequentially onto a disk, coalescing them into
// chunkRecs-record WriteAt calls so the disk sees large sequential writes
// (and an async disk overlaps them with the producer). The caller owns the
// disk until Finish succeeds, after which the returned Run does.
type Writer struct {
	d       pdm.Disk
	recSize int
	buf     []byte
	used    int
	off     int64
	records int64
	crcs    []uint32
}

// NewWriter starts a run of recSize-byte records on d, buffering chunkRecs
// records per write.
func NewWriter(d pdm.Disk, recSize, chunkRecs int) *Writer {
	if chunkRecs < 1 {
		chunkRecs = 1
	}
	return &Writer{d: d, recSize: recSize, buf: make([]byte, chunkRecs*recSize)}
}

// Append adds the records of recs to the run.
func (w *Writer) Append(recs record.Slice) error {
	if recs.Size != w.recSize {
		return fmt.Errorf("merge: appending %d-byte records to a %d-byte run", recs.Size, w.recSize)
	}
	data := recs.Data
	for len(data) > 0 {
		n := copy(w.buf[w.used:], data)
		w.used += n
		data = data[n:]
		if w.used == len(w.buf) {
			if err := w.flush(); err != nil {
				return err
			}
		}
	}
	w.records += int64(recs.Len())
	return nil
}

func (w *Writer) flush() error {
	if w.used == 0 {
		return nil
	}
	// Frame the chunk BEFORE it enters the write path: the CRC fingerprints
	// what the merge handed us, so anything the storage stack loses or
	// mangles afterwards — a torn write-behind, bit rot on the spill disk,
	// corruption on the later read — fails verification.
	w.crcs = append(w.crcs, crc32.Checksum(w.buf[:w.used], castagnoli))
	if err := w.d.WriteAt(w.buf[:w.used], w.off); err != nil {
		return fmt.Errorf("merge: write run: %w", err)
	}
	w.off += int64(w.used)
	w.used = 0
	return nil
}

// Finish flushes the tail, drains any write-behind queue, and returns the
// completed Run (which now owns the disk). On error the caller still owns
// the disk and must close it.
func (w *Writer) Finish() (*Run, error) {
	if err := w.flush(); err != nil {
		return nil, err
	}
	if fl, ok := w.d.(pdm.Flusher); ok {
		if err := fl.Flush(); err != nil {
			return nil, fmt.Errorf("merge: flush run: %w", err)
		}
	}
	return &Run{Disk: w.d, RecSize: w.recSize, Records: w.records,
		FrameBytes: len(w.buf), crcs: w.crcs}, nil
}

// Reader streams a run's records in order. Each chunk load hints the NEXT
// chunk (exact offset and length) to the disk's Prefetcher, so on
// async-backed disks the blocking ReadAt of chunk i executes while chunk
// i+1 is being staged — and across the k readers of a merge, k fetches are
// in flight at once.
type Reader struct {
	run       *Run
	chunk     []byte
	cur       []byte // current chunk's live bytes
	pos       int    // byte position of the current record within cur
	key       uint64 // 8-byte key prefix of the current record
	off       int64  // disk offset of the next chunk to load
	bytesLeft int64  // unread bytes beyond cur
	bytesRead int64  // total bytes loaded (stats)
	primed    bool

	faults *pdm.FaultStats // CRC detection/heal counters; may be nil
}

// NewReader opens a sequential reader over run, loading chunkRecs records
// per disk read. A CRC-framed run overrides the chunk size with its frame
// length, so every load is exactly one verifiable frame.
func NewReader(run *Run, chunkRecs int) *Reader {
	if chunkRecs < 1 {
		chunkRecs = 1
	}
	chunkBytes := chunkRecs * run.RecSize
	if run.framed() {
		chunkBytes = run.FrameBytes
	}
	return &Reader{
		run:       run,
		chunk:     make([]byte, chunkBytes),
		bytesLeft: run.Bytes(),
	}
}

// nextExtent returns the offset and length of the next chunk to load.
func (r *Reader) nextExtent() (int64, int) {
	n := int64(len(r.chunk))
	if n > r.bytesLeft {
		n = r.bytesLeft
	}
	return r.off, int(n)
}

// load reads the next chunk and hints the one after it.
func (r *Reader) load() error {
	off, n := r.nextExtent()
	if n == 0 {
		r.cur, r.key = nil, record.MaxKey
		return nil
	}
	buf := r.chunk[:n]
	if err := r.run.readFrameVerified(buf, off, r.faults); err != nil {
		return err
	}
	r.off = off + int64(n)
	r.bytesLeft -= int64(n)
	r.bytesRead += int64(n)
	r.cur, r.pos = buf, 0
	r.key = binary.BigEndian.Uint64(buf)
	if p, ok := r.run.Disk.(pdm.Prefetcher); ok {
		if noff, nn := r.nextExtent(); nn > 0 {
			p.Prefetch(noff, nn)
		}
	}
	return nil
}

// Cur returns the current record's bytes, or nil when the run is exhausted.
// The first call loads (and starts prefetching) the run.
func (r *Reader) Cur() []byte {
	if r.pos >= len(r.cur) {
		return nil
	}
	return r.cur[r.pos : r.pos+r.run.RecSize]
}

// Key returns the current record's 8-byte big-endian key prefix, cached at
// each advance so merge comparisons need not touch the chunk bytes, or
// record.MaxKey once the run is exhausted.
func (r *Reader) Key() uint64 { return r.key }

// Prime loads the first chunk and hints the second; it must be called once
// before Cur/Advance.
func (r *Reader) Prime() error {
	if r.primed {
		return nil
	}
	r.primed = true
	if p, ok := r.run.Disk.(pdm.Prefetcher); ok {
		if off, n := r.nextExtent(); n > 0 {
			p.Prefetch(off, n)
		}
	}
	return r.load()
}

// Advance moves past the current record, loading the next chunk when the
// current one is consumed and refreshing the cached key prefix.
func (r *Reader) Advance() error {
	r.pos += r.run.RecSize
	if r.pos >= len(r.cur) {
		if r.bytesLeft > 0 {
			return r.load()
		}
		r.key = record.MaxKey
		return nil
	}
	r.key = binary.BigEndian.Uint64(r.cur[r.pos:])
	return nil
}

// BytesRead returns the bytes loaded so far (stats).
func (r *Reader) BytesRead() int64 { return r.bytesRead }

// runReader is the stream contract the loser tree merges over: Reader for
// ascending runs, ReverseReader for descending ones. Both present records
// in ASCENDING order with a cached 8-byte key prefix (record.MaxKey once
// exhausted).
type runReader interface {
	Prime() error
	Cur() []byte
	Key() uint64
	Advance() error
	BytesRead() int64
}

// newRunReader opens the appropriate reader for the run's spill
// orientation, wiring the fault counters through.
func newRunReader(run *Run, chunkRecs int, faults *pdm.FaultStats) runReader {
	if run.Descending {
		rr := NewReverseReader(run, chunkRecs)
		rr.faults = faults
		return rr
	}
	r := NewReader(run, chunkRecs)
	r.faults = faults
	return r
}

// ReverseReader streams a DESCENDING run's records in ASCENDING order by
// walking the run backwards: chunks are loaded last to first and records
// consumed back to front within each chunk. Loads stay on the same
// frame-aligned grid a forward Reader uses (anchored at offset 0), so CRC
// verification — including the alignment invariant of readFrameVerified
// and its one-reread healing — applies unchanged; only the visit order
// flips. Each load hints the PREVIOUS extent to the disk's Prefetcher, the
// mirror image of the forward reader's one-ahead schedule.
type ReverseReader struct {
	run        *Run
	chunk      []byte
	cur        []byte // current chunk's live bytes
	pos        int    // byte position of the current record within cur (walks down)
	key        uint64 // 8-byte key prefix of the current record
	frame      int64  // index of the next chunk to load, counting down; -1 when none left
	chunkBytes int64
	bytesRead  int64
	primed     bool

	faults *pdm.FaultStats // CRC detection/heal counters; may be nil
}

// NewReverseReader opens a backwards reader over run, loading chunkRecs
// records per disk read. A CRC-framed run overrides the chunk size with its
// frame length, so every load is exactly one verifiable frame.
func NewReverseReader(run *Run, chunkRecs int) *ReverseReader {
	if chunkRecs < 1 {
		chunkRecs = 1
	}
	chunkBytes := int64(chunkRecs * run.RecSize)
	if run.framed() {
		chunkBytes = int64(run.FrameBytes)
	}
	frames := (run.Bytes() + chunkBytes - 1) / chunkBytes
	return &ReverseReader{
		run:        run,
		chunk:      make([]byte, chunkBytes),
		chunkBytes: chunkBytes,
		frame:      frames - 1,
		pos:        -1,
	}
}

// extentOf returns the offset and length of grid chunk i (only the last
// chunk of the run may be short).
func (r *ReverseReader) extentOf(i int64) (int64, int) {
	off := i * r.chunkBytes
	n := r.run.Bytes() - off
	if n > r.chunkBytes {
		n = r.chunkBytes
	}
	return off, int(n)
}

// load reads the next chunk (one lower on the grid) and hints the one
// before it, positioning on the chunk's LAST record.
func (r *ReverseReader) load() error {
	if r.frame < 0 {
		r.cur, r.pos, r.key = nil, -1, record.MaxKey
		return nil
	}
	off, n := r.extentOf(r.frame)
	buf := r.chunk[:n]
	if err := r.run.readFrameVerified(buf, off, r.faults); err != nil {
		return err
	}
	r.frame--
	r.bytesRead += int64(n)
	r.cur = buf
	r.pos = n - r.run.RecSize
	r.key = binary.BigEndian.Uint64(buf[r.pos:])
	if p, ok := r.run.Disk.(pdm.Prefetcher); ok && r.frame >= 0 {
		poff, pn := r.extentOf(r.frame)
		p.Prefetch(poff, pn)
	}
	return nil
}

// Prime loads the last chunk (the smallest records) and hints the one
// before it; it must be called once before Cur/Advance.
func (r *ReverseReader) Prime() error {
	if r.primed {
		return nil
	}
	r.primed = true
	if p, ok := r.run.Disk.(pdm.Prefetcher); ok && r.frame >= 0 {
		off, n := r.extentOf(r.frame)
		p.Prefetch(off, n)
	}
	return r.load()
}

// Cur returns the current record's bytes, or nil when the run is exhausted.
func (r *ReverseReader) Cur() []byte {
	if r.pos < 0 {
		return nil
	}
	return r.cur[r.pos : r.pos+r.run.RecSize]
}

// Key returns the current record's cached 8-byte big-endian key prefix, or
// record.MaxKey once the run is exhausted.
func (r *ReverseReader) Key() uint64 { return r.key }

// Advance moves to the previous on-disk record (the next in ascending
// order), loading the preceding chunk when the current one is consumed.
func (r *ReverseReader) Advance() error {
	r.pos -= r.run.RecSize
	if r.pos < 0 {
		return r.load()
	}
	r.key = binary.BigEndian.Uint64(r.cur[r.pos:])
	return nil
}

// BytesRead returns the bytes loaded so far (stats).
func (r *ReverseReader) BytesRead() int64 { return r.bytesRead }
