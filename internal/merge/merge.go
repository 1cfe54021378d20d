package merge

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"

	"colsort/internal/ltree"
	"colsort/internal/pdm"
	"colsort/internal/record"
)

// ErrOrder reports a merge input that was not actually sorted — streaming
// verification caught a record smaller than its predecessor in the output.
var ErrOrder = errors.New("merge: output order violated (corrupt run)")

// ErrCorrupt reports a CRC-framed run chunk whose bytes no longer match the
// checksum recorded when the run was written — and still don't after one
// direct reread. The wrapping error carries the frame index and run offset.
var ErrCorrupt = errors.New("merge: run chunk failed CRC verification")

// Options tunes one merge.
type Options struct {
	// ChunkRecs is the records per emitted chunk and per run-read chunk
	// (< 1 selects DefaultChunkRecs). Peak merge memory is roughly
	// (k + emitDepth + 1) · ChunkRecs · recSize bytes for k runs.
	ChunkRecs int
	// Progress, when non-nil, receives the cumulative emitted record count
	// after each chunk. Called from the merge goroutine, sequentially.
	Progress func(merged int64)
	// Faults, when non-nil, counts CRC corruption detections and
	// reread heals observed while loading the input runs.
	Faults *pdm.FaultStats
}

// DefaultChunkRecs is the chunk size used when Options does not set one.
const DefaultChunkRecs = 1 << 12

// emitDepth is the write-behind depth of the emit stage: chunks in flight
// between the merge loop and the consumer.
const emitDepth = 3

// Stats reports what one merge moved.
type Stats struct {
	Records      int64 // records emitted
	BytesRead    int64 // bytes loaded from the input runs
	BytesWritten int64 // bytes handed to emit
}

// Merge combines the sorted runs into one sorted stream, calling emit with
// successive chunks of records in total order. The records flow straight
// from the run disks to emit — nothing is materialized — and emit runs on a
// background goroutine (write-behind on the merged output), overlapping the
// sink's own I/O with the merge's compare/copy work and the runs' prefetch.
//
// The stream is verified as it flows: every emitted record is checked
// against its predecessor (ErrOrder on violation — a corrupt run can never
// produce a silently unsorted output) and the returned Checksum fingerprints
// the emitted multiset for the caller to compare against its ingest
// checksum. Ties between runs break by run index, so a merge is
// deterministic for any input.
//
// Cancelling ctx aborts between chunks; the emit goroutine is always joined
// before Merge returns, whatever the outcome, so no goroutine outlives the
// call. Chunk buffers are recycled internally; emit must not retain its
// argument past return.
func Merge(ctx context.Context, runs []*Run, emit func(record.Slice) error, opt Options) (record.Checksum, Stats, error) {
	return merge(ctx, runs, emit, opt, true)
}

// merge is Merge with the multiset checksum optional: MergeToRun has no
// ingest checksum to compare against. The order check runs either way.
func merge(ctx context.Context, runs []*Run, emit func(record.Slice) error, opt Options, sum bool) (record.Checksum, Stats, error) {
	var cs record.Checksum
	var st Stats
	if len(runs) == 0 {
		return cs, st, nil
	}
	z := runs[0].RecSize
	for i, r := range runs {
		if r.RecSize != z {
			return cs, st, fmt.Errorf("merge: run %d has %d-byte records, run 0 has %d", i, r.RecSize, z)
		}
	}
	chunkRecs := opt.ChunkRecs
	if chunkRecs < 1 {
		chunkRecs = DefaultChunkRecs
	}

	readers := make([]runReader, len(runs))
	for i, r := range runs {
		readers[i] = newRunReader(r, chunkRecs, opt.Faults)
	}
	for _, rd := range readers {
		if err := rd.Prime(); err != nil {
			return cs, st, err
		}
	}
	t := ltree.New(len(readers), func(a, b int32) bool {
		ca, cb := readers[a].Cur(), readers[b].Cur()
		if ca == nil || cb == nil {
			return ca != nil // an exhausted run's MaxKey can tie a live maximal record
		}
		if c := bytes.Compare(ca, cb); c != 0 {
			return c < 0
		}
		return a < b
	})
	t.Build(func(r int32) uint64 { return readers[r].Key() })

	// Emit write-behind: the worker drains full chunks and recycles the
	// buffers; after its first error it stops calling emit but keeps
	// recycling, so the merge loop can never deadlock on a dead sink.
	full := make(chan record.Slice, emitDepth)
	free := make(chan record.Slice, emitDepth)
	for i := 0; i < emitDepth; i++ {
		free <- record.Make(chunkRecs, z)
	}
	var emitMu sync.Mutex
	var emitErr error
	var done sync.WaitGroup
	done.Add(1)
	go func() {
		defer done.Done()
		for c := range full {
			emitMu.Lock()
			failed := emitErr != nil
			emitMu.Unlock()
			if !failed {
				if err := emit(c); err != nil {
					emitMu.Lock()
					emitErr = err
					emitMu.Unlock()
				}
			}
			free <- c.Sub(0, chunkRecs)
		}
	}()
	finish := func(err error) (record.Checksum, Stats, error) {
		close(full)
		done.Wait()
		for _, rd := range readers {
			st.BytesRead += rd.BytesRead()
		}
		if err == nil {
			emitMu.Lock()
			err = emitErr
			emitMu.Unlock()
		}
		return cs, st, err
	}

	// The order check compares cached prefixes first, full bytes only on
	// equal prefixes. A record's predecessor is the one copied out just
	// before it; prev carries a chunk's last record into the next chunk and
	// starts as the all-zero record, which nothing sorts below.
	prev := make([]byte, z)
	var prevKey uint64
	var total int64
	for _, r := range runs {
		total += r.Records
	}
	for st.Records < total {
		if err := ctx.Err(); err != nil {
			return finish(err)
		}
		emitMu.Lock()
		failed := emitErr != nil
		emitMu.Unlock()
		if failed {
			return finish(nil) // finish surfaces emitErr
		}
		buf := <-free
		want := chunkRecs
		if left := total - st.Records; left < int64(want) {
			want = int(left)
		}
		out := buf.Sub(0, want)
		last := prev
		for i := 0; i < want; i++ {
			w, key := t.Winner()
			rd := readers[w]
			rec := rd.Cur()
			if rec == nil {
				return finish(fmt.Errorf("merge: runs exhausted after %d of %d records (inconsistent run lengths)", st.Records+int64(i), total))
			}
			if key < prevKey || key == prevKey && bytes.Compare(rec, last) < 0 {
				return finish(fmt.Errorf("%w at record %d", ErrOrder, st.Records+int64(i)))
			}
			last = out.Record(i)
			copy(last, rec)
			prevKey = key
			if sum {
				cs.Add(rec)
			}
			if err := rd.Advance(); err != nil {
				return finish(fmt.Errorf("merge: run %d: %w", w, err))
			}
			t.Replay(w, rd.Key())
		}
		copy(prev, last)
		st.Records += int64(want)
		st.BytesWritten += int64(want * z)
		full <- out
		if opt.Progress != nil {
			opt.Progress(st.Records)
		}
	}
	return finish(nil)
}

// MergeToRun merges runs into a new run on disk d — one node of a
// multi-level merge tree. On success the returned Run owns d; on error the
// caller still owns d.
func MergeToRun(ctx context.Context, runs []*Run, d pdm.Disk, opt Options) (*Run, Stats, error) {
	if len(runs) == 0 {
		return nil, Stats{}, fmt.Errorf("merge: no runs to merge")
	}
	chunkRecs := opt.ChunkRecs
	if chunkRecs < 1 {
		chunkRecs = DefaultChunkRecs
	}
	w := NewWriter(d, runs[0].RecSize, chunkRecs)
	_, st, err := merge(ctx, runs, w.Append, opt, false)
	if err != nil {
		return nil, st, err
	}
	out, err := w.Finish()
	return out, st, err
}
