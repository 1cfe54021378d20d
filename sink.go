package colsort

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"colsort/internal/record"
)

// A Sink receives a Sort's output: the real records (padding excluded), in
// global column-major sorted order, with any KeySpec normalization already
// undone. Single-run sorts verify the output (sortedness + multiset)
// BEFORE opening the sink, so a failed sort never emits a plausible-looking
// result, and hold every segment they re-read for the sink to the CRC32-C
// verification recorded: a segment that still reads back wrong after one
// re-read fails the sort with ErrCorruptOutput, after the segments before
// it reached the sink. Hierarchical (above-bound) sorts necessarily verify
// in-stream — every run is verified before merging, the merged order is
// checked record by record, and the multiset at end of stream — so bytes
// may reach the sink before a late failure is detected. Either way, when
// Sort returns an error the sink's contents must be discarded. Implementations should therefore not
// publish or commit their output before Sort itself returns nil.
type Sink interface {
	// Open prepares the sink for records of recSize bytes. Sort writes the
	// whole output and then closes the writer exactly once.
	Open(recSize int) (w RecordWriter, err error)
}

// RecordWriter consumes sorted records in order.
type RecordWriter interface {
	// Write appends the records of recs. The slice's backing memory is
	// reused after Write returns; implementations must copy what they keep.
	Write(recs record.Slice) error
	// Close flushes and releases the writer.
	Close() error
}

// ToFile writes the sorted records into a newly created file at path.
func ToFile(path string) Sink {
	return &fileSink{path: path}
}

type fileSink struct{ path string }

func (s *fileSink) Open(int) (RecordWriter, error) {
	f, err := os.Create(s.path)
	if err != nil {
		return nil, fmt.Errorf("colsort: %w", err)
	}
	return &fileWriter{path: s.path, f: f, w: bufio.NewWriterSize(f, 1<<20)}, nil
}

type fileWriter struct {
	path string
	f    *os.File
	w    *bufio.Writer
}

func (fw *fileWriter) Write(recs record.Slice) error {
	if _, err := fw.w.Write(recs.Data); err != nil {
		return fmt.Errorf("colsort: write %s: %w", fw.path, err)
	}
	return nil
}

func (fw *fileWriter) Close() error {
	if err := fw.w.Flush(); err != nil {
		fw.f.Close()
		return fmt.Errorf("colsort: write %s: %w", fw.path, err)
	}
	if err := fw.f.Close(); err != nil {
		return fmt.Errorf("colsort: close %s: %w", fw.path, err)
	}
	return nil
}

// ToWriter streams the sorted records into w, which is not closed.
func ToWriter(w io.Writer) Sink {
	return &writerSink{w: w}
}

type writerSink struct{ w io.Writer }

func (s *writerSink) Open(int) (RecordWriter, error) {
	if s.w == nil {
		return nil, fmt.Errorf("colsort: nil writer")
	}
	return &writerWriter{w: s.w}, nil
}

type writerWriter struct{ w io.Writer }

func (ww *writerWriter) Write(recs record.Slice) error {
	if _, err := ww.w.Write(recs.Data); err != nil {
		return fmt.Errorf("colsort: write output: %w", err)
	}
	return nil
}

func (ww *writerWriter) Close() error { return nil }

// Discard drains and drops the sorted output. Useful to exercise the full
// egress path (verification, decode, streaming) when only the Result's
// counters matter.
func Discard() Sink { return discardSink{} }

type discardSink struct{}

func (discardSink) Open(int) (RecordWriter, error) { return discardWriter{}, nil }

type discardWriter struct{}

func (discardWriter) Write(record.Slice) error { return nil }
func (discardWriter) Close() error             { return nil }
