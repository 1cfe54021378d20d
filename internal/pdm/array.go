package pdm

import (
	"fmt"

	"colsort/internal/sim"
)

// DiskArray is the set of D/P disks one processor owns, presented as a
// single logical byte address space striped round-robin in StripeBytes
// blocks. Sequential logical access becomes sequential access on every
// member disk (one seek each); discontiguous access costs a seek per disk
// per jump. Each array is used only by its owning processor's pipeline
// stages, so no locking is needed; accounting goes into the caller's
// sim.Counters.
type DiskArray struct {
	Disks       []Disk
	StripeBytes int64

	lastRead  []int64 // next expected sequential read offset per disk
	lastWrite []int64 // next expected sequential write offset per disk
}

// NewDiskArray stripes the given disks at stripeBytes granularity.
func NewDiskArray(disks []Disk, stripeBytes int) *DiskArray {
	if len(disks) == 0 {
		panic("pdm: empty disk array")
	}
	if stripeBytes <= 0 {
		panic(fmt.Sprintf("pdm: stripe bytes %d must be positive", stripeBytes))
	}
	n := len(disks)
	a := &DiskArray{Disks: disks, StripeBytes: int64(stripeBytes)}
	a.lastRead = make([]int64, n)
	a.lastWrite = make([]int64, n)
	for i := range a.lastRead {
		a.lastRead[i] = -1
		a.lastWrite[i] = -1
	}
	return a
}

// locate maps a logical offset to (disk index, physical offset).
func (a *DiskArray) locate(off int64) (int, int64) {
	n := int64(len(a.Disks))
	block := off / a.StripeBytes
	in := off % a.StripeBytes
	return int(block % n), (block/n)*a.StripeBytes + in
}

// ReadAt reads len(p) bytes starting at logical offset off, charging bytes
// and discontiguous segments to cnt.
func (a *DiskArray) ReadAt(cnt *sim.Counters, p []byte, off int64) error {
	return a.transfer(cnt, p, off, true)
}

// WriteAt writes len(p) bytes starting at logical offset off.
func (a *DiskArray) WriteAt(cnt *sim.Counters, p []byte, off int64) error {
	return a.transfer(cnt, p, off, false)
}

func (a *DiskArray) transfer(cnt *sim.Counters, p []byte, off int64, read bool) error {
	if off < 0 {
		return fmt.Errorf("pdm: negative logical offset %d", off)
	}
	for len(p) > 0 {
		d, phys := a.locate(off)
		chunk := int(a.StripeBytes - off%a.StripeBytes)
		if chunk > len(p) {
			chunk = len(p)
		}
		var err error
		if read {
			err = a.Disks[d].ReadAt(p[:chunk], phys)
		} else {
			err = a.Disks[d].WriteAt(p[:chunk], phys)
		}
		if err != nil {
			return err
		}
		a.charge(cnt, d, phys, chunk, read)
		p = p[chunk:]
		off += int64(chunk)
	}
	return nil
}

// charge accounts one per-disk extent of a transfer: its bytes, and a seek
// when it does not continue the disk's previous access in that direction.
func (a *DiskArray) charge(cnt *sim.Counters, d int, phys int64, n int, read bool) {
	last := a.lastWrite
	if read {
		last = a.lastRead
	}
	if cnt != nil {
		if read {
			cnt.DiskReadBytes += int64(n)
			if last[d] != phys {
				cnt.DiskReadOps++
			}
		} else {
			cnt.DiskWriteBytes += int64(n)
			if last[d] != phys {
				cnt.DiskWriteOps++
			}
		}
	}
	last[d] = phys + int64(n)
}

// chargeRead charges cnt exactly what ReadAt of n bytes at logical offset
// off would, without touching a disk: a reader that takes the bytes from
// elsewhere keeps the PDM accounting of the read it stands in for.
func (a *DiskArray) chargeRead(cnt *sim.Counters, off int64, n int) {
	for n > 0 {
		d, phys := a.locate(off)
		chunk := int(a.StripeBytes - off%a.StripeBytes)
		if chunk > n {
			chunk = n
		}
		a.charge(cnt, d, phys, chunk, true)
		n -= chunk
		off += int64(chunk)
	}
}

// Prefetch hints the member disks to stage [off, off+n) of the logical
// address space, walking the same stripe decomposition as a later ReadAt of
// the range so each per-disk extent matches the read that will consume it.
// No accounting happens here: the read is charged when it is issued.
func (a *DiskArray) Prefetch(off int64, n int) {
	if off < 0 || n <= 0 {
		return
	}
	for n > 0 {
		d, phys := a.locate(off)
		chunk := int(a.StripeBytes - off%a.StripeBytes)
		if chunk > n {
			chunk = n
		}
		if pf, ok := a.Disks[d].(Prefetcher); ok {
			pf.Prefetch(phys, chunk)
		}
		n -= chunk
		off += int64(chunk)
	}
}

// Flush drains the write-behind queues of any asynchronous member disks,
// returning the first deferred write error. A no-op on synchronous disks.
func (a *DiskArray) Flush() error {
	var first error
	for _, d := range a.Disks {
		if f, ok := d.(Flusher); ok {
			if err := f.Flush(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// Close closes all member disks, returning the first error.
func (a *DiskArray) Close() error {
	var first error
	for _, d := range a.Disks {
		if err := d.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
