package fault

import (
	"errors"
	"fmt"
	"io"

	"odbgc/internal/simerr"
	"odbgc/internal/storage/disk"
)

// DiskChaos wraps a disk.FS with seeded, per-operation fault injection:
// torn writes (a prefix lands, the rest does not), fsync lies (Sync
// reports success without syncing), short reads, and bit rot (a flipped
// bit in read data, which the backend's checksums must catch). Like every
// injector in this package it is deterministic: rates + seed fix the
// entire fault schedule.
type DiskChaos struct {
	inner disk.FS
	rng   rng
	p     DiskFaults
	stats DiskChaosStats
}

// DiskFaults are DiskChaos's rates. They are not part of a named Profile: no
// command opens a store through DiskChaos, only tests do.
type DiskFaults struct {
	TornWriteProb float64 // per-write probability that only a prefix lands
	FsyncLieProb  float64 // per-sync probability of lying about durability
	ShortReadProb float64 // per-read probability of returning fewer bytes
	BitRotProb    float64 // per-read probability of one flipped bit
}

// DiskChaosStats counts the faults a DiskChaos has injected.
type DiskChaosStats struct {
	TornWrites uint64
	FsyncLies  uint64
	ShortReads uint64
	BitFlips   uint64
}

// NewDiskChaos wraps inner with the fault rates p.
func NewDiskChaos(inner disk.FS, p DiskFaults, seed int64) *DiskChaos {
	return &DiskChaos{inner: inner, rng: newRNG(seed), p: p}
}

// Stats returns the injected-fault counters so far.
func (c *DiskChaos) Stats() DiskChaosStats { return c.stats }

// Open implements disk.FS.
func (c *DiskChaos) Open(name string) (disk.File, error) {
	f, err := c.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &chaosFile{c: c, name: name, inner: f}, nil
}

// Remove implements disk.FS.
func (c *DiskChaos) Remove(name string) error { return c.inner.Remove(name) }

type chaosFile struct {
	c     *DiskChaos
	name  string
	inner disk.File
}

// WriteAt may tear the write: a prefix reaches the file and the call
// reports the short count with a torn-write error, as a failing device
// would. The backend sees the error before acknowledging the commit, so
// the tear is visible — the silent variant is what crashes produce, and
// the crashtest harness owns that case.
func (f *chaosFile) WriteAt(p []byte, off int64) (int, error) {
	c := f.c
	if c.p.TornWriteProb > 0 && len(p) > 1 && c.rng.float64() < c.p.TornWriteProb {
		n := 1 + c.rng.intn(len(p)-1)
		c.stats.TornWrites++
		wrote, err := f.inner.WriteAt(p[:n], off)
		if err != nil {
			return wrote, fmt.Errorf("fault: torn write underlay: %w", err)
		}
		return wrote, simerr.WrapTornWrite(
			fmt.Sprintf("fault: %s: wrote %d of %d bytes at %d", f.name, n, len(p), off), nil)
	}
	return f.inner.WriteAt(p, off)
}

// Sync may lie: report success without flushing. The loss is latent — it
// only matters if a crash follows — which is exactly how lying drives
// behave.
func (f *chaosFile) Sync() error {
	c := f.c
	if c.p.FsyncLieProb > 0 && c.rng.float64() < c.p.FsyncLieProb {
		c.stats.FsyncLies++
		return nil
	}
	return f.inner.Sync()
}

// ReadAt may return fewer bytes than asked (short read) or flip one bit in
// the data it does return (rot). Checksums downstream must refuse rotted
// pages and records.
func (f *chaosFile) ReadAt(p []byte, off int64) (int, error) {
	c := f.c
	if c.p.ShortReadProb > 0 && len(p) > 1 && c.rng.float64() < c.p.ShortReadProb {
		c.stats.ShortReads++
		n, err := f.inner.ReadAt(p[:1+c.rng.intn(len(p)-1)], off)
		if err == nil || errors.Is(err, io.EOF) {
			err = io.EOF
		}
		return n, err
	}
	n, err := f.inner.ReadAt(p, off)
	if n > 0 && c.p.BitRotProb > 0 && c.rng.float64() < c.p.BitRotProb {
		c.stats.BitFlips++
		i := c.rng.intn(n)
		p[i] ^= 1 << uint(c.rng.intn(8))
	}
	return n, err
}

func (f *chaosFile) Truncate(size int64) error { return f.inner.Truncate(size) }
func (f *chaosFile) Size() (int64, error)      { return f.inner.Size() }
func (f *chaosFile) Close() error              { return f.inner.Close() }
