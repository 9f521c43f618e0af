package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"odbgc/internal/storage/disk"
)

// syncStall is the modelled device latency of one Sync. The sandbox has no
// device whose flush time repeats (see README, "Sizing evidence"), so the
// harness's FS charges every Sync this much instead of calling fsync.
const syncStall = 200 * time.Microsecond

// deviceFS is the disk.FS the durable workloads run on: real files under dir,
// with every call counted, every Sync replaced by the modelled stall, and the
// durable prefix of each file tracked so a crash image (only what was synced)
// can be materialised afterwards.
type deviceFS struct {
	dir   string
	inner disk.OSFS
	tc    *traceCtx // nil when no spans are recorded

	// armed gates the stall: preload and verification run without it so
	// set-up does not spend most of its time in the model.
	armed atomic.Bool

	writes, writeBytes atomic.Int64
	walBytes           atomic.Int64 // bytes written to wal.log
	pageBytes          atomic.Int64 // bytes written to heap.db
	reads, readBytes   atomic.Int64
	syncs, truncates   atomic.Int64

	mu    sync.Mutex
	files map[string]*fileState
}

// fileState is what a crash would leave of one file.
type fileState struct {
	size      int64
	syncedLen int64 // size at the last Sync
	dirty     bool  // written or truncated since the last Sync
	// rewroteSynced is set when bytes below syncedLen changed after the last
	// Sync: the synced prefix on disk is then no longer what was synced, and
	// no honest crash image of the file can be cut from it.
	rewroteSynced bool
}

func newDeviceFS(dir string, tc *traceCtx) *deviceFS {
	return &deviceFS{dir: dir, inner: disk.OSFS{Dir: dir}, tc: tc, files: make(map[string]*fileState)}
}

// Open implements disk.FS.
func (d *deviceFS) Open(name string) (disk.File, error) {
	f, err := d.inner.Open(name)
	if err != nil {
		return nil, err
	}
	size, err := f.Size()
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	d.mu.Lock()
	st, ok := d.files[name]
	if !ok {
		// A file found on open was put there by a closed store, which
		// synced it.
		st = &fileState{size: size, syncedLen: size}
		d.files[name] = st
	}
	d.mu.Unlock()
	return &deviceFile{fs: d, name: name, st: st, inner: f}, nil
}

// Remove implements disk.FS.
func (d *deviceFS) Remove(name string) error {
	d.mu.Lock()
	delete(d.files, name)
	d.mu.Unlock()
	return d.inner.Remove(name)
}

// fsCounts is a snapshot of the device counters.
type fsCounts struct {
	writes, writeBytes, walBytes, pageBytes, reads, readBytes, syncs, truncates int64
}

func (d *deviceFS) counts() fsCounts {
	return fsCounts{
		writes: d.writes.Load(), writeBytes: d.writeBytes.Load(),
		walBytes: d.walBytes.Load(), pageBytes: d.pageBytes.Load(),
		reads: d.reads.Load(), readBytes: d.readBytes.Load(),
		syncs: d.syncs.Load(), truncates: d.truncates.Load(),
	}
}

func (c fsCounts) sub(o fsCounts) fsCounts {
	return fsCounts{
		writes: c.writes - o.writes, writeBytes: c.writeBytes - o.writeBytes,
		walBytes: c.walBytes - o.walBytes, pageBytes: c.pageBytes - o.pageBytes,
		reads: c.reads - o.reads, readBytes: c.readBytes - o.readBytes,
		syncs: c.syncs - o.syncs, truncates: c.truncates - o.truncates,
	}
}

// crashImage writes into dst what a power cut at this instant would leave:
// for each file, the bytes that were there at its last Sync. It fails when a
// file's synced prefix was rewritten since (heap.db dirty at quiescence), as
// that state cannot be reconstructed from the file. Call it only while no
// goroutine is using the FS.
func (d *deviceFS) crashImage(dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	names := make([]string, 0, len(d.files))
	for name := range d.files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := d.files[name]
		if st.rewroteSynced {
			return fmt.Errorf("%s: synced bytes were rewritten after the last Sync (dirty at quiescence)", name)
		}
		src, err := os.Open(filepath.Join(d.dir, name))
		if err != nil {
			return err
		}
		out, err := os.Create(filepath.Join(dst, name))
		if err != nil {
			_ = src.Close()
			return err
		}
		_, err = io.CopyN(out, src, st.syncedLen)
		_ = src.Close()
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("crash image of %s (%d synced bytes): %w", name, st.syncedLen, err)
		}
	}
	return nil
}

// deviceFile is one open file of a deviceFS.
type deviceFile struct {
	fs    *deviceFS
	name  string
	st    *fileState
	inner disk.File
}

func (f *deviceFile) ReadAt(p []byte, off int64) (int, error) {
	h := f.fs.tc.push("device.read")
	n, err := f.inner.ReadAt(p, off)
	f.fs.tc.pop(h)
	f.fs.reads.Add(1)
	f.fs.readBytes.Add(int64(n))
	return n, err
}

func (f *deviceFile) WriteAt(p []byte, off int64) (int, error) {
	h := f.fs.tc.push("device.write")
	n, err := f.inner.WriteAt(p, off)
	f.fs.tc.pop(h)
	f.fs.writes.Add(1)
	f.fs.writeBytes.Add(int64(n))
	if f.name == "wal.log" {
		f.fs.walBytes.Add(int64(n))
	} else {
		f.fs.pageBytes.Add(int64(n))
	}
	f.fs.mu.Lock()
	f.st.dirty = true
	if off < f.st.syncedLen {
		f.st.rewroteSynced = true
	}
	f.st.size = max(f.st.size, off+int64(n))
	f.fs.mu.Unlock()
	return n, err
}

func (f *deviceFile) Size() (int64, error) { return f.inner.Size() }

func (f *deviceFile) Truncate(size int64) error {
	h := f.fs.tc.push("device.truncate")
	err := f.inner.Truncate(size)
	f.fs.tc.pop(h)
	f.fs.truncates.Add(1)
	f.fs.mu.Lock()
	f.st.dirty = true
	if size < f.st.syncedLen {
		f.st.rewroteSynced = true
	}
	f.st.size = size
	f.fs.mu.Unlock()
	return err
}

// Sync models the device flush: it marks the file's current contents durable
// and, when armed, holds the caller for syncStall. The wait yields the
// processor instead of sleeping because time.Sleep(200µs) sleeps about 1.1 ms
// on this kernel; yielding lets the session goroutines run meanwhile, as they
// would during a real flush.
func (f *deviceFile) Sync() error {
	h := f.fs.tc.push("device.sync")
	if f.fs.armed.Load() {
		for deadline := time.Now().Add(syncStall); time.Now().Before(deadline); {
			runtime.Gosched()
		}
	}
	f.fs.tc.pop(h)
	f.fs.syncs.Add(1)
	f.fs.mu.Lock()
	f.st.syncedLen = f.st.size
	f.st.dirty = false
	f.st.rewroteSynced = false
	f.fs.mu.Unlock()
	return nil
}

func (f *deviceFile) Close() error { return f.inner.Close() }

// fsTypeOf names the filesystem holding path, for the environment record.
func fsTypeOf(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// copyDir copies the regular files of src into dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
