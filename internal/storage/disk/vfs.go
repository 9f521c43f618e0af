// Package disk implements the durable storage.Backend: a checksummed
// write-ahead log paired with a paged checkpoint store, designed so that a
// crash at any instant loses no committed batch, never resurrects a
// committed reclaim, and recovers to a byte-identical logical state.
//
// Layout inside the data directory:
//
//	heap.db — 8 KB pages. Pages 0 and 1 are alternating meta pages (the
//	          one with the higher generation and a valid checksum wins);
//	          the rest hold checkpoint images: data pages holding object
//	          records, chained in OID order, and in a simulator's image a
//	          chain of state pages (format 4; format 1 had directory pages
//	          instead of the chain). Every page carries a CRC32-C over its
//	          payload.
//	wal.log — length-prefixed, CRC32-C-checksummed records. A batch is
//	          the records since the previous commit record; recovery
//	          applies a batch only when its commit record is intact, so
//	          a torn tail rolls back to the last durable commit.
//
// Checkpoints are copy-on-write: a new image is written to free pages,
// then the meta page flips to it in one checksummed write. A crash during
// checkpoint leaves the previous image (and the WAL covering everything
// since) fully intact; the pages of an abandoned image return to the free
// list automatically on the next open because nothing committed references
// them.
//
// The package holds no wall clock and no randomness: given the same inputs
// it produces the same bytes, which is what makes the crash-point sweep in
// the crashtest subpackage exhaustive and reproducible.
package disk

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
)

// FS is the filesystem surface the backend runs on. Production uses OSFS;
// the crash harness substitutes a journaling in-memory implementation, and
// the fault injector wraps one FS around another.
type FS interface {
	// Open opens the named file read-write, creating it if absent.
	Open(name string) (File, error)
	// Remove deletes the named file. Removing an absent file is an error.
	Remove(name string) error
}

// File is the random-access file surface the backend needs. Implementations
// must tolerate reads past EOF returning io.EOF with a short count, as
// os.File does.
type File interface {
	io.ReaderAt
	io.WriterAt
	Size() (int64, error)
	Truncate(size int64) error
	Sync() error
	Close() error
}

// OSFS is the production FS: files under a directory on the real
// filesystem.
type OSFS struct {
	Dir string
}

// Open opens dir/name read-write, creating the directory and file as
// needed.
func (fs OSFS) Open(name string) (File, error) {
	if err := os.MkdirAll(fs.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("disk: create data dir: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(fs.Dir, name), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("disk: open %s: %w", name, err)
	}
	return osFile{f}, nil
}

// Remove deletes dir/name.
func (fs OSFS) Remove(name string) error {
	if err := os.Remove(filepath.Join(fs.Dir, name)); err != nil {
		return fmt.Errorf("disk: remove %s: %w", name, err)
	}
	return nil
}

type osFile struct {
	*os.File
}

func (f osFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("disk: stat %s: %w", f.Name(), err)
	}
	return st.Size(), nil
}

// memFile is a file held in memory: WriteImage writes an image into one and
// ReadImage reads one, and the tests and layer benchmarks run stores on them,
// which then time the backend's own work and not a disk's.
type memFile struct{ data []byte }

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(f.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt extends the file within its capacity when it can: a benchmark that
// presizes the file (slices.Grow) then times the backend and not growslice.
func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	if n, end := len(f.data), int(off)+len(p); end > n {
		f.data = slices.Grow(f.data, end-n)[:end]
		if int(off) > n {
			clear(f.data[n:off]) // a hole reads as zeros, whatever a truncate left there
		}
	}
	return copy(f.data[off:], p), nil
}

func (f *memFile) Size() (int64, error) { return int64(len(f.data)), nil }

func (f *memFile) Truncate(size int64) error {
	if size > int64(len(f.data)) {
		return fmt.Errorf("memFile: truncate to %d beyond %d bytes", size, len(f.data))
	}
	f.data = f.data[:size]
	return nil
}

func (f *memFile) Sync() error  { return nil }
func (f *memFile) Close() error { return nil }
