package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"syscall"
)

// FS is the filesystem seam the durable engine writes through (DESIGN.md
// §11). Every WAL, snapshot, and manifest operation goes through an FS so
// tests can inject short writes, ENOSPC, fsync failures, and crash-at-op-N
// points (FaultFS) without touching the real disk paths. Production code
// uses OS. The gzip-JSON dataset format (store.go) routes through the same
// seam so dataset files share the fault and durability coverage.
type FS interface {
	// Create creates (or truncates) the file at path for writing.
	Create(path string) (FSFile, error)
	// Open opens the file at path read-only.
	Open(path string) (FSFile, error)
	// OpenFile is the generalized open (os.OpenFile semantics).
	OpenFile(path string, flag int, perm os.FileMode) (FSFile, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes the file at path.
	Remove(path string) error
	// ReadDir lists a directory.
	ReadDir(dir string) ([]os.DirEntry, error)
	// MkdirAll creates a directory (and parents) if missing.
	MkdirAll(dir string, perm os.FileMode) error
	// SyncDir fsyncs a directory so a just-committed rename survives power
	// loss. Filesystems that reject directory fsync report success; real
	// I/O failures are returned.
	SyncDir(dir string) error
}

// FSFile is one open file of an FS.
type FSFile interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	Sync() error
	Truncate(size int64) error
}

// OS is the production filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) Create(path string) (FSFile, error) { return os.Create(path) }
func (osFS) Open(path string) (FSFile, error)   { return os.Open(path) }
func (osFS) OpenFile(path string, flag int, perm os.FileMode) (FSFile, error) {
	return os.OpenFile(path, flag, perm)
}
func (osFS) Rename(oldpath, newpath string) error      { return os.Rename(oldpath, newpath) }
func (osFS) Remove(path string) error                  { return os.Remove(path) }
func (osFS) ReadDir(dir string) ([]os.DirEntry, error) { return os.ReadDir(dir) }
func (osFS) MkdirAll(dir string, perm os.FileMode) error {
	return os.MkdirAll(dir, perm)
}

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: sync dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		// Some filesystems reject fsync on directories; that is not a
		// durability failure we can act on. A real I/O error is.
		if errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) {
			return nil
		}
		return fmt.Errorf("store: sync dir %s: %w", dir, err)
	}
	return nil
}

// ReadFile reads a whole file through an FS — the os.ReadFile of the seam,
// and the one way the durable layer reads a file whole. The returned error
// preserves os.IsNotExist detection.
func ReadFile(fsys FS, path string) ([]byte, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// Size the buffer to the file, as os.ReadFile does: growing it read by
	// read allocates several times the file on the way.
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.Grow(int(size) + bytes.MinRead)
	if _, err := buf.ReadFrom(f); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
