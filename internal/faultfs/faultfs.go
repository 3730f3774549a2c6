// Package faultfs is an in-memory filesystem with crash semantics, built
// to fault-inject the shard WAL (package internal/shard/wal): every file
// tracks its bytes in two bands — durable (survives a crash) and volatile
// (written but not yet fsynced) — and the harness can tear writes, cut
// fsyncs short, and crash the world at any byte boundary.
//
// The model mirrors what a real OS guarantees an append-only writer:
//
//   - Write appends to the volatile band (a torn write appends only a
//     prefix and then fails, like a crash mid-write);
//   - Sync promotes the volatile band to durable (a partial sync promotes
//     only a prefix and then fails, like power loss mid-fsync);
//   - Crash discards every file's volatile band — the post-crash disk
//     image is exactly the durable bytes;
//   - reads see durable+volatile, the live view an uncrashed process has;
//   - Remove unlinks a file from the live view at once, but an unlink is
//     only durable once the directory is synced, which the WAL never asks
//     for: Crash brings a removed file back with its durable bytes, unless
//     the harness first calls PersistRemoves to take the other outcome;
//   - FailAfter loses the disk at the n-th mutating operation from now, so
//     a sweep can stop a multi-file protocol (a checkpoint) at every step.
//
// faultfs implements wal.FS (the dependency points from the harness to the
// log, so the wal package itself stays free of test-only machinery).
package faultfs

import (
	"fmt"
	"io"
	"os"
	"path"
	"sort"
	"strings"
	"sync"

	"ftoa/internal/shard/wal"
)

// FS is the in-memory fault-injecting filesystem. The zero value is not
// usable; call New.
type FS struct {
	mu    sync.Mutex
	files map[string]*file
	dirs  map[string]bool

	// Pending injected faults, keyed by file name; consumed by the next
	// matching operation.
	tearWrite   map[string]int
	partialSync map[string]int

	// opens counts Open calls per file, so a test can assert which files a
	// reader touched.
	opens map[string]int

	// ops counts the mutating operations applied (Create, Write, Sync,
	// Remove); once it reaches failAt (negative: unarmed) every further one
	// fails and changes nothing.
	ops    int
	failAt int
}

type file struct {
	durable  []byte
	volatile []byte
	closed   bool
	removed  bool // unlinked from the live view; see Remove
}

// New returns an empty filesystem.
func New() *FS {
	return &FS{
		files:       make(map[string]*file),
		dirs:        make(map[string]bool),
		tearWrite:   make(map[string]int),
		partialSync: make(map[string]int),
		opens:       make(map[string]int),
		failAt:      -1,
	}
}

// step accounts one mutating operation and reports whether the disk still
// takes it. Callers hold mu.
func (fs *FS) step() bool {
	if fs.failAt >= 0 && fs.ops >= fs.failAt {
		return false
	}
	fs.ops++
	return true
}

// live returns name's file as an uncrashed process sees it: nil once
// removed. Callers hold mu.
func (fs *FS) live(name string) *file {
	if f := fs.files[name]; f != nil && !f.removed {
		return f
	}
	return nil
}

// errInjected is the failure surfaced by a consumed fault.
var errInjected = fmt.Errorf("faultfs: injected fault")

// ErrInjected reports whether err came from an injected fault.
func ErrInjected(err error) bool { return err == errInjected }

// MkdirAll records dir (and its parents) as existing.
func (fs *FS) MkdirAll(dir string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d := path.Clean(dir)
	for d != "." && d != "/" && d != "" {
		fs.dirs[d] = true
		d = path.Dir(d)
	}
	return nil
}

// Create creates name for appending; it fails if the file exists, matching
// the write-once segment discipline of the WAL.
func (fs *FS) Create(name string) (wal.File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	name = path.Clean(name)
	if fs.live(name) != nil {
		return nil, &os.PathError{Op: "create", Path: name, Err: os.ErrExist}
	}
	if !fs.step() {
		return nil, errInjected
	}
	f := &file{}
	fs.files[name] = f
	return &handle{fs: fs, name: name, f: f}, nil
}

// Open opens name for a sequential read of its live view: durable plus
// volatile bytes, as they are when each Read runs.
func (fs *FS) Open(name string) (io.ReadCloser, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	name = path.Clean(name)
	f := fs.live(name)
	if f == nil {
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
	}
	fs.opens[name]++
	return &reader{fs: fs, f: f}, nil
}

// Opens returns how many times name has been opened for reading.
func (fs *FS) Opens(name string) int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.opens[path.Clean(name)]
}

// reader is one Open's cursor over a file's bands.
type reader struct {
	fs  *FS
	f   *file
	off int
}

func (r *reader) Read(p []byte) (int, error) {
	r.fs.mu.Lock()
	defer r.fs.mu.Unlock()
	n := 0
	if r.off < len(r.f.durable) {
		n = copy(p, r.f.durable[r.off:])
	}
	if n < len(p) {
		if v := r.off + n - len(r.f.durable); v < len(r.f.volatile) {
			n += copy(p[n:], r.f.volatile[v:])
		}
	}
	r.off += n
	if n == 0 && len(p) > 0 {
		return 0, io.EOF
	}
	return n, nil
}

func (r *reader) Close() error { return nil }

// ReadDir lists the base names of files directly under dir.
func (fs *FS) ReadDir(dir string) ([]string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	prefix := path.Clean(dir)
	var names []string
	for name, f := range fs.files {
		if !f.removed && path.Dir(name) == prefix {
			names = append(names, strings.TrimPrefix(name, prefix+"/"))
		}
	}
	sort.Strings(names)
	return names, nil
}

// Crash discards every file's volatile band and brings back every removed
// file whose unlink was not persisted (PersistRemoves): the filesystem
// afterwards holds exactly what a machine reset would have preserved. It
// also disarms FailAfter — the next process has a working disk. Open handles
// keep working (the process that crashed is gone; the handles a test still
// holds belong to it and must not resurrect bytes), so a typical harness
// drops its writer references after Crash.
func (fs *FS) Crash() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, f := range fs.files {
		f.volatile = f.volatile[:0]
		f.removed = false
	}
	fs.failAt = -1
}

// PersistRemoves makes every unlink so far durable, as a directory sync
// would: the removed files are gone for good and a later Crash does not
// bring them back.
func (fs *FS) PersistRemoves() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for name, f := range fs.files {
		if f.removed {
			delete(fs.files, name)
		}
	}
}

// FailAfter arms a crash point: the next n mutating operations (Create,
// Write, Sync, Remove) are applied, every one after them fails with the
// injected fault and changes nothing — the process lost its disk there.
// Crash disarms it.
func (fs *FS) FailAfter(n int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.failAt = fs.ops + n
}

// Ops returns how many mutating operations have been applied.
func (fs *FS) Ops() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.ops
}

// TearNextWrite makes the next Write to name append only its first keep
// bytes and fail — a crash mid-write.
func (fs *FS) TearNextWrite(name string, keep int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.tearWrite[path.Clean(name)] = keep
}

// PartialNextSync makes the next Sync of name promote only keep volatile
// bytes to durable and fail — power loss mid-fsync.
func (fs *FS) PartialNextSync(name string, keep int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.partialSync[path.Clean(name)] = keep
}

// Durable returns a copy of name's durable band — the post-crash image.
func (fs *FS) Durable(name string) []byte {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path.Clean(name)]
	if !ok {
		return nil
	}
	return append([]byte(nil), f.durable...)
}

// SetFile installs data as name's durable contents, replacing whatever was
// there (creating the file if needed) and clearing its volatile band. The
// crash-point sweep uses it to replay recovery from an arbitrary durable
// prefix of a recorded run.
func (fs *FS) SetFile(name string, data []byte) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	name = path.Clean(name)
	f, ok := fs.files[name]
	if !ok {
		f = &file{}
		fs.files[name] = f
	}
	f.durable = append(f.durable[:0], data...)
	f.volatile = f.volatile[:0]
	f.removed = false
}

// Remove unlinks name: it disappears from Open, ReadDir and Create at
// once, while its durable bytes stay on the post-crash image (Durable,
// Crash) until PersistRemoves.
func (fs *FS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	name = path.Clean(name)
	f := fs.live(name)
	if f == nil {
		return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
	}
	if !fs.step() {
		return errInjected
	}
	f.removed = true
	return nil
}

type handle struct {
	fs   *FS
	name string
	f    *file
}

func (h *handle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.f.closed {
		return 0, &os.PathError{Op: "write", Path: h.name, Err: os.ErrClosed}
	}
	if !h.fs.step() {
		return 0, errInjected
	}
	if keep, ok := h.fs.tearWrite[h.name]; ok {
		delete(h.fs.tearWrite, h.name)
		if keep > len(p) {
			keep = len(p)
		}
		h.f.volatile = append(h.f.volatile, p[:keep]...)
		return keep, errInjected
	}
	h.f.volatile = append(h.f.volatile, p...)
	return len(p), nil
}

func (h *handle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.f.closed {
		return &os.PathError{Op: "sync", Path: h.name, Err: os.ErrClosed}
	}
	if !h.fs.step() {
		return errInjected
	}
	if keep, ok := h.fs.partialSync[h.name]; ok {
		delete(h.fs.partialSync, h.name)
		if keep > len(h.f.volatile) {
			keep = len(h.f.volatile)
		}
		h.f.durable = append(h.f.durable, h.f.volatile[:keep]...)
		h.f.volatile = h.f.volatile[keep:]
		return errInjected
	}
	h.f.durable = append(h.f.durable, h.f.volatile...)
	h.f.volatile = h.f.volatile[:0]
	return nil
}

func (h *handle) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	h.f.closed = true
	return nil
}
