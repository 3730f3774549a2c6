package wal

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"
)

// SyncPolicy selects when appended groups become durable.
type SyncPolicy uint8

const (
	// SyncInterval (the default) buffers groups in memory and a
	// background flusher writes and fsyncs them every Options.Interval —
	// group commit: a crash loses at most one interval of admissions,
	// and the append hot path never touches the disk.
	SyncInterval SyncPolicy = iota
	// SyncAlways writes and fsyncs every group inside Append — no
	// acknowledged operation is ever lost, at one fsync per operation.
	SyncAlways
	// SyncNone buffers and writes opportunistically but only fsyncs on
	// Flush/Close — crash durability is whatever the OS got around to.
	SyncNone
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncInterval:
		return "interval"
	case SyncAlways:
		return "always"
	case SyncNone:
		return "none"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", uint8(p))
	}
}

// Options parameterises a log Set.
type Options struct {
	// Dir is the WAL directory; one segment file per shard per
	// generation lives in it.
	Dir string
	// Policy selects the fsync policy; zero value is SyncInterval.
	Policy SyncPolicy
	// Interval is the SyncInterval flush period; zero means 50ms.
	Interval time.Duration
	// FS overrides the filesystem; nil means the real OS filesystem.
	FS FS
}

// Filesystem resolves the FS in effect: Options.FS, or the real OS
// filesystem when nil.
func (o Options) Filesystem() FS {
	if o.FS != nil {
		return o.FS
	}
	return osFS{}
}

func (o Options) interval() time.Duration {
	if o.Interval > 0 {
		return o.Interval
	}
	return 50 * time.Millisecond
}

// flushThreshold bounds the in-memory buffer of a buffered-policy log:
// once a log holds this much it is written (not fsynced) inline.
const flushThreshold = 256 << 10

// Log is one shard's append-only log. Append is called under the owning
// shard's single-writer lock; the Log's own mutex is a leaf that only
// orders appends against the background flusher.
type Log struct {
	mu       sync.Mutex
	f        File
	policy   SyncPolicy
	buf      []byte
	unsynced bool // bytes written to f since the last Sync
	err      error
}

// Append hands the log one operation group (one or more frames built with
// codec.AppendFrame). The bytes are copied; durability follows the sync policy.
// Errors are sticky: after a write or sync failure every later Append
// reports it and writes stop.
func (l *Log) Append(group []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if l.policy == SyncAlways {
		if _, err := l.f.Write(group); err != nil {
			l.err = err
			return err
		}
		if err := l.f.Sync(); err != nil {
			l.err = err
			return err
		}
		return nil
	}
	l.buf = append(l.buf, group...)
	if len(l.buf) >= flushThreshold {
		return l.flushLocked(false)
	}
	return nil
}

// flushLocked writes the buffer and, when sync is set, fsyncs.
func (l *Log) flushLocked(sync bool) error {
	if l.err != nil {
		return l.err
	}
	if len(l.buf) > 0 {
		if _, err := l.f.Write(l.buf); err != nil {
			l.err = err
			return err
		}
		l.buf = l.buf[:0]
		l.unsynced = true
	}
	if sync && l.unsynced {
		if err := l.f.Sync(); err != nil {
			l.err = err
			return err
		}
		l.unsynced = false
	}
	return nil
}

// Flush writes any buffered groups and fsyncs.
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushLocked(true)
}

// Err returns the sticky write error, if any.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

func (l *Log) close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	ferr := l.flushLocked(true)
	cerr := l.f.Close()
	if ferr != nil {
		return ferr
	}
	return cerr
}

// Set is the per-router bundle of shard logs for one generation: it owns
// the files, the shared background flusher, and close ordering.
type Set struct {
	opts Options
	gen  uint64
	logs []*Log

	stop      chan struct{}
	flusherWG sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

// Open creates the segment files of one generation — one per shard — and
// appends each shard's header record (framed by the caller via header,
// which receives the shard index) durably before returning. Files must not
// already exist; recovering over an existing history picks a fresh
// generation instead of reopening old segments.
func Open(opts Options, shards int, gen uint64, header func(shard int) []byte) (*Set, error) {
	if opts.Dir == "" {
		return nil, errors.New("wal: empty dir")
	}
	if shards <= 0 {
		return nil, fmt.Errorf("wal: non-positive shard count %d", shards)
	}
	fs := opts.Filesystem()
	if err := fs.MkdirAll(opts.Dir); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", opts.Dir, err)
	}
	s := &Set{opts: opts, gen: gen, logs: make([]*Log, shards), stop: make(chan struct{})}
	for i := 0; i < shards; i++ {
		name := segmentPath(opts.Dir, i, gen)
		f, err := fs.Create(name)
		if err != nil {
			s.closeOpened(i)
			return nil, fmt.Errorf("wal: creating %s: %w", name, err)
		}
		l := &Log{f: f, policy: opts.Policy}
		if hdr := header(i); len(hdr) > 0 {
			if err := l.Append(hdr); err == nil {
				err = l.Flush()
			}
			if err := l.Err(); err != nil {
				s.logs[i] = l
				s.closeOpened(i + 1)
				return nil, fmt.Errorf("wal: writing header of %s: %w", name, err)
			}
		}
		s.logs[i] = l
	}
	if opts.Policy == SyncInterval {
		s.flusherWG.Add(1)
		go s.flushLoop()
	}
	return s, nil
}

func segmentPath(dir string, shard int, gen uint64) string {
	return filepath.Join(dir, segmentName(shard, gen))
}

func (s *Set) closeOpened(n int) {
	for i := 0; i < n; i++ {
		if s.logs[i] != nil {
			s.logs[i].close()
		}
	}
}

// flushLoop is the SyncInterval group-commit flusher.
func (s *Set) flushLoop() {
	defer s.flusherWG.Done()
	t := time.NewTicker(s.opts.interval())
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			for _, l := range s.logs {
				l.Flush()
			}
		}
	}
}

// Log returns shard i's log.
func (s *Set) Log(i int) *Log { return s.logs[i] }

// Generation returns the generation the set writes.
func (s *Set) Generation() uint64 { return s.gen }

// Flush writes and fsyncs every shard's buffered groups, returning the
// first error.
func (s *Set) Flush() error {
	var first error
	for _, l := range s.logs {
		if err := l.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Err returns the first sticky error across the shard logs, if any.
func (s *Set) Err() error {
	for _, l := range s.logs {
		if err := l.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Close stops the flusher, flushes and fsyncs every log, and closes the
// files. Safe to call more than once.
func (s *Set) Close() error {
	s.closeOnce.Do(func() {
		close(s.stop)
		s.flusherWG.Wait()
		for _, l := range s.logs {
			if err := l.close(); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
		}
	})
	return s.closeErr
}
