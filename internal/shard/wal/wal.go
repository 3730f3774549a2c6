// Package wal is the per-shard write-ahead log behind shard.Router
// durability: an append-only sequence of length+CRC-framed binary records,
// one log file per shard per process generation, written under the shard's
// single-writer lock and replayed at boot to reconstruct the router.
//
// # Framing
//
// A record on disk is one frame of package internal/codec (length, CRC-32C,
// payload), the frame the wire protocol sends too; codec.AppendFrame frames
// a record, and the payload's first byte names its type. The package does
// not interpret payloads beyond one convention: types
// with InterimBit set are *interim* records — they belong to the next
// terminal record (the shard package uses them for arbitration decisions
// and sequence assignments gathered while an operation runs, closed by the
// operation record itself). A reader drops a trailing run of interim
// records with no closing terminal record: the group's operation never
// became durable, so its decisions must not survive either.
//
// # Durability
//
// Appends are grouped: the writer hands the log one byte slice per
// operation group and the sync policy decides when bytes become durable —
// SyncAlways pays one write+fsync per group, SyncInterval (the default)
// buffers groups and a background flusher syncs on a period, SyncNone
// leaves syncing to Close. A torn tail — a crash mid-write or mid-fsync —
// is expected and handled at read time: the first frame that fails its
// length or CRC check logically truncates the segment there, and the
// reader reports how many bytes it dropped. Recovery never appends to an
// old segment; it opens a new generation, so a truncated tail stays
// truncated identically on every subsequent boot.
//
// # Reading
//
// There is one reader: Scanner streams a segment from FS.Open through a
// fixed-size buffer and hands each durable payload to a callback, so
// reading a log costs the same memory whatever its length. The payload
// slice aliases that buffer and is valid only until the callback returns;
// a caller that needs a record later — the interim records of a group
// still waiting for its terminal record — copies it.
//
// File access goes through the FS interface so a fault-injection
// filesystem (package faultfs) can simulate crashes, torn writes and
// partial fsyncs; the zero value of Options uses the real OS filesystem.
package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"ftoa/internal/codec"
)

// InterimBit marks record types that are non-terminal: an interim record
// belongs to the next terminal record appended after it, and a trailing
// run of interim records with no terminal close is dropped at read time.
const InterimBit byte = 0x80

// maxRecordLen bounds a single payload; a length field beyond it is
// treated as tail corruption. Real records are tens of bytes.
const maxRecordLen = 1 << 20

// FS abstracts the filesystem the log lives on. Implementations must allow
// concurrent calls on distinct files; the OS implementation is the default
// and faultfs provides the fault-injecting one.
type FS interface {
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// Create creates name for appending. It fails if the file already
	// exists: segments are written once per generation, never reopened.
	Create(name string) (File, error)
	// Open opens name for one sequential read from its first byte.
	Open(name string) (io.ReadCloser, error)
	// ReadDir lists the file names (base names, any order) in dir. A
	// missing dir returns an empty listing, not an error.
	ReadDir(dir string) ([]string, error)
	// Remove deletes name. Only whole superseded generations are ever
	// removed (RemoveBelow), never a segment a reader could still need.
	Remove(name string) error
}

// File is an append-only log file.
type File interface {
	io.Writer
	// Sync makes previously written bytes durable.
	Sync() error
	Close() error
}

// osFS is the real-filesystem FS.
type osFS struct{}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
}

func (osFS) Open(name string) (io.ReadCloser, error) { return os.Open(name) }

func (osFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

func (osFS) Remove(name string) error { return os.Remove(name) }

// OSFS returns the real-filesystem FS implementation.
func OSFS() FS { return osFS{} }

// segmentName is the on-disk name of one shard's log for one generation.
func segmentName(shard int, gen uint64) string {
	return fmt.Sprintf("s%03d-g%06d.wal", shard, gen)
}

// parseSegmentName inverts segmentName; ok is false for foreign files.
func parseSegmentName(name string) (shard int, gen uint64, ok bool) {
	var s int
	var g uint64
	if n, err := fmt.Sscanf(name, "s%d-g%d.wal", &s, &g); err != nil || n != 2 {
		return 0, 0, false
	}
	return s, g, true
}

// Segment names one discovered (shard, generation) log file.
type Segment struct {
	Shard int
	Gen   uint64
	Path  string
}

// Segments lists every WAL segment under dir, ordered by generation then
// shard, plus the highest generation seen (0 when the directory is empty or
// absent). Foreign files are ignored. Generations are kept apart because
// recovery walks the topology-epoch chain generation by generation.
func Segments(fs FS, dir string) (segs []Segment, maxGen uint64, err error) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, 0, err
	}
	for _, name := range names {
		shard, gen, ok := parseSegmentName(name)
		if !ok {
			continue
		}
		segs = append(segs, Segment{Shard: shard, Gen: gen, Path: filepath.Join(dir, name)})
		if gen > maxGen {
			maxGen = gen
		}
	}
	sort.Slice(segs, func(i, j int) bool {
		if segs[i].Gen != segs[j].Gen {
			return segs[i].Gen < segs[j].Gen
		}
		return segs[i].Shard < segs[j].Shard
	})
	return segs, maxGen, nil
}

// RemoveBelow deletes every segment under dir whose generation is below
// gen, oldest generation first, so whatever a crash leaves behind is a
// newest-first suffix of the history. The caller has made a sealed
// checkpoint at gen durable: recovery starts there and opens nothing
// older, so a failure here only leaves unread files for the next call. It
// returns how many segments it removed and the first error.
func RemoveBelow(fs FS, dir string, gen uint64) (removed int, err error) {
	segs, _, err := Segments(fs, dir)
	if err != nil {
		return 0, err
	}
	for _, sg := range segs {
		if sg.Gen >= gen {
			break
		}
		if rerr := fs.Remove(sg.Path); rerr != nil {
			if err == nil {
				err = fmt.Errorf("wal: removing %s: %w", sg.Path, rerr)
			}
			continue
		}
		removed++
	}
	return removed, err
}

// scanBufSize is the scanner's read buffer: large enough that a segment
// is read in few system calls, small enough to stay cache-resident. A
// record longer than the buffer (none the shard package writes comes
// close) replaces it with one that holds exactly that record.
const scanBufSize = 64 << 10

// ScanInfo summarises one scanned segment.
type ScanInfo struct {
	// Records counts the durable payloads: every valid frame before the
	// truncation point, minus the dangling interim run.
	Records int
	// TornBytes counts the bytes dropped to length/CRC tail truncation.
	TornBytes int64
	// DanglingRecords counts the trailing interim records whose closing
	// terminal record never became durable.
	DanglingRecords int
	// Bytes counts the bytes read from the segment.
	Bytes int64
}

// Scanner reads segments frame by frame through one reusable buffer. The
// zero value is ready to use; a Scanner is not safe for concurrent use.
type Scanner struct {
	buf    []byte
	lo, hi int  // buf[lo:hi] is read but not yet parsed
	eof    bool // the segment being scanned has no more bytes
}

// Scan reads one segment from r, calling fn with every payload that
// passes its length and CRC check, in order, and stopping at the first
// frame that fails one — the logical truncation point; the rest of the
// segment is counted into TornBytes.
//
// Interim payloads are delivered as they are read, before the scanner can
// know whether their terminal record follows. A trailing interim run with
// no terminal record belongs to an operation that never became durable:
// its decisions must not survive, so the caller discards whatever interim
// payloads it is still holding when Scan returns; DanglingRecords says how
// many that was. A new generation starts at a group boundary by
// construction, so each segment is judged on its own.
//
// The payload aliases the scanner's buffer and is valid only until fn
// returns. An error from fn stops the scan and is returned as is, with
// the counts so far.
func (s *Scanner) Scan(r io.Reader, fn func(payload []byte) error) (ScanInfo, error) {
	if s.buf == nil {
		s.buf = make([]byte, scanBufSize)
	}
	s.lo, s.hi, s.eof = 0, 0, false
	var info ScanInfo
	for {
		if err := s.fill(r, codec.HeaderLen, &info); err != nil {
			return info, err
		}
		if s.hi-s.lo < codec.HeaderLen {
			break
		}
		n, sum, ok := codec.Header(s.buf[s.lo:], maxRecordLen)
		if !ok {
			break
		}
		if err := s.fill(r, codec.HeaderLen+n, &info); err != nil {
			return info, err
		}
		if s.hi-s.lo < codec.HeaderLen+n {
			break
		}
		payload := s.buf[s.lo+codec.HeaderLen : s.lo+codec.HeaderLen+n]
		if !codec.Valid(payload, sum) {
			break
		}
		s.lo += codec.HeaderLen + n
		if payload[0]&InterimBit != 0 {
			info.DanglingRecords++
		} else {
			info.Records += info.DanglingRecords + 1
			info.DanglingRecords = 0
		}
		if err := fn(payload); err != nil {
			return info, err
		}
	}
	// Everything from the truncation point on is the torn tail.
	info.TornBytes = int64(s.hi - s.lo)
	for !s.eof {
		s.lo, s.hi = 0, 0
		if err := s.fill(r, 1, &info); err != nil {
			return info, err
		}
		info.TornBytes += int64(s.hi)
	}
	return info, nil
}

// fill makes at least need unparsed bytes available, unless the segment
// ends first: it moves the unparsed tail to the front of the buffer —
// into a buffer of exactly need bytes when the current one cannot hold
// that many — and reads on from there.
func (s *Scanner) fill(r io.Reader, need int, info *ScanInfo) error {
	if s.hi-s.lo >= need || s.eof {
		return nil
	}
	dst := s.buf
	if need > len(dst) {
		dst = make([]byte, need)
	}
	s.hi = copy(dst, s.buf[s.lo:s.hi])
	s.buf, s.lo = dst, 0
	n, err := io.ReadAtLeast(r, s.buf[s.hi:], need-s.hi)
	s.hi += n
	info.Bytes += int64(n)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		s.eof = true
		return nil
	}
	return err
}

// ScanFile opens one segment, scans it and closes it; see Scan.
func (s *Scanner) ScanFile(fs FS, path string, fn func(payload []byte) error) (ScanInfo, error) {
	f, err := fs.Open(path)
	if err != nil {
		return ScanInfo{}, fmt.Errorf("wal: opening %s: %w", path, err)
	}
	defer f.Close()
	return s.Scan(f, fn)
}
