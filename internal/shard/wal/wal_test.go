package wal_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"ftoa/internal/codec"
	"ftoa/internal/faultfs"
	"ftoa/internal/shard/wal"
)

func payload(typ byte, body ...byte) []byte { return append([]byte{typ}, body...) }

func group(payloads ...[]byte) []byte {
	var g []byte
	for _, p := range payloads {
		g = codec.AppendFrame(g, p)
	}
	return g
}

func openSet(t *testing.T, fs *faultfs.FS, policy wal.SyncPolicy, shards int, gen uint64) *wal.Set {
	t.Helper()
	s, err := wal.Open(wal.Options{Dir: "wal", Policy: policy, FS: fs}, shards, gen, func(i int) []byte {
		return group(payload(0x01, byte(i)))
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

// shardLog is the readable history of one shard as the tests assert it:
// every durable payload across its generations in append order, with
// per-segment torn tails and dangling interim groups already dropped.
type shardLog struct {
	Payloads        [][]byte
	Segments        int
	TornBytes       int64
	DanglingRecords int
}

// scanShard reads every segment in paths, in order, with one Scanner.
func scanShard(fs wal.FS, paths []string) (*shardLog, error) {
	out := &shardLog{}
	var sc wal.Scanner
	for _, path := range paths {
		start := len(out.Payloads)
		info, err := sc.ScanFile(fs, path, func(p []byte) error {
			out.Payloads = append(out.Payloads, append([]byte(nil), p...))
			return nil
		})
		if err != nil {
			return nil, err
		}
		// The scanner delivers interim records before it can know they
		// dangle; the caller drops the run it is left holding.
		out.Payloads = out.Payloads[:len(out.Payloads)-info.DanglingRecords]
		if got := len(out.Payloads) - start; got != info.Records {
			return nil, fmt.Errorf("%s: %d payloads kept, scanner counted %d records", path, got, info.Records)
		}
		out.Segments++
		out.TornBytes += info.TornBytes
		out.DanglingRecords += info.DanglingRecords
	}
	return out, nil
}

// shardPaths lists one shard's segments under "wal" in generation order.
func shardPaths(t testing.TB, fs wal.FS, shard int) []string {
	t.Helper()
	segs, _, err := wal.Segments(fs, "wal")
	if err != nil {
		t.Fatalf("Segments: %v", err)
	}
	var paths []string
	for _, sg := range segs {
		if sg.Shard == shard {
			paths = append(paths, sg.Path)
		}
	}
	return paths
}

func readShard(t *testing.T, fs *faultfs.FS, shard int) *shardLog {
	t.Helper()
	sl, err := scanShard(fs, shardPaths(t, fs, shard))
	if err != nil {
		t.Fatalf("scanning shard %d: %v", shard, err)
	}
	return sl
}

// TestSyncAlwaysDurable: with SyncAlways every acknowledged group survives
// a crash.
func TestSyncAlwaysDurable(t *testing.T) {
	fs := faultfs.New()
	s := openSet(t, fs, wal.SyncAlways, 1, 1)
	if err := s.Log(0).Append(group(payload(0x10, 1))); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := s.Log(0).Append(group(payload(0x80, 2), payload(0x11, 3))); err != nil {
		t.Fatalf("Append: %v", err)
	}
	fs.Crash()
	sl := readShard(t, fs, 0)
	if len(sl.Payloads) != 4 { // header + op + interim + op
		t.Fatalf("recovered %d payloads, want 4", len(sl.Payloads))
	}
	if sl.TornBytes != 0 || sl.DanglingRecords != 0 {
		t.Fatalf("clean crash reported torn=%d dangling=%d", sl.TornBytes, sl.DanglingRecords)
	}
}

// TestBufferedCrashLosesTail: buffered groups die with a crash, but a
// Flush makes everything before it durable.
func TestBufferedCrashLosesTail(t *testing.T) {
	fs := faultfs.New()
	s := openSet(t, fs, wal.SyncNone, 1, 1)
	s.Log(0).Append(group(payload(0x10, 1)))
	if err := s.Log(0).Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	s.Log(0).Append(group(payload(0x10, 2)))
	fs.Crash()
	sl := readShard(t, fs, 0)
	if len(sl.Payloads) != 2 { // header + first op; second op never flushed
		t.Fatalf("recovered %d payloads, want 2", len(sl.Payloads))
	}
	if !bytes.Equal(sl.Payloads[1], payload(0x10, 1)) {
		t.Fatalf("recovered op = %x", sl.Payloads[1])
	}
}

// TestTornWriteTruncates: a write torn mid-frame leaves a tail the reader
// truncates; the preceding durable groups are intact.
func TestTornWriteTruncates(t *testing.T) {
	fs := faultfs.New()
	s := openSet(t, fs, wal.SyncAlways, 1, 1)
	s.Log(0).Append(group(payload(0x10, 1)))
	name := "wal/s000-g000001.wal"
	fs.TearNextWrite(name, 5) // lose most of the next group's bytes
	if err := s.Log(0).Append(group(payload(0x10, 2))); err == nil {
		t.Fatal("torn write not surfaced")
	}
	// Read the live view: the torn prefix is sitting unsynced in the file
	// exactly as a crashed-mid-write process would have left it on disk.
	sl := readShard(t, fs, 0)
	if len(sl.Payloads) != 2 {
		t.Fatalf("recovered %d payloads, want 2", len(sl.Payloads))
	}
	if sl.TornBytes != 5 {
		t.Fatalf("torn = %d, want 5", sl.TornBytes)
	}
	// The error is sticky: the log refuses further appends.
	if err := s.Log(0).Append(group(payload(0x10, 3))); err == nil {
		t.Fatal("append accepted after torn write")
	}
	if s.Err() == nil {
		t.Fatal("Set.Err nil after torn write")
	}
}

// TestPartialSyncTruncates: an fsync cut short durably promotes only a
// prefix; recovery truncates at the break.
func TestPartialSyncTruncates(t *testing.T) {
	fs := faultfs.New()
	s := openSet(t, fs, wal.SyncNone, 1, 1)
	s.Log(0).Append(group(payload(0x10, 1)))
	s.Log(0).Append(group(payload(0x10, 2)))
	fs.PartialNextSync("wal/s000-g000001.wal", 3)
	if err := s.Log(0).Flush(); err == nil {
		t.Fatal("partial sync not surfaced")
	}
	fs.Crash()
	sl := readShard(t, fs, 0)
	if len(sl.Payloads) != 1 { // header only; both ops lost mid-frame
		t.Fatalf("recovered %d payloads, want 1", len(sl.Payloads))
	}
	if sl.TornBytes != 3 {
		t.Fatalf("torn = %d, want 3", sl.TornBytes)
	}
}

// TestDanglingInterimDropped: interim records whose closing op never
// became durable are dropped at read time.
func TestDanglingInterimDropped(t *testing.T) {
	fs := faultfs.New()
	s := openSet(t, fs, wal.SyncAlways, 1, 1)
	s.Log(0).Append(group(payload(0x80, 1), payload(0x10, 1)))
	// Simulate losing the op: append interims alone (as if the group's
	// closing frame was torn off exactly at its boundary).
	s.Log(0).Append(group(payload(0x80, 2), payload(0x81, 3)))
	fs.Crash()
	sl := readShard(t, fs, 0)
	if len(sl.Payloads) != 3 { // header + interim + op
		t.Fatalf("recovered %d payloads, want 3", len(sl.Payloads))
	}
	if sl.DanglingRecords != 2 {
		t.Fatalf("dangling = %d, want 2", sl.DanglingRecords)
	}
	if sl.Payloads[2][0] != 0x10 {
		t.Fatalf("last recovered payload type = 0x%02x, want the op", sl.Payloads[2][0])
	}
}

// TestGenerationsConcatenate: a shard's segments read back in generation
// order and Segments reports the highest generation.
func TestGenerationsConcatenate(t *testing.T) {
	fs := faultfs.New()
	s1 := openSet(t, fs, wal.SyncAlways, 2, 1)
	s1.Log(0).Append(group(payload(0x10, 1)))
	s1.Log(1).Append(group(payload(0x10, 9)))
	if err := s1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2 := openSet(t, fs, wal.SyncAlways, 2, 3) // gap in generations is fine
	s2.Log(0).Append(group(payload(0x10, 2)))
	s2.Close()

	_, maxGen, err := wal.Segments(fs, "wal")
	if err != nil {
		t.Fatalf("Segments: %v", err)
	}
	if maxGen != 3 {
		t.Fatalf("maxGen = %d, want 3", maxGen)
	}
	if n0, n1 := len(shardPaths(t, fs, 0)), len(shardPaths(t, fs, 1)); n0 != 2 || n1 != 2 {
		t.Fatalf("segment counts = %d,%d, want 2,2", n0, n1)
	}
	sl := readShard(t, fs, 0)
	var ops []byte
	for _, p := range sl.Payloads {
		if p[0] == 0x10 {
			ops = append(ops, p[1])
		}
	}
	if !bytes.Equal(ops, []byte{1, 2}) {
		t.Fatalf("ops across generations = %v, want [1 2]", ops)
	}
}

// TestRemoveBelow: every segment of the generations below the given one
// goes, oldest generation first, nothing at or above it and no foreign
// file; the real filesystem behaves the same; and a segment that cannot be
// removed is reported without stopping the rest.
func TestRemoveBelow(t *testing.T) {
	fs := faultfs.New()
	for _, gen := range []uint64{1, 2, 4} {
		openSet(t, fs, wal.SyncAlways, 2, gen).Close()
	}
	fs.SetFile("wal/README", []byte("not a segment"))
	removed, err := wal.RemoveBelow(fs, "wal", 4)
	if removed != 4 || err != nil {
		t.Fatalf("RemoveBelow = %d, %v; want 4 segments removed", removed, err)
	}
	names, _ := fs.ReadDir("wal")
	if fmt.Sprint(names) != "[README s000-g000004.wal s001-g000004.wal]" {
		t.Fatalf("left on disk: %v", names)
	}
	if removed, err := wal.RemoveBelow(fs, "wal", 4); removed != 0 || err != nil {
		t.Fatalf("second RemoveBelow = %d, %v", removed, err)
	}

	dir := t.TempDir()
	for _, gen := range []uint64{1, 2} {
		set, err := wal.Open(wal.Options{Dir: dir}, 2, gen, func(int) []byte { return nil })
		if err != nil {
			t.Fatal(err)
		}
		set.Close()
	}
	if removed, err := wal.RemoveBelow(wal.OSFS(), dir, 2); removed != 2 || err != nil {
		t.Fatalf("RemoveBelow on the OS filesystem = %d, %v", removed, err)
	}
	if segs, maxGen, _ := wal.Segments(wal.OSFS(), dir); len(segs) != 2 || maxGen != 2 || segs[0].Gen != 2 {
		t.Fatalf("left on the OS filesystem: %+v", segs)
	}

	// The disk goes away after the first unlink: the rest fail, are counted
	// out, and the first failure is the error.
	fs = faultfs.New()
	openSet(t, fs, wal.SyncAlways, 3, 1).Close()
	fs.FailAfter(1)
	removed, err = wal.RemoveBelow(fs, "wal", 2)
	if removed != 1 || !faultfs.ErrInjected(errors.Unwrap(err)) {
		t.Fatalf("RemoveBelow on a failing disk = %d, %v", removed, err)
	}
}

// TestOpenRefusesExistingSegment: generations are write-once.
func TestOpenRefusesExistingSegment(t *testing.T) {
	fs := faultfs.New()
	s := openSet(t, fs, wal.SyncAlways, 1, 1)
	s.Close()
	if _, err := wal.Open(wal.Options{Dir: "wal", FS: fs}, 1, 1, func(int) []byte { return nil }); err == nil {
		t.Fatal("reopening an existing generation succeeded")
	}
}

// TestSegmentsIgnoresForeign: non-segment files don't confuse discovery,
// and a missing directory is an empty history.
func TestSegmentsIgnoresForeign(t *testing.T) {
	fs := faultfs.New()
	fs.SetFile("wal/README", []byte("not a segment"))
	segs, maxGen, err := wal.Segments(fs, "wal")
	if err != nil || len(segs) != 0 || maxGen != 0 {
		t.Fatalf("foreign-only dir: segs=%v maxGen=%d err=%v", segs, maxGen, err)
	}
	segs, maxGen, err = wal.Segments(fs, "absent")
	if err != nil || len(segs) != 0 || maxGen != 0 {
		t.Fatalf("absent dir: segs=%v maxGen=%d err=%v", segs, maxGen, err)
	}
}

// TestIntervalFlusherMakesDurable: the SyncInterval background flusher
// promotes appended groups without an explicit Flush.
func TestIntervalFlusherMakesDurable(t *testing.T) {
	fs := faultfs.New()
	s, err := wal.Open(wal.Options{Dir: "wal", Policy: wal.SyncInterval, Interval: 2 * time.Millisecond, FS: fs}, 1, 1, func(i int) []byte {
		return group(payload(0x01, byte(i)))
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	s.Log(0).Append(group(payload(0x10, 1)))
	deadline := time.Now().Add(5 * time.Second)
	for {
		if data := fs.Durable("wal/s000-g000001.wal"); len(data) > 0 {
			fs2 := faultfs.New()
			fs2.SetFile("wal/s000-g000001.wal", data)
			sl, err := scanShard(fs2, shardPaths(t, fs2, 0))
			if err == nil && len(sl.Payloads) == 2 {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("background flusher never made the group durable")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLargeBufferInlineFlush: a buffered log writes (without fsync) once
// its buffer passes the threshold, bounding memory.
func TestLargeBufferInlineFlush(t *testing.T) {
	fs := faultfs.New()
	s := openSet(t, fs, wal.SyncNone, 1, 1)
	defer s.Close()
	big := make([]byte, 4096)
	for i := range big {
		big[i] = byte(i)
	}
	var appended int
	for i := 0; i < 100; i++ {
		g := group(append([]byte{0x10}, big...))
		appended += len(g)
		if err := s.Log(0).Append(g); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	// Live (unsynced) file view must show the threshold-flushed prefix.
	f, err := fs.Open("wal/s000-g000001.wal")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	data, err := io.ReadAll(f)
	if err != nil || len(data) == 0 {
		t.Fatalf("no bytes written inline (err=%v)", err)
	}
	if len(data) > appended+64 {
		t.Fatalf("wrote %d bytes for %d appended", len(data), appended)
	}
}

func ExampleSegments() {
	fs := faultfs.New()
	s, _ := wal.Open(wal.Options{Dir: "d", Policy: wal.SyncAlways, FS: fs}, 2, 1, func(i int) []byte {
		return codec.AppendFrame(nil, []byte{0x01, byte(i)})
	})
	s.Close()
	segs, maxGen, _ := wal.Segments(fs, "d")
	fmt.Println(len(segs), maxGen)
	// Output: 2 1
}
