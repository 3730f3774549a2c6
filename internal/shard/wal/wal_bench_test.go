package wal_test

import (
	"bytes"
	"io"
	"testing"

	"ftoa/internal/codec"
	"ftoa/internal/faultfs"
	"ftoa/internal/shard/wal"
)

// benchGroup builds a representative op group: two interim decision
// records plus a ~40-byte admission payload, the shape an owner
// admission with a gate verdict and a sequence record writes.
func benchGroup() []byte {
	body := make([]byte, 40)
	for i := range body {
		body[i] = byte(i)
	}
	var g []byte
	g = codec.AppendFrame(g, []byte{0x82, 1})
	g = codec.AppendFrame(g, append([]byte{0x80}, 1, 2, 3, 4, 5, 6, 7, 8))
	g = codec.AppendFrame(g, append([]byte{0x10}, body...))
	return g
}

// BenchmarkAppendBuffered measures the admission hot path's WAL cost in
// the default buffered (group-commit) mode: one mutex-protected copy
// into the shard's buffer per op group, no I/O.
func BenchmarkAppendBuffered(b *testing.B) {
	fs := faultfs.New()
	s, err := wal.Open(wal.Options{Dir: "wal", Policy: wal.SyncNone, FS: fs}, 1, 1, func(int) []byte {
		return codec.AppendFrame(nil, []byte{0x01})
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	g := benchGroup()
	b.SetBytes(int64(len(g)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Log(0).Append(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendSyncAlways is the per-operation durability ceiling:
// every group is written and fsynced before the append returns.
func BenchmarkAppendSyncAlways(b *testing.B) {
	fs := faultfs.New()
	s, err := wal.Open(wal.Options{Dir: "wal", Policy: wal.SyncAlways, FS: fs}, 1, 1, func(int) []byte {
		return codec.AppendFrame(nil, []byte{0x01})
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	g := benchGroup()
	b.SetBytes(int64(len(g)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Log(0).Append(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScan measures replay-side read throughput over a segment of
// 10k op groups: framing, CRC and the callback, through the scanner's
// fixed buffer — 0 allocs/op once the buffer exists (the first
// iteration makes it).
func BenchmarkScan(b *testing.B) {
	fs := faultfs.New()
	s, err := wal.Open(wal.Options{Dir: "wal", Policy: wal.SyncNone, FS: fs}, 1, 1, func(int) []byte {
		return codec.AppendFrame(nil, []byte{0x01})
	})
	if err != nil {
		b.Fatal(err)
	}
	g := benchGroup()
	for i := 0; i < 10000; i++ {
		if err := s.Log(0).Append(g); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	f, err := fs.Open(shardPaths(b, fs, 0)[0])
	if err != nil {
		b.Fatal(err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		b.Fatal(err)
	}
	var sc wal.Scanner
	var rd bytes.Reader
	count := func([]byte) error { return nil }
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(data)
		info, err := sc.Scan(&rd, count)
		if err != nil {
			b.Fatal(err)
		}
		if info.Records != 1+3*10000 {
			b.Fatalf("records = %d", info.Records)
		}
	}
}
