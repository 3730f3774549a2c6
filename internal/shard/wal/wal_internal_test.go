package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"testing"
	"testing/iotest"

	"ftoa/internal/codec"
)

// frameHeader and castagnoli are the reference parser's own reading of a
// frame, [u32 length][u32 CRC-32C][payload], kept apart from package codec.
const frameHeader = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// parseFrames is the whole-file parser the streaming Scanner replaced,
// kept here as the naive reference the scanner is checked against: it
// splits data into payloads, stopping at the first frame that fails a
// length or CRC check, and returns the payloads (sub-slices of data) and
// how many tail bytes were dropped.
func parseFrames(data []byte) (payloads [][]byte, torn int64) {
	off := 0
	for off+frameHeader <= len(data) {
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		if n == 0 || n > maxRecordLen || off+frameHeader+n > len(data) {
			break
		}
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		payload := data[off+frameHeader : off+frameHeader+n]
		if crc32.Checksum(payload, castagnoli) != sum {
			break
		}
		payloads = append(payloads, payload)
		off += frameHeader + n
	}
	return payloads, int64(len(data) - off)
}

// naiveRead is the reference reading of one segment: parseFrames, then
// the trailing interim run dropped.
func naiveRead(data []byte) (payloads [][]byte, torn int64, dangling int) {
	payloads, torn = parseFrames(data)
	n := len(payloads)
	for n > 0 && payloads[n-1][0]&InterimBit != 0 {
		n--
	}
	return payloads[:n], torn, len(payloads) - n
}

// scanAll runs the Scanner over r and returns a copy of every payload it
// delivered — the dangling interim run included, since the scanner hands
// interim records over before it can know they dangle.
func scanAll(t testing.TB, sc *Scanner, r io.Reader) ([][]byte, ScanInfo) {
	t.Helper()
	var got [][]byte
	info, err := sc.Scan(r, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return got, info
}

// checkAgainstNaive scans data through r (some chunking of data) and
// requires the naive reference's payload sequence, torn bytes and
// dangling count.
func checkAgainstNaive(t testing.TB, sc *Scanner, data []byte, r io.Reader, label string) {
	t.Helper()
	want, torn, dangling := naiveRead(data)
	got, info := scanAll(t, sc, r)
	if info.DanglingRecords != dangling || info.TornBytes != torn || info.Records != len(want) {
		t.Fatalf("%s: scan = %+v, want %d records, %d torn bytes, %d dangling", label, info, len(want), torn, dangling)
	}
	if info.Bytes != int64(len(data)) {
		t.Fatalf("%s: read %d of %d bytes", label, info.Bytes, len(data))
	}
	if len(got) != len(want)+dangling {
		t.Fatalf("%s: delivered %d payloads, want %d + %d dangling", label, len(got), len(want), dangling)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: payload %d = %x, want %x", label, i, got[i], want[i])
		}
	}
	for _, p := range got[len(want):] {
		if p[0]&InterimBit == 0 {
			t.Fatalf("%s: terminal payload %x delivered after the last durable record", label, p)
		}
	}
}

// chunkReader hands out at most n bytes per Read.
type chunkReader struct {
	r io.Reader
	n int
}

func (c chunkReader) Read(p []byte) (int, error) {
	if len(p) > c.n {
		p = p[:c.n]
	}
	return c.r.Read(p)
}

func frames(payloads ...[]byte) []byte {
	var data []byte
	for _, p := range payloads {
		data = codec.AppendFrame(data, p)
	}
	return data
}

func TestScanRoundtrip(t *testing.T) {
	in := [][]byte{{0x10, 1, 2, 3}, {0x80}, {0x20}, bytes.Repeat([]byte{7}, 300)}
	got, info := scanAll(t, new(Scanner), bytes.NewReader(frames(in...)))
	if info.TornBytes != 0 || info.DanglingRecords != 0 || info.Records != len(in) {
		t.Fatalf("scan = %+v on clean data", info)
	}
	if len(got) != len(in) {
		t.Fatalf("parsed %d payloads, want %d", len(got), len(in))
	}
	for i := range in {
		if !bytes.Equal(got[i], in[i]) {
			t.Fatalf("payload %d = %x, want %x", i, got[i], in[i])
		}
	}
}

// TestScanTornTail cuts a clean stream at every byte offset: the scan
// must deliver exactly the whole frames before the cut and report the
// rest as torn — never a partial or corrupted record.
func TestScanTornTail(t *testing.T) {
	in := [][]byte{{0x10, 1, 2}, {0x81, 9}, {0x20, 4, 5, 6, 7}}
	data := frames(in...)
	// Frame boundaries in the byte stream.
	bounds := []int{0}
	for _, p := range in {
		bounds = append(bounds, bounds[len(bounds)-1]+frameHeader+len(p))
	}
	for cut := 0; cut <= len(data); cut++ {
		got, info := scanAll(t, new(Scanner), bytes.NewReader(data[:cut]))
		torn := info.TornBytes
		whole := 0
		for whole+1 < len(bounds) && bounds[whole+1] <= cut {
			whole++
		}
		if len(got) != whole {
			t.Fatalf("cut %d: parsed %d payloads, want %d", cut, len(got), whole)
		}
		if want := int64(cut - bounds[whole]); torn != want {
			t.Fatalf("cut %d: torn = %d, want %d", cut, torn, want)
		}
	}
}

// TestScanCorruptMiddle flips one payload byte mid-stream: the scan must
// logically truncate at the corrupt frame, keeping only the clean prefix.
func TestScanCorruptMiddle(t *testing.T) {
	in := [][]byte{{0x10, 1}, {0x11, 2}, {0x12, 3}}
	data := frames(in...)
	data[frameHeader+2+frameHeader+1] ^= 0xFF // second frame's payload
	got, info := scanAll(t, new(Scanner), bytes.NewReader(data))
	if len(got) != 1 || !bytes.Equal(got[0], in[0]) {
		t.Fatalf("parsed %d payloads after corruption, want just the first", len(got))
	}
	if want := int64(len(data) - frameHeader - len(in[0])); info.TornBytes != want {
		t.Fatalf("torn = %d, want the %d bytes from the corrupt frame on", info.TornBytes, want)
	}
}

func TestScanRejectsWildLength(t *testing.T) {
	data := frames([]byte{0x10, 1})
	bad := append(append([]byte(nil), data...), 0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0)
	got, info := scanAll(t, new(Scanner), bytes.NewReader(bad))
	if len(got) != 1 {
		t.Fatalf("parsed %d payloads, want 1", len(got))
	}
	if info.TornBytes != 8 {
		t.Fatalf("torn = %d, want 8", info.TornBytes)
	}
}

// TestScanStraddlesBuffer slides a frame, and then a torn frame, across
// the read-buffer boundary byte by byte: padding frames push the probe
// frame's start to every offset from a whole frame before the boundary to
// just past it, under whole-buffer, half and one-byte reads.
func TestScanStraddlesBuffer(t *testing.T) {
	probe := append([]byte{0x10}, bytes.Repeat([]byte{0xAB}, 90)...)
	pad := []byte{0x20, 1, 2, 3, 4, 5, 6, 7} // 16 bytes framed
	sc := new(Scanner)
	for start := scanBufSize - len(probe) - 2*frameHeader; start <= scanBufSize+frameHeader; start++ {
		var data []byte
		for len(data)+frameHeader+len(pad) <= start {
			data = codec.AppendFrame(data, pad)
		}
		// One odd-sized frame lands the probe on the exact offset.
		if gap := start - len(data); gap > frameHeader {
			data = codec.AppendFrame(data, append([]byte{0x21}, make([]byte, gap-frameHeader-1)...))
		} else if gap != 0 {
			continue
		}
		whole := codec.AppendFrame(codec.AppendFrame(data, probe), []byte{0x22, 9})
		for cut := len(data); cut <= len(whole); cut += 7 {
			torn := whole[:cut]
			checkAgainstNaive(t, sc, torn, bytes.NewReader(torn), "whole reads")
			checkAgainstNaive(t, sc, torn, iotest.HalfReader(bytes.NewReader(torn)), "half reads")
		}
		checkAgainstNaive(t, sc, whole, bytes.NewReader(whole), "whole reads")
		checkAgainstNaive(t, sc, whole, iotest.OneByteReader(bytes.NewReader(whole)), "one-byte reads")
	}
	if len(sc.buf) != scanBufSize {
		t.Fatalf("read buffer grew to %d bytes on records that fit it", len(sc.buf))
	}
}

// TestScanRecordLargerThanBuffer: a record the fixed buffer cannot hold
// is still read (the buffer is replaced by one of exactly its size), and
// the scanner never holds more than the largest legal record.
func TestScanRecordLargerThanBuffer(t *testing.T) {
	big := append([]byte{0x10}, bytes.Repeat([]byte{5}, 3*scanBufSize)...)
	data := frames([]byte{0x11, 1}, big, []byte{0x12, 2})
	sc := new(Scanner)
	checkAgainstNaive(t, sc, data, chunkReader{bytes.NewReader(data), 1000}, "large record")
	if want := frameHeader + len(big); len(sc.buf) != want {
		t.Fatalf("buffer = %d bytes, want exactly the record's %d", len(sc.buf), want)
	}
	// A length field that claims the maximum, backed by nothing.
	var wild [frameHeader]byte
	binary.LittleEndian.PutUint32(wild[:], maxRecordLen)
	checkAgainstNaive(t, sc, wild[:], bytes.NewReader(wild[:]), "overclaimed length")
	if len(sc.buf) > frameHeader+maxRecordLen {
		t.Fatalf("buffer = %d bytes, above the record bound", len(sc.buf))
	}
}

// TestScanStopsOnCallbackError: fn's error comes back as is and ends the
// scan where it was raised.
func TestScanStopsOnCallbackError(t *testing.T) {
	data := frames([]byte{0x10, 1}, []byte{0x11, 2}, []byte{0x12, 3})
	seen := 0
	_, err := new(Scanner).Scan(bytes.NewReader(data), func(p []byte) error {
		if seen++; seen == 2 {
			return io.ErrClosedPipe
		}
		return nil
	})
	if err != io.ErrClosedPipe || seen != 2 {
		t.Fatalf("err = %v after %d payloads, want the callback's error after 2", err, seen)
	}
}

// TestScanSurfacesReadError: a failing read is an error, not a torn tail.
func TestScanSurfacesReadError(t *testing.T) {
	data := frames([]byte{0x10, 1}, []byte{0x11, 2})
	r := io.MultiReader(bytes.NewReader(data[:13]), iotest.ErrReader(io.ErrNoProgress))
	if _, err := new(Scanner).Scan(r, func([]byte) error { return nil }); err != io.ErrNoProgress {
		t.Fatalf("err = %v, want the reader's", err)
	}
}

// FuzzWALScan feeds arbitrary bytes through the scanner under varying
// read-chunk sizes and checks it against the naive whole-file reference:
// same payload sequence, same torn bytes, same dangling count, and a read
// buffer that never exceeds the fixed size plus the largest legal record.
func FuzzWALScan(f *testing.F) {
	clean := frames([]byte{0x01, 9}, []byte{0x82, 1}, []byte{0x10, 1, 2, 3}, []byte{0x80, 1})
	f.Add(clean, uint16(0))
	f.Add(clean[:len(clean)-3], uint16(1))
	f.Add(append(append([]byte(nil), clean...), 0xFF, 0xFF, 0x0F, 0, 1, 2, 3, 4, 5), uint16(5))
	f.Add([]byte{}, uint16(3))
	f.Fuzz(func(t *testing.T, data []byte, chunk uint16) {
		sc := new(Scanner)
		checkAgainstNaive(t, sc, data, bytes.NewReader(data), "whole reads")
		checkAgainstNaive(t, sc, data, iotest.OneByteReader(bytes.NewReader(data)), "one-byte reads")
		checkAgainstNaive(t, sc, data, iotest.HalfReader(bytes.NewReader(data)), "half reads")
		checkAgainstNaive(t, sc, data, chunkReader{bytes.NewReader(data), int(chunk)%4096 + 1}, "chunked reads")
		if len(sc.buf) > max(scanBufSize, frameHeader+maxRecordLen) {
			t.Fatalf("read buffer grew to %d bytes", len(sc.buf))
		}
	})
}

func TestSegmentNameRoundtrip(t *testing.T) {
	for _, c := range []struct {
		shard int
		gen   uint64
	}{{0, 1}, {7, 3}, {123, 4000000}} {
		name := segmentName(c.shard, c.gen)
		s, g, ok := parseSegmentName(name)
		if !ok || s != c.shard || g != c.gen {
			t.Fatalf("roundtrip of %q: (%d,%d,%v)", name, s, g, ok)
		}
	}
	for _, junk := range []string{"notes.txt", "s001.wal", "g12-s01.wal", "s01-g02.tmp"} {
		if _, _, ok := parseSegmentName(junk); ok {
			t.Errorf("foreign name %q parsed as a segment", junk)
		}
	}
}
