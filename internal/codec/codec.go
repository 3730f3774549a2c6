// Package codec is the one binary record format of the per-shard
// write-ahead log (internal/shard/wal) and the wire protocol
// (internal/wire). A frame is
//
//	[u32 payload length][u32 CRC-32C of payload][payload]
//
// little-endian, the payload's first byte naming the record or message
// type. What a frame failing its length bound or CRC check means is the
// caller's: the WAL truncates a torn tail there, a wire connection drops.
// Reader is the one bounds-checked cursor over payload fields, whether
// the bytes came from disk or from the network.
package codec

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// HeaderLen is the framing overhead: u32 length + u32 CRC.
const HeaderLen = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends payload, framed, to dst and returns the extended
// slice.
func AppendFrame(dst, payload []byte) []byte {
	dst = AppendU32(dst, uint32(len(payload)))
	dst = AppendU32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// Header parses a frame header (at least HeaderLen bytes): the payload
// length it declares and the payload's checksum. ok is false when the
// length is outside (0, limit].
func Header(h []byte, limit int) (n int, sum uint32, ok bool) {
	v := binary.LittleEndian.Uint32(h)
	if v == 0 || uint64(v) > uint64(limit) {
		return 0, 0, false
	}
	return int(v), binary.LittleEndian.Uint32(h[4:]), true
}

// Valid reports whether payload matches the checksum its header carried.
func Valid(payload []byte, sum uint32) bool {
	return crc32.Checksum(payload, castagnoli) == sum
}

// AppendU16, AppendU32, AppendU64 and AppendF64 append one little-endian
// field.
func AppendU16(dst []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(dst, v) }
func AppendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }
func AppendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }
func AppendF64(dst []byte, v float64) []byte {
	return AppendU64(dst, math.Float64bits(v))
}

// Reader is a little-endian payload cursor with a sticky error: after the
// first field that runs past the payload, every read returns zeros and Err
// reports that field. Errors start with the prefix the Reader was made
// with ("wal", "wire").
type Reader struct {
	prefix string
	p      []byte
	off    int
	// short is set by the first field that ran past the payload, what and
	// at name it; the error is built only when asked for, so reads inline.
	short bool
	what  string
	at    int
}

// NewReader reads p from offset off; a payload's type byte is usually
// dispatched already, so off is usually 1.
func NewReader(prefix string, p []byte, off int) Reader {
	return Reader{prefix: prefix, p: p, off: off}
}

// Bytes returns the next n bytes, aliasing the payload, or nil once the
// payload has run out.
func (r *Reader) Bytes(n int, what string) []byte {
	if r.short || n < 0 || r.off+n > len(r.p) {
		if !r.short {
			r.short, r.what, r.at = true, what, r.off
		}
		return nil
	}
	v := r.p[r.off : r.off+n]
	r.off += n
	return v
}

// zeros is what a fixed-width field reads as after a truncation.
var zeros [8]byte

// field is the next n ≤ 8 bytes, or n zero bytes once the payload has run
// out.
func (r *Reader) field(n int, what string) []byte {
	if b := r.Bytes(n, what); b != nil {
		return b
	}
	return zeros[:n]
}

// U8, U16, U32, U64 and F64 read one field; what names it in the error.
func (r *Reader) U8(what string) byte     { return r.field(1, what)[0] }
func (r *Reader) U16(what string) uint16  { return binary.LittleEndian.Uint16(r.field(2, what)) }
func (r *Reader) U32(what string) uint32  { return binary.LittleEndian.Uint32(r.field(4, what)) }
func (r *Reader) U64(what string) uint64  { return binary.LittleEndian.Uint64(r.field(8, what)) }
func (r *Reader) F64(what string) float64 { return math.Float64frombits(r.U64(what)) }

// Len is how many payload bytes remain unread: the bound a declared count
// is checked against before it sizes anything.
func (r *Reader) Len() int { return len(r.p) - r.off }

// Err is the first truncation, or nil.
func (r *Reader) Err() error {
	if !r.short {
		return nil
	}
	return r.truncated()
}

// truncated is kept out of line so that Err, checked once per entry by
// the decode loops, inlines.
//
//go:noinline
func (r *Reader) truncated() error {
	return fmt.Errorf("%s: truncated %s at offset %d", r.prefix, r.what, r.at)
}

// Done is Err, or an error when bytes remain after the message named msg.
func (r *Reader) Done(msg string) error {
	if !r.short && r.off != len(r.p) {
		return fmt.Errorf("%s: %d trailing bytes after %s", r.prefix, len(r.p)-r.off, msg)
	}
	return r.Err()
}
