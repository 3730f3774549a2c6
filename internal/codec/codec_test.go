package codec_test

import (
	"bytes"
	"fmt"
	"testing"

	"ftoa/internal/codec"
)

func TestFrameAndReader(t *testing.T) {
	payload := codec.AppendF64(codec.AppendU16([]byte{0x10}, 7), 2.5)
	frame := codec.AppendFrame([]byte{0xAA}, payload)
	h := frame[1:]
	n, sum, ok := codec.Header(h, 64)
	if !ok || n != len(payload) || !bytes.Equal(h[codec.HeaderLen:], payload) || !codec.Valid(h[codec.HeaderLen:], sum) {
		t.Fatalf("frame %x: header (%d, %08x, %v) does not carry payload %x", frame, n, sum, ok, payload)
	}
	if _, _, ok := codec.Header(h, n-1); ok {
		t.Fatal("a length over the limit parsed")
	}
	if _, _, ok := codec.Header(make([]byte, codec.HeaderLen), 64); ok {
		t.Fatal("a zero length parsed")
	}
	h[codec.HeaderLen+1] ^= 1
	if codec.Valid(h[codec.HeaderLen:], sum) {
		t.Fatal("a flipped payload bit passed the CRC check")
	}

	r := codec.NewReader("wire", payload, 1)
	v := r.U16("count")
	left := r.Len()
	if f := r.F64("time"); v != 7 || left != 8 || f != 2.5 || r.Done("msg") != nil {
		t.Fatalf("read back %d, %d bytes left, %v, %v", v, left, f, r.Done("msg"))
	}
	r = codec.NewReader("wal", payload, 1)
	r.U32("handle")
	if v := r.U64("clock"); v != 0 || r.Bytes(0, "tail") != nil {
		t.Fatal("a read after a truncation returned data")
	}
	if got, want := r.Done("msg").Error(), "wal: truncated clock at offset 5"; got != want {
		t.Fatalf("truncation error %q, want %q", got, want)
	}
	r = codec.NewReader("wire", payload, 1)
	r.U8("kind")
	if got, want := r.Done("hello").Error(), "wire: 9 trailing bytes after hello"; got != want {
		t.Fatalf("trailing-bytes error %q, want %q", got, want)
	}
}

func ExampleAppendFrame() {
	g := codec.AppendFrame(nil, []byte{0x10, 0xff})
	fmt.Println(len(g))
	// Output: 10
}
