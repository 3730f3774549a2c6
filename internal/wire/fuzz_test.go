package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"net"
	"testing"
)

// The decoders below read bytes straight off the network: the frame
// reader under every connection, the handshake and subscription messages,
// Batch on the server's admission path, BatchReply on the client's, Events
// on every subscriber. For any input they must not panic, must not size an
// allocation from a declared count the payload cannot back, and whatever
// they accept must re-encode to the bytes it was decoded from. Seed
// corpora live in testdata/fuzz.

func FuzzDecodeBatch(f *testing.F) {
	valid, err := AppendBatch(nil, 7, []Request{
		{Kind: ReqAddWorker, Seq: 1, X: 10, Y: 20, At: math.NaN(), Window: 300},
		{Kind: ReqAddTask, Seq: 2, X: 11, Y: 21, At: 5, Window: 60},
		{Kind: ReqAdvance},
		{Kind: ReqWithdrawWorker, Seq: 3, Shard: 4, Local: 5, Epoch: 6},
		{Kind: ReqWithdrawTask, Seq: 4, Shard: 1, Local: 2, Epoch: 3},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	// What the codec carries but the server must not trust (ftoa-serve
	// clamps the stamp and refuses the coordinates): a non-finite arrival
	// time, non-finite coordinates.
	hostile, err := AppendBatch(nil, 8, []Request{
		{Kind: ReqAddWorker, Seq: 1, X: 10, Y: 20, At: math.Inf(1), Window: 300},
		{Kind: ReqAddTask, Seq: 2, X: math.NaN(), Y: math.Inf(-1), At: 5, Window: 60},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(hostile)
	f.Add(valid[:len(valid)-3])                                 // truncated mid-entry
	f.Add(append(append([]byte(nil), valid...), 0))             // trailing byte
	f.Add([]byte{MsgBatch, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff}) // 65535 entries, none present
	f.Add([]byte{MsgBatch, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0x7f}) // unknown request kind
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		id, reqs, err := DecodeBatch(p, nil)
		if cap(reqs) > 2*len(p) { // the smallest request is one byte
			t.Fatalf("%d-byte payload grew a %d-request slice", len(p), cap(reqs))
		}
		if err != nil {
			return
		}
		if len(reqs) == 0 || len(reqs) > MaxBatch {
			t.Fatalf("accepted a batch of %d requests", len(reqs))
		}
		enc, err := AppendBatch(nil, id, reqs)
		if err != nil {
			t.Fatalf("accepted batch does not re-encode: %v", err)
		}
		if !bytes.Equal(enc[1:], p[1:]) { // byte 0 is the frame type, dispatched on before decoding
			t.Fatalf("round trip changed the payload:\n in  %x\n out %x", p, enc)
		}
	})
}

func FuzzDecodeEvents(f *testing.F) {
	valid := AppendEvents(nil, 42, []Event{
		{Seq: 40, Shard: 1, Kind: 0, Worker: 3, Task: 4, Time: 1.5, WorkerShard: 1, TaskShard: 2},
		{Seq: 41, Shard: 2, Kind: 1, Worker: 9, Task: -1, Time: math.Inf(1), WorkerShard: 2, TaskShard: -1},
	})
	f.Add(valid)
	f.Add(AppendEvents(nil, 0, nil))
	f.Add(valid[:len(valid)-1])                                  // truncated
	f.Add(append(append([]byte(nil), valid...), 0))              // trailing byte
	f.Add([]byte{MsgEvents, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff}) // 65535 events, none present
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		next, evs, err := DecodeEvents(p)
		if cap(evs)*eventWireSize > len(p) {
			t.Fatalf("%d-byte payload allocated room for %d events", len(p), cap(evs))
		}
		if err != nil {
			return
		}
		if enc := AppendEvents(nil, next, evs); !bytes.Equal(enc[1:], p[1:]) {
			t.Fatalf("round trip changed the payload:\n in  %x\n out %x", p, enc)
		}
	})
}

func FuzzDecodeBatchReply(f *testing.F) {
	valid := AppendBatchReply(nil, 7, []Result{
		{Kind: ReqAddWorker, Status: StatusOK, Shard: 1, Local: 2, Epoch: 3, Time: 4.5},
		{Kind: ReqAdvance, Status: StatusOK, Time: 9},
		{Kind: ReqWithdrawTask, Status: StatusOK, Applied: true},
		{Kind: ReqAddTask, Status: StatusBusy, RetryAfter: 0.25},
		{Kind: ReqAddTask, Status: StatusErr, Msg: "finished"},
	})
	f.Add(valid)
	f.Add(AppendBatchReply(nil, 0, nil))
	f.Add(valid[:len(valid)-2])                                      // truncated mid-message
	f.Add(append(append([]byte(nil), valid...), 0))                  // trailing byte
	f.Add([]byte{MsgBatchReply, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff}) // 65535 results, none present
	f.Add([]byte{MsgBatchReply, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 9}) // unknown status
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		id, results, err := DecodeBatchReply(p)
		if cap(results)*minResultWireSize > len(p) {
			t.Fatalf("%d-byte payload allocated room for %d results", len(p), cap(results))
		}
		if err != nil {
			return
		}
		// The encoding is not canonical in two places (any non-zero applied
		// byte is true; an over-long message is cut on encode), so the round
		// trip is checked one step later: what was decoded must re-encode
		// to bytes that decode and re-encode to themselves.
		enc := AppendBatchReply(nil, id, results)
		id2, again, err := DecodeBatchReply(enc)
		if err != nil || id2 != id || len(again) != len(results) {
			t.Fatalf("re-encoded reply does not decode back: id %d->%d, %d->%d results, err %v", id, id2, len(results), len(again), err)
		}
		if enc2 := AppendBatchReply(nil, id2, again); !bytes.Equal(enc2, enc) {
			t.Fatalf("round trip is not a fixed point:\n first  %x\n second %x", enc, enc2)
		}
	})
}

// castagnoli is the tests' own CRC-32C table, so the reference frames
// below do not come from the code they check.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frame is the framing ReadFrame parses: [u32 length][u32 CRC-32C][payload].
func frame(payload []byte) []byte {
	var h [8]byte
	binary.LittleEndian.PutUint32(h[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(h[4:8], crc32.Checksum(payload, castagnoli))
	return append(h[:], payload...)
}

// frameError is the error ReadFrame must stop with when rest is what is
// left of the stream and holds no good frame.
func frameError(rest []byte) error {
	if len(rest) == 0 {
		return io.EOF
	}
	if len(rest) < 8 {
		return io.ErrUnexpectedEOF
	}
	switch n := binary.LittleEndian.Uint32(rest); {
	case n == 0 || n > MaxPayload:
		return ErrTooLarge
	case uint64(len(rest)) < 8+uint64(n):
		return io.ErrUnexpectedEOF
	default:
		return ErrCRC
	}
}

func FuzzReadFrame(f *testing.F) {
	batch, err := AppendBatch(nil, 7, []Request{{Kind: ReqAddWorker, Seq: 1, X: 1, Y: 2, At: 3, Window: 4}})
	if err != nil {
		f.Fatal(err)
	}
	var stream []byte
	for _, p := range [][]byte{AppendHello(nil, 42), batch, AppendSubscribe(nil, SinceNow), AppendEventsGone(nil, 9)} {
		stream = append(stream, frame(p)...)
	}
	f.Add(stream)
	bad := frame(AppendHelloAck(nil, 4, 1.5))
	bad[len(bad)-1] ^= 1
	f.Add(bad)                                        // CRC mismatch
	f.Add(frame(nil))                                 // zero length
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // length past MaxPayload
	f.Add(stream[:len(stream)-3])                     // torn last frame
	f.Add(stream[:5])                                 // torn header
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		client, server := net.Pipe()
		wrote := make(chan struct{})
		go func() {
			client.Write(p)
			client.Close()
			close(wrote)
		}()
		cn := NewConn(server)
		// Walk the same bytes by hand beside the reader: every frame it
		// returns must be the next one in p, and its error must name what
		// is wrong with the rest.
		off := 0
		for {
			payload, err := cn.ReadFrame()
			rest := p[off:]
			if err != nil {
				// A torn frame may read as a plain EOF (a header whose
				// payload never starts); callers treat both EOFs alike.
				want := frameError(rest)
				if !errors.Is(err, want) && !(want == io.ErrUnexpectedEOF && errors.Is(err, io.EOF)) {
					t.Fatalf("at offset %d: ReadFrame error %v, want %v", off, err, want)
				}
				break
			}
			if len(payload) == 0 || len(payload) > MaxPayload {
				t.Fatalf("at offset %d: %d-byte payload", off, len(payload))
			}
			if len(rest) < 8+len(payload) || int(binary.LittleEndian.Uint32(rest)) != len(payload) ||
				!bytes.Equal(payload, rest[8:8+len(payload)]) {
				t.Fatalf("at offset %d: payload is not the next frame's", off)
			}
			if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(rest[4:]) {
				t.Fatalf("at offset %d: payload accepted with a wrong CRC", off)
			}
			off += 8 + len(payload)
		}
		server.Close() // unblocks a writer the reader stopped early on
		<-wrote
	})
}

func FuzzDecodeHandshake(f *testing.F) {
	hello := AppendHello(nil, 0x1234)
	f.Add(hello)
	foreign := append([]byte(nil), hello...)
	foreign[1+len(Magic)] = Version + 1
	f.Add(foreign[:2+len(Magic)]) // a foreign version without a client id
	f.Add(AppendHelloAck(nil, 16, 2.5))
	f.Add(AppendSubscribe(nil, SinceNow))
	f.Add(AppendEventsGone(nil, 77))
	f.Add(AppendError(nil, "protocol version mismatch"))
	f.Add([]byte{MsgError, 0xff, 0xff, 'x'}) // message length past the payload
	f.Add(hello[:len(hello)-1])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		// Byte 0 is the frame type, dispatched on before decoding, so each
		// round trip compares from byte 1.
		same := func(what string, enc []byte) {
			if !bytes.Equal(enc[1:], p[1:]) {
				t.Fatalf("%s round trip changed the payload:\n in  %x\n out %x", what, p, enc)
			}
		}
		// A foreign version is parsed only far enough to be refused.
		if v, id, err := DecodeHello(p); err == nil && v == Version {
			same("Hello", AppendHello(nil, id))
		}
		if ack, err := DecodeHelloAck(p); err == nil {
			enc := AppendHelloAck(nil, ack.Shards, ack.Now)
			enc[1] = ack.Version // the encoder always writes its own
			same("HelloAck", enc)
		}
		if since, err := DecodeSubscribe(p); err == nil {
			same("Subscribe", AppendSubscribe(nil, since))
		}
		if oldest, err := DecodeEventsGone(p); err == nil {
			same("EventsGone", AppendEventsGone(nil, oldest))
		}
		// A message past the encoder's cap is accepted from a foreign peer
		// but cannot be re-encoded whole.
		var remote *RemoteError
		if err := DecodeError(p); errors.As(err, &remote) && len(remote.Msg) <= maxMsg {
			same("Error", AppendError(nil, remote.Msg))
		}
	})
}
