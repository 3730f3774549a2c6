// Package wire is the binary serving protocol of ftoa-serve: a compact,
// length-prefixed, CRC-framed message format for batched admission
// (AddWorker/AddTask), clock advance, receipt withdrawal, and lifecycle
// event push over a single TCP connection.
//
// # Framing
//
// Every message travels as one frame of package internal/codec, the frame
// the WAL writes too:
//
//	[u32 payload length][u32 CRC-32C of payload][payload]
//
// little-endian throughout. The payload's first byte is the message type.
// A frame that fails its length bound or CRC check is a protocol error:
// unlike the WAL — where a torn tail is expected and truncates — a
// corrupt frame on a live connection has no recovery point, so both ends
// drop the connection.
//
// # Conversation
//
// The client opens with Hello (magic + version); the server answers
// HelloAck (version, shard count, server clock) or Error. After the
// handshake the client sends Batch frames — each carrying up to MaxBatch
// requests — and, optionally, one Subscribe frame. The server answers
// every Batch with exactly one BatchReply carrying one result per request
// in order, and pushes Events frames to subscribed connections as the
// merged stream grows. Replies to concurrent batches may interleave with
// event pushes; BatchReply.ID correlates.
//
// # Batch semantics
//
// Admissions in one batch are enqueued into the server's per-shard
// admission rings (shard.Admitter) and the reply waits for all of them to
// drain — so a reply in hand means every admitted object is in its shard
// (and, on a durable server, WAL-recorded). Advance and Withdraw entries
// apply after the batch's admissions, in batch order. Advance carries no
// timestamp: the server advances to its own clock, so a remote client can
// never yank time forward and expire other clients' objects.
//
// # Backpressure
//
// A full admission ring refuses the enqueue immediately and the entry's
// result is StatusBusy with a retry-after hint in seconds; the rest of
// the batch is unaffected. BUSY is per-entry and retryable; Error frames
// are fatal (the connection closes after one).
//
// # Idempotency (version 2)
//
// The network between a client and the server is assumed adversarial:
// an acknowledgment can be lost after the server applied the batch, so a
// client that resends after a reconnect would double-admit under a naive
// protocol. Version 2 makes at-least-once delivery produce exactly-once
// effects: the Hello carries a stable 64-bit client id, every effectful
// request (admission or withdrawal) carries a client-assigned sequence
// number, and the server keeps a bounded per-client window of completed
// (seq -> result) records. A re-sent op whose seq is already recorded is
// answered with the original receipt instead of being re-applied; a seq
// that has aged out of the window is refused with StatusErr, because the
// server can no longer tell whether it executed. Seq 0 is reserved
// (Client.Do assigns unset seqs itself) and refused. Advance carries no
// seq: it moves the server to its own clock, so replaying it is harmless.
package wire

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"ftoa/internal/codec"
)

// Magic opens every Hello; Version is the protocol version this package
// speaks. A server refuses other versions with an Error frame, so the
// version byte is the compatibility gate for any future payload change.
// Version 2 added idempotency tokens: the Hello carries a 64-bit client
// id and every effectful request a client-assigned seq; a token-less
// version-1 client is refused at the handshake with a fatal Error frame.
const (
	Magic   = "FTWIRE\x00"
	Version = 2
)

// MaxPayload bounds one frame's payload; MaxBatch bounds requests per
// Batch frame (fits comfortably under MaxPayload at 41 bytes/request).
const (
	MaxPayload = 1 << 20
	MaxBatch   = 4096
)

// maxMsg caps the message an Error frame or a StatusErr result carries;
// longer ones are cut on encode.
const maxMsg = 1 << 10

// Message types (first payload byte).
const (
	MsgHello      byte = 0x01 // c→s: magic, version, u64 client id
	MsgHelloAck   byte = 0x02 // s→c: version, u32 shards, f64 now
	MsgBatch      byte = 0x10 // c→s: u64 id, u16 count, requests
	MsgBatchReply byte = 0x11 // s→c: u64 id, u16 count, results
	MsgSubscribe  byte = 0x20 // c→s: u64 since (SinceNow = from now)
	MsgEvents     byte = 0x21 // s→c: u64 next cursor, u16 count, events
	MsgEventsGone byte = 0x22 // s→c: u64 oldest (retention overran cursor)
	MsgError      byte = 0x7F // either: u16 len, utf8 message; fatal
)

// Request kinds within a Batch. Every kind except Advance is effectful
// and carries a u64 idempotency seq ahead of its fields.
const (
	ReqAddWorker      byte = 0x01 // u64 seq, f64 x, y, arrive, patience
	ReqAddTask        byte = 0x02 // u64 seq, f64 x, y, release, expiry
	ReqAdvance        byte = 0x03 // empty
	ReqWithdrawWorker byte = 0x04 // u64 seq, u32 shard, u32 local, u64 epoch
	ReqWithdrawTask   byte = 0x05
)

// Effectful reports whether kind mutates server state and therefore
// carries (and requires) an idempotency seq.
func Effectful(kind byte) bool { return kind != ReqAdvance }

// Result statuses.
const (
	StatusOK   byte = 0
	StatusBusy byte = 1 // admission ring full; retry after RetryAfter
	StatusErr  byte = 2 // request refused; Msg explains
)

// SinceNow as Subscribe.Since requests events from the stream head.
const SinceNow = ^uint64(0)

// Request is one entry of a Batch. The populated fields depend on Kind:
// admissions use X/Y/At/Window (At is the arrival/release time — NaN asks
// the server to stamp its own clock; Window is patience/expiry),
// withdrawals use Shard/Local/Epoch (the receipt a prior admission
// returned), Advance uses nothing.
//
// Seq is the idempotency token of an effectful request: unique and
// monotone per client, stable across resends. The server replays the
// recorded result for a seq it has already completed. Leave it 0 and
// Client.Do assigns the next token; the server refuses a literal 0.
type Request struct {
	Kind   byte
	Seq    uint64
	X, Y   float64
	At     float64
	Window float64
	Shard  uint32
	Local  uint32
	Epoch  uint64
}

// Result is one entry of a BatchReply, positionally matching the batch's
// requests. For OK admissions Shard/Local/Epoch are the withdrawal
// receipt and Time the server-stamped arrival; for OK advances Time is
// the server clock after the advance; for OK withdrawals Applied reports
// whether the object was still live. BUSY carries RetryAfter (seconds);
// ERR carries Msg.
type Result struct {
	Kind       byte
	Status     byte
	Shard      uint32
	Local      uint32
	Epoch      uint64
	Time       float64
	Applied    bool
	RetryAfter float64
	Msg        string
}

// Event is one merged-stream lifecycle event (see shard.Event; handles
// are owner-shard admission receipts, -1 for the side an expiry does not
// involve).
type Event struct {
	Seq         uint64
	Shard       int32
	Kind        byte // sim.SessionEventKind
	Worker      int32
	Task        int32
	Time        float64
	WorkerShard int32
	TaskShard   int32
}

// HelloAck is the server's handshake answer.
type HelloAck struct {
	Version byte
	Shards  uint32
	Now     float64
}

var (
	// ErrCRC reports a frame whose payload failed its checksum.
	ErrCRC = errors.New("wire: frame CRC mismatch")
	// ErrTooLarge reports a frame length outside (0, MaxPayload].
	ErrTooLarge = errors.New("wire: frame length out of bounds")
)

// RemoteError is an Error frame received from the peer; it is fatal to
// the connection.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "wire: remote error: " + e.Msg }

// --- encoding ---------------------------------------------------------

// AppendHello encodes a Hello payload carrying the client's stable id.
func AppendHello(dst []byte, clientID uint64) []byte {
	dst = append(dst, MsgHello)
	dst = append(dst, Magic...)
	dst = append(dst, Version)
	return codec.AppendU64(dst, clientID)
}

// AppendHelloAck encodes a HelloAck payload.
func AppendHelloAck(dst []byte, shards uint32, now float64) []byte {
	dst = append(dst, MsgHelloAck, Version)
	dst = codec.AppendU32(dst, shards)
	return codec.AppendF64(dst, now)
}

// AppendError encodes an Error payload.
func AppendError(dst []byte, msg string) []byte {
	if len(msg) > maxMsg {
		msg = msg[:maxMsg]
	}
	dst = append(dst, MsgError)
	dst = codec.AppendU16(dst, uint16(len(msg)))
	return append(dst, msg...)
}

// AppendBatch encodes a Batch payload. len(reqs) must be in [1, MaxBatch].
func AppendBatch(dst []byte, id uint64, reqs []Request) ([]byte, error) {
	if len(reqs) == 0 || len(reqs) > MaxBatch {
		return dst, fmt.Errorf("wire: batch of %d requests (want 1..%d)", len(reqs), MaxBatch)
	}
	dst = append(dst, MsgBatch)
	dst = codec.AppendU64(dst, id)
	dst = codec.AppendU16(dst, uint16(len(reqs)))
	for i := range reqs {
		r := &reqs[i]
		dst = append(dst, r.Kind)
		switch r.Kind {
		case ReqAddWorker, ReqAddTask:
			dst = codec.AppendU64(dst, r.Seq)
			dst = codec.AppendF64(dst, r.X)
			dst = codec.AppendF64(dst, r.Y)
			dst = codec.AppendF64(dst, r.At)
			dst = codec.AppendF64(dst, r.Window)
		case ReqAdvance:
		case ReqWithdrawWorker, ReqWithdrawTask:
			dst = codec.AppendU64(dst, r.Seq)
			dst = codec.AppendU32(dst, r.Shard)
			dst = codec.AppendU32(dst, r.Local)
			dst = codec.AppendU64(dst, r.Epoch)
		default:
			return dst, fmt.Errorf("wire: unknown request kind 0x%02x", r.Kind)
		}
	}
	return dst, nil
}

// AppendBatchReply encodes a BatchReply payload for results.
func AppendBatchReply(dst []byte, id uint64, results []Result) []byte {
	dst = append(dst, MsgBatchReply)
	dst = codec.AppendU64(dst, id)
	dst = codec.AppendU16(dst, uint16(len(results)))
	for i := range results {
		r := &results[i]
		dst = append(dst, r.Kind, r.Status)
		switch r.Status {
		case StatusOK:
			switch r.Kind {
			case ReqAddWorker, ReqAddTask:
				dst = codec.AppendU32(dst, r.Shard)
				dst = codec.AppendU32(dst, r.Local)
				dst = codec.AppendU64(dst, r.Epoch)
				dst = codec.AppendF64(dst, r.Time)
			case ReqAdvance:
				dst = codec.AppendF64(dst, r.Time)
			case ReqWithdrawWorker, ReqWithdrawTask:
				if r.Applied {
					dst = append(dst, 1)
				} else {
					dst = append(dst, 0)
				}
			}
		case StatusBusy:
			dst = codec.AppendF64(dst, r.RetryAfter)
		default:
			msg := r.Msg
			if len(msg) > maxMsg {
				msg = msg[:maxMsg]
			}
			dst = codec.AppendU16(dst, uint16(len(msg)))
			dst = append(dst, msg...)
		}
	}
	return dst
}

// AppendSubscribe encodes a Subscribe payload.
func AppendSubscribe(dst []byte, since uint64) []byte {
	dst = append(dst, MsgSubscribe)
	return codec.AppendU64(dst, since)
}

// eventWireSize is one Event's encoded size: every field is fixed-width,
// so a declared count is checked against the payload before it is trusted
// with an allocation.
const eventWireSize = 8 + 4 + 1 + 4 + 4 + 8 + 4 + 4

// AppendEvents encodes an Events payload: the cursor to resume from plus
// the batch. len(evs) must fit a u16.
func AppendEvents(dst []byte, next uint64, evs []Event) []byte {
	dst = append(dst, MsgEvents)
	dst = codec.AppendU64(dst, next)
	dst = codec.AppendU16(dst, uint16(len(evs)))
	for i := range evs {
		e := &evs[i]
		dst = codec.AppendU64(dst, e.Seq)
		dst = codec.AppendU32(dst, uint32(e.Shard))
		dst = append(dst, e.Kind)
		dst = codec.AppendU32(dst, uint32(e.Worker))
		dst = codec.AppendU32(dst, uint32(e.Task))
		dst = codec.AppendF64(dst, e.Time)
		dst = codec.AppendU32(dst, uint32(e.WorkerShard))
		dst = codec.AppendU32(dst, uint32(e.TaskShard))
	}
	return dst
}

// AppendEventsGone encodes an EventsGone payload.
func AppendEventsGone(dst []byte, oldest uint64) []byte {
	dst = append(dst, MsgEventsGone)
	return codec.AppendU64(dst, oldest)
}

// --- decoding ---------------------------------------------------------

// DecodeHello validates a Hello payload (type byte included). For a
// foreign version the magic and version are still parsed — the remainder
// of the payload is version-specific and ignored — so the caller can
// refuse with an accurate version-mismatch message.
func DecodeHello(p []byte) (version byte, clientID uint64, err error) {
	c := codec.NewReader("wire", p, 1)
	magic := c.Bytes(len(Magic), "magic")
	version = c.U8("version")
	if err := c.Err(); err != nil {
		return 0, 0, err
	}
	if string(magic) != Magic {
		return 0, 0, errors.New("wire: bad magic (not an ftoa wire client)")
	}
	if version != Version {
		return version, 0, nil
	}
	clientID = c.U64("client id")
	if err := c.Done("hello"); err != nil {
		return 0, 0, err
	}
	return version, clientID, nil
}

// DecodeHelloAck decodes a HelloAck payload.
func DecodeHelloAck(p []byte) (HelloAck, error) {
	c := codec.NewReader("wire", p, 1)
	ack := HelloAck{
		Version: c.U8("version"),
		Shards:  c.U32("shards"),
		Now:     c.F64("now"),
	}
	return ack, c.Done("helloack")
}

// DecodeError decodes an Error payload into a RemoteError.
func DecodeError(p []byte) error {
	c := codec.NewReader("wire", p, 1)
	n := int(c.U16("error length"))
	msg := string(c.Bytes(n, "error message"))
	if err := c.Done("error"); err != nil {
		return err
	}
	return &RemoteError{Msg: msg}
}

// DecodeBatch decodes a Batch payload, appending requests to dst.
func DecodeBatch(p []byte, dst []Request) (id uint64, reqs []Request, err error) {
	c := codec.NewReader("wire", p, 1)
	id = c.U64("batch id")
	n := int(c.U16("batch count"))
	if n == 0 || n > MaxBatch {
		return 0, dst, fmt.Errorf("wire: batch count %d out of bounds", n)
	}
	reqs = dst
	for i := 0; i < n && c.Err() == nil; i++ {
		var r Request
		r.Kind = c.U8("request kind")
		switch r.Kind {
		case ReqAddWorker, ReqAddTask:
			r.Seq = c.U64("seq")
			r.X = c.F64("x")
			r.Y = c.F64("y")
			r.At = c.F64("at")
			r.Window = c.F64("window")
		case ReqAdvance:
		case ReqWithdrawWorker, ReqWithdrawTask:
			r.Seq = c.U64("seq")
			r.Shard = c.U32("shard")
			r.Local = c.U32("local")
			r.Epoch = c.U64("epoch")
		default:
			return 0, reqs, fmt.Errorf("wire: unknown request kind 0x%02x at entry %d", r.Kind, i)
		}
		reqs = append(reqs, r)
	}
	return id, reqs, c.Done("batch")
}

// minResultWireSize is the smallest encoded Result (kind, status, the
// withdrawal's applied byte): the bound a declared reply count is checked
// against before it sizes anything.
const minResultWireSize = 3

// DecodeBatchReply decodes a BatchReply payload.
func DecodeBatchReply(p []byte) (id uint64, results []Result, err error) {
	c := codec.NewReader("wire", p, 1)
	id = c.U64("reply id")
	n := int(c.U16("reply count"))
	if c.Err() == nil && n*minResultWireSize > c.Len() {
		return 0, nil, fmt.Errorf("wire: %d results declared, %d payload bytes follow", n, c.Len())
	}
	results = make([]Result, 0, n)
	for i := 0; i < n && c.Err() == nil; i++ {
		var r Result
		r.Kind = c.U8("result kind")
		r.Status = c.U8("result status")
		switch r.Status {
		case StatusOK:
			switch r.Kind {
			case ReqAddWorker, ReqAddTask:
				r.Shard = c.U32("shard")
				r.Local = c.U32("local")
				r.Epoch = c.U64("epoch")
				r.Time = c.F64("time")
			case ReqAdvance:
				r.Time = c.F64("now")
			case ReqWithdrawWorker, ReqWithdrawTask:
				r.Applied = c.U8("applied") != 0
			default:
				return 0, results, fmt.Errorf("wire: unknown result kind 0x%02x", r.Kind)
			}
		case StatusBusy:
			r.RetryAfter = c.F64("retry after")
		case StatusErr:
			r.Msg = string(c.Bytes(int(c.U16("message length")), "message"))
		default:
			return 0, results, fmt.Errorf("wire: unknown status 0x%02x", r.Status)
		}
		results = append(results, r)
	}
	return id, results, c.Done("batch reply")
}

// DecodeSubscribe decodes a Subscribe payload.
func DecodeSubscribe(p []byte) (since uint64, err error) {
	c := codec.NewReader("wire", p, 1)
	since = c.U64("since")
	return since, c.Done("subscribe")
}

// DecodeEvents decodes an Events payload.
func DecodeEvents(p []byte) (next uint64, evs []Event, err error) {
	c := codec.NewReader("wire", p, 1)
	next = c.U64("next cursor")
	n := int(c.U16("event count"))
	if c.Err() == nil && n*eventWireSize != c.Len() {
		return 0, nil, fmt.Errorf("wire: %d events declared, %d payload bytes follow", n, c.Len())
	}
	evs = make([]Event, 0, n)
	for i := 0; i < n && c.Err() == nil; i++ {
		evs = append(evs, Event{
			Seq:         c.U64("seq"),
			Shard:       int32(c.U32("shard")),
			Kind:        c.U8("kind"),
			Worker:      int32(c.U32("worker")),
			Task:        int32(c.U32("task")),
			Time:        c.F64("time"),
			WorkerShard: int32(c.U32("worker shard")),
			TaskShard:   int32(c.U32("task shard")),
		})
	}
	return next, evs, c.Done("events")
}

// DecodeEventsGone decodes an EventsGone payload.
func DecodeEventsGone(p []byte) (oldest uint64, err error) {
	c := codec.NewReader("wire", p, 1)
	oldest = c.U64("oldest")
	return oldest, c.Done("events gone")
}

// --- framed connection ------------------------------------------------

// Conn frames messages over a byte stream. ReadFrame is single-reader;
// WriteFrame is safe for concurrent use (serialized by an internal
// mutex), so a client's batcher and subscriber never interleave bytes.
//
// ReadTimeout and WriteTimeout, when positive, bound each frame
// operation: the matching net.Conn deadline is armed at the start of
// every ReadFrame/WriteFrame, so a peer that goes silent mid-frame (or a
// subscriber that stops draining its receive window) surfaces as a
// timeout error instead of wedging the goroutine forever. Set them
// before handing the Conn to concurrent users.
type Conn struct {
	c            net.Conn
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	rhdr         [codec.HeaderLen]byte
	rbuf         []byte
	wmu          sync.Mutex
	wbuf         []byte
}

// NewConn wraps an established byte stream.
func NewConn(c net.Conn) *Conn { return &Conn{c: c} }

// ReadFrame reads one frame and returns its payload, which is only valid
// until the next ReadFrame. Framing violations (bad length, bad CRC)
// return ErrTooLarge/ErrCRC; the caller must drop the connection.
func (cn *Conn) ReadFrame() ([]byte, error) {
	if cn.ReadTimeout > 0 {
		cn.c.SetReadDeadline(time.Now().Add(cn.ReadTimeout))
	}
	if _, err := io.ReadFull(cn.c, cn.rhdr[:]); err != nil {
		return nil, err
	}
	n, sum, ok := codec.Header(cn.rhdr[:], MaxPayload)
	if !ok {
		return nil, ErrTooLarge
	}
	if cap(cn.rbuf) < n {
		cn.rbuf = make([]byte, n)
	}
	cn.rbuf = cn.rbuf[:n]
	if _, err := io.ReadFull(cn.c, cn.rbuf); err != nil {
		return nil, err
	}
	if !codec.Valid(cn.rbuf, sum) {
		return nil, ErrCRC
	}
	return cn.rbuf, nil
}

// WriteFrame frames and writes one payload.
func (cn *Conn) WriteFrame(payload []byte) error {
	cn.wmu.Lock()
	defer cn.wmu.Unlock()
	if cn.WriteTimeout > 0 {
		cn.c.SetWriteDeadline(time.Now().Add(cn.WriteTimeout))
	}
	cn.wbuf = codec.AppendFrame(cn.wbuf[:0], payload)
	_, err := cn.c.Write(cn.wbuf)
	return err
}

// WriteError sends an Error frame; the connection should close after.
func (cn *Conn) WriteError(msg string) error {
	return cn.WriteFrame(AppendError(nil, msg))
}

// Close closes the underlying stream.
func (cn *Conn) Close() error { return cn.c.Close() }

// ServerHandshake performs the server side: read Hello, verify magic,
// version and client id, answer HelloAck. On version mismatch — which is
// how a token-less legacy client presents — it sends a fatal Error frame
// and returns the reason; the returned client id keys the server's
// idempotency window for the connection.
func ServerHandshake(cn *Conn, shards uint32, now float64) (clientID uint64, err error) {
	p, err := cn.ReadFrame()
	if err != nil {
		return 0, err
	}
	if len(p) == 0 || p[0] != MsgHello {
		cn.WriteError("expected Hello")
		return 0, errors.New("wire: expected Hello")
	}
	v, id, err := DecodeHello(p)
	if err != nil {
		cn.WriteError(err.Error())
		return 0, err
	}
	if v != Version {
		err := fmt.Errorf("wire: version %d not supported (server speaks %d; v2 requires idempotency tokens)", v, Version)
		cn.WriteError(err.Error())
		return 0, err
	}
	if id == 0 {
		err := errors.New("wire: client id must be nonzero (idempotency key)")
		cn.WriteError(err.Error())
		return 0, err
	}
	return id, cn.WriteFrame(AppendHelloAck(nil, shards, now))
}

// ClientHandshake performs the client side: send Hello with the client's
// stable id, read HelloAck.
func ClientHandshake(cn *Conn, clientID uint64) (HelloAck, error) {
	if err := cn.WriteFrame(AppendHello(nil, clientID)); err != nil {
		return HelloAck{}, err
	}
	p, err := cn.ReadFrame()
	if err != nil {
		return HelloAck{}, err
	}
	switch {
	case len(p) == 0:
		return HelloAck{}, errors.New("wire: empty handshake reply")
	case p[0] == MsgError:
		return HelloAck{}, DecodeError(p)
	case p[0] != MsgHelloAck:
		return HelloAck{}, fmt.Errorf("wire: unexpected handshake reply 0x%02x", p[0])
	}
	ack, err := DecodeHelloAck(p)
	if err != nil {
		return HelloAck{}, err
	}
	if ack.Version != Version {
		return HelloAck{}, fmt.Errorf("wire: server version %d, client speaks %d", ack.Version, Version)
	}
	return ack, nil
}
