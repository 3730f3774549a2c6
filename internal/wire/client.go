// Client side of the wire protocol: a connection with pipelined batch
// RPCs and an optional event subscription, demultiplexed by a single
// reader goroutine. Used by cmd/ftoa-loadgen and the serve-layer tests.
// Client is one connection and dies with it; Retrier (retry.go) wraps it
// with reconnection and resend.
package wire

import (
	"errors"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrClosed is returned by Do after Close (or after the connection died).
var ErrClosed = errors.New("wire: client closed")

// ErrTimeout is returned by Do when the per-request deadline (see
// SetRequestTimeout) passes before the reply arrives. The batch may
// still execute on the server; the connection should be dropped and the
// batch re-sent with the same seqs, which the server dedups.
var ErrTimeout = errors.New("wire: request deadline exceeded")

// EventHandler consumes one pushed Events frame: the decoded batch plus
// the cursor the stream resumes at. Called from the client's reader
// goroutine — do not block for long or call back into Do.
type EventHandler func(next uint64, evs []Event)

// GoneHandler is called when the server reports the subscription fell
// behind retention: oldest is the cursor the stream restarts from.
type GoneHandler func(oldest uint64)

// Client is one wire connection. Do is safe for concurrent use and
// pipelines: many batches may be in flight, correlated by id.
type Client struct {
	cn  *Conn
	ack HelloAck

	// seq feeds the idempotency tokens Do assigns to effectful requests
	// whose Seq is zero. It only grows, even across errors, so a token
	// is never reused within this client id.
	seq atomic.Uint64

	// timeout, when positive, bounds each Do from send to reply.
	timeout atomic.Int64

	mu       sync.Mutex
	inflight map[uint64]chan []Result
	nextID   uint64
	err      error // set once the reader dies; sticky

	onEvents EventHandler
	onGone   GoneHandler

	readerDone chan struct{}
}

// RandomClientID returns a nonzero id suitable for Hello.
func RandomClientID() uint64 { return rand.Uint64() | 1 }

// Dial connects, handshakes under a fresh random client id, and starts
// the reader.
func Dial(addr string) (*Client, error) { return DialID(addr, RandomClientID()) }

// DialID is Dial with a caller-chosen client id (stable across
// reconnects, so the server's dedup window survives them).
func DialID(addr string, clientID uint64) (*Client, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClientID(c, clientID)
}

// NewClient handshakes over an established stream under a fresh random
// client id and starts the reader. On error the stream is closed.
func NewClient(c net.Conn) (*Client, error) { return NewClientID(c, RandomClientID()) }

// NewClientID is NewClient with a caller-chosen client id.
func NewClientID(c net.Conn, clientID uint64) (*Client, error) {
	cn := NewConn(c)
	ack, err := ClientHandshake(cn, clientID)
	if err != nil {
		cn.Close()
		return nil, err
	}
	cl := &Client{
		cn:         cn,
		ack:        ack,
		inflight:   make(map[uint64]chan []Result),
		readerDone: make(chan struct{}),
	}
	go cl.readLoop()
	return cl, nil
}

// Hello returns the server's handshake answer (shard count, clock).
func (cl *Client) Hello() HelloAck { return cl.ack }

// SetRequestTimeout bounds every subsequent Do from send to reply; zero
// (the default) waits forever. A timed-out batch may still execute —
// drop the connection and re-send with the same seqs to resolve the
// ambiguity through the server's dedup window.
func (cl *Client) SetRequestTimeout(d time.Duration) { cl.timeout.Store(int64(d)) }

// Subscribe asks for event push starting at since (SinceNow for the
// stream head). Handlers run on the reader goroutine. Call at most once,
// before the events of interest are produced.
func (cl *Client) Subscribe(since uint64, onEvents EventHandler, onGone GoneHandler) error {
	cl.mu.Lock()
	cl.onEvents = onEvents
	cl.onGone = onGone
	cl.mu.Unlock()
	return cl.cn.WriteFrame(AppendSubscribe(nil, since))
}

// Do sends one batch and waits for its reply: one Result per Request, in
// order. Concurrent Do calls pipeline on the connection. Effectful
// requests with Seq 0 are assigned the next idempotency token in place —
// re-sending the same slice (same seqs) after a reconnect is therefore
// safe: the server replays, never re-applies.
func (cl *Client) Do(reqs []Request) ([]Result, error) {
	for i := range reqs {
		if reqs[i].Seq == 0 && Effectful(reqs[i].Kind) {
			reqs[i].Seq = cl.seq.Add(1)
		}
	}
	cl.mu.Lock()
	if cl.err != nil {
		err := cl.err
		cl.mu.Unlock()
		return nil, err
	}
	cl.nextID++
	id := cl.nextID
	ch := make(chan []Result, 1)
	cl.inflight[id] = ch
	cl.mu.Unlock()

	p, err := AppendBatch(nil, id, reqs)
	if err == nil {
		err = cl.cn.WriteFrame(p)
	}
	if err != nil {
		cl.mu.Lock()
		delete(cl.inflight, id)
		cl.mu.Unlock()
		return nil, err
	}
	var timeoutC <-chan time.Time
	if d := time.Duration(cl.timeout.Load()); d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		timeoutC = t.C
	}
	select {
	case res := <-ch:
		return res, nil
	case <-timeoutC:
		cl.mu.Lock()
		delete(cl.inflight, id)
		cl.mu.Unlock()
		// A reply racing the delete may already be buffered; prefer it.
		select {
		case res := <-ch:
			return res, nil
		default:
		}
		return nil, ErrTimeout
	case <-cl.readerDone:
		// The reader may have delivered the reply right before dying.
		select {
		case res := <-ch:
			return res, nil
		default:
		}
		cl.mu.Lock()
		err := cl.err
		cl.mu.Unlock()
		return nil, err
	}
}

// Err returns the sticky error the reader died with, or nil while the
// connection is alive.
func (cl *Client) Err() error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.err
}

// Done is closed when the reader goroutine exits (the connection is
// dead); Err then reports why.
func (cl *Client) Done() <-chan struct{} { return cl.readerDone }

// Close tears the connection down; in-flight Do calls fail with the
// reader's error.
func (cl *Client) Close() error {
	err := cl.cn.Close()
	<-cl.readerDone
	return err
}

func (cl *Client) readLoop() {
	var err error
	for {
		var p []byte
		p, err = cl.cn.ReadFrame()
		if err != nil {
			break
		}
		if len(p) == 0 {
			err = errors.New("wire: empty frame")
			break
		}
		switch p[0] {
		case MsgBatchReply:
			var id uint64
			var results []Result
			if id, results, err = DecodeBatchReply(p); err == nil {
				cl.mu.Lock()
				ch, ok := cl.inflight[id]
				delete(cl.inflight, id)
				cl.mu.Unlock()
				if ok {
					ch <- results
				}
			}
		case MsgEvents:
			var next uint64
			var evs []Event
			if next, evs, err = DecodeEvents(p); err == nil {
				cl.mu.Lock()
				fn := cl.onEvents
				cl.mu.Unlock()
				if fn != nil {
					fn(next, evs)
				}
			}
		case MsgEventsGone:
			var oldest uint64
			if oldest, err = DecodeEventsGone(p); err == nil {
				cl.mu.Lock()
				fn := cl.onGone
				cl.mu.Unlock()
				if fn != nil {
					fn(oldest)
				}
			}
		case MsgError:
			err = DecodeError(p)
		default:
			err = errors.New("wire: unexpected message from server")
		}
		if err != nil {
			break
		}
	}
	cl.mu.Lock()
	if cl.err == nil {
		if err == nil {
			err = ErrClosed
		}
		cl.err = err
	}
	cl.mu.Unlock()
	cl.cn.Close()
	close(cl.readerDone)
}
