// Retrier wraps Client with the at-least-once half of the exactly-once
// contract: automatic reconnection under capped exponential backoff with
// full jitter, resubmission of batches whose ack was lost (safe because
// every effectful request carries an idempotency token the server
// dedups), and resumable event subscription from the last delivered
// cursor.
package wire

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrRetrierClosed is returned by Do after Close.
var ErrRetrierClosed = errors.New("wire: retrier closed")

// RetryConfig configures a Retrier. Zero values pick the defaults noted
// on each field.
type RetryConfig struct {
	// Addr is dialed (tcp) unless Dial is set.
	Addr string
	// Dial overrides the transport, e.g. to route through a chaos proxy
	// or an in-process pipe.
	Dial func() (net.Conn, error)
	// RequestTimeout bounds each attempt of a batch from send to reply
	// (0: 10s). On expiry the connection is dropped and the batch
	// re-sent on the next one.
	RequestTimeout time.Duration
	// BackoffBase/BackoffCap bound the reconnect delay: attempt n sleeps
	// uniform(0, min(cap, base<<n)) — full jitter (0: 50ms / 5s).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Subscribe, when true, maintains an event subscription across
	// reconnects, resuming from the cursor after the last delivered
	// frame. SubscribeSince seeds the cursor (use SinceNow for the
	// stream head at first connect).
	Subscribe      bool
	SubscribeSince uint64
	// OnEvents/OnGone receive the merged stream, same contract as
	// Client.Subscribe. Frames are never delivered twice unless the
	// server reports loss via OnGone first.
	OnEvents EventHandler
	OnGone   GoneHandler
}

func (c *RetryConfig) withDefaults() RetryConfig {
	d := *c
	if d.Dial == nil {
		addr := d.Addr
		d.Dial = func() (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	if d.RequestTimeout == 0 {
		d.RequestTimeout = 10 * time.Second
	}
	if d.BackoffBase <= 0 {
		d.BackoffBase = 50 * time.Millisecond
	}
	if d.BackoffCap <= 0 {
		d.BackoffCap = 5 * time.Second
	}
	return d
}

// Retrier is a self-healing wire client: Do blocks through connection
// loss, re-sending the batch with stable idempotency tokens until the
// server acknowledges it exactly once. Safe for concurrent use.
type Retrier struct {
	cfg RetryConfig
	id  uint64        // stable idempotency identity, presented on every handshake
	seq atomic.Uint64 // idempotency tokens, shared across connections

	mu     sync.Mutex
	cur    *Client
	gen    uint64        // bumped on every successful connect
	ready  chan struct{} // closed while cur != nil; replaced on loss
	closed bool
	fatal  error // handshake refusal: retrying cannot help

	done chan struct{} // closed by Close

	reconnects atomic.Uint64 // successful connects after the first
	resends    atomic.Uint64 // batch attempts beyond the first send

	cursor     uint64 // next event cursor, guarded by mu
	haveCursor bool
}

// NewRetrier starts the reconnect loop and returns immediately; the
// first connection is established in the background. Use WaitConnect to
// block until the server is reachable.
func NewRetrier(cfg RetryConfig) *Retrier {
	r := &Retrier{
		cfg:   cfg.withDefaults(),
		id:    RandomClientID(),
		ready: make(chan struct{}),
		done:  make(chan struct{}),
	}
	go r.run()
	return r
}

// Reconnects counts successful connections beyond the first.
func (r *Retrier) Reconnects() uint64 { return r.reconnects.Load() }

// Resends counts batch send attempts beyond each batch's first.
func (r *Retrier) Resends() uint64 { return r.resends.Load() }

// WaitConnect blocks until the first connection is up and returns its
// HelloAck, or gives up after patience.
func (r *Retrier) WaitConnect(patience time.Duration) (HelloAck, error) {
	deadline := time.Now().Add(patience)
	for {
		r.mu.Lock()
		cl, fatal, closed := r.cur, r.fatal, r.closed
		ch := r.ready
		r.mu.Unlock()
		switch {
		case cl != nil:
			return cl.Hello(), nil
		case fatal != nil:
			return HelloAck{}, fatal
		case closed:
			return HelloAck{}, ErrRetrierClosed
		}
		wait := time.Until(deadline)
		if wait <= 0 {
			return HelloAck{}, fmt.Errorf("wire: no connection within %v", patience)
		}
		t := time.NewTimer(wait)
		select {
		case <-ch:
		case <-r.done:
		case <-t.C:
		}
		t.Stop()
	}
}

// Do sends one batch and blocks until the server acknowledges it, across
// however many reconnects that takes. Effectful requests with Seq 0 get
// tokens assigned in place before the first send and keep them on every
// resend, so the reply is the original receipt even when an earlier
// attempt executed. Fails with the handshake refusal if the server rejects
// this client outright.
func (r *Retrier) Do(reqs []Request) ([]Result, error) {
	for i := range reqs {
		if reqs[i].Seq == 0 && Effectful(reqs[i].Kind) {
			reqs[i].Seq = r.seq.Add(1)
		}
	}
	var lastGen uint64
	for {
		cl, gen, err := r.await(lastGen)
		if err != nil {
			return nil, err
		}
		if lastGen > 0 {
			r.resends.Add(1)
		}
		lastGen = gen
		res, err := cl.Do(reqs)
		if err == nil {
			return res, nil
		}
		// Ambiguous outcome (timeout, connection loss): drop the
		// connection and retry the same tokens on the next one.
		cl.Close()
	}
}

// await blocks until a connection newer than minGen is up.
func (r *Retrier) await(minGen uint64) (*Client, uint64, error) {
	for {
		r.mu.Lock()
		switch {
		case r.closed:
			r.mu.Unlock()
			return nil, 0, ErrRetrierClosed
		case r.fatal != nil:
			err := r.fatal
			r.mu.Unlock()
			return nil, 0, err
		case r.cur != nil && r.gen > minGen:
			cl, gen := r.cur, r.gen
			r.mu.Unlock()
			return cl, gen, nil
		}
		ch := r.ready
		r.mu.Unlock()
		select {
		case <-ch:
		case <-r.done:
		}
	}
}

// Close stops reconnecting and tears down the current connection.
func (r *Retrier) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	cl := r.cur
	r.mu.Unlock()
	close(r.done)
	if cl != nil {
		cl.Close()
	}
}

// run owns the connection lifecycle: connect (with backoff), resubscribe,
// publish, wait for death, repeat.
func (r *Retrier) run() {
	fails := 0
	first := true
	for {
		select {
		case <-r.done:
			return
		default:
		}
		cl, err := r.connect()
		if err != nil {
			var remote *RemoteError
			if errors.As(err, &remote) {
				// The server refused the handshake (version mismatch,
				// zero client id): retrying cannot help.
				r.mu.Lock()
				r.fatal = err
				close(r.ready)
				r.ready = make(chan struct{})
				r.mu.Unlock()
				return
			}
			fails++
			r.sleep(backoff(r.cfg.BackoffBase, r.cfg.BackoffCap, fails))
			continue
		}
		fails = 0
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			cl.Close()
			return
		}
		r.cur = cl
		r.gen++
		close(r.ready)
		r.mu.Unlock()
		if !first {
			r.reconnects.Add(1)
		}
		first = false

		select {
		case <-cl.Done():
		case <-r.done:
			cl.Close()
			return
		}
		r.mu.Lock()
		r.cur = nil
		r.ready = make(chan struct{})
		r.mu.Unlock()
	}
}

// connect dials, handshakes, and (when configured) resubscribes from
// the last delivered cursor before the connection is published.
func (r *Retrier) connect() (*Client, error) {
	c, err := r.cfg.Dial()
	if err != nil {
		return nil, err
	}
	cl, err := NewClientID(c, r.id)
	if err != nil {
		return nil, err
	}
	cl.SetRequestTimeout(r.cfg.RequestTimeout)
	if r.cfg.Subscribe {
		r.mu.Lock()
		since := r.cfg.SubscribeSince
		if r.haveCursor {
			since = r.cursor
		}
		r.mu.Unlock()
		err := cl.Subscribe(since,
			func(next uint64, evs []Event) {
				r.mu.Lock()
				r.cursor, r.haveCursor = next, true
				r.mu.Unlock()
				if r.cfg.OnEvents != nil {
					r.cfg.OnEvents(next, evs)
				}
			},
			func(oldest uint64) {
				r.mu.Lock()
				r.cursor, r.haveCursor = oldest, true
				r.mu.Unlock()
				if r.cfg.OnGone != nil {
					r.cfg.OnGone(oldest)
				}
			})
		if err != nil {
			cl.Close()
			return nil, err
		}
	}
	return cl, nil
}

// sleep waits d or until Close.
func (r *Retrier) sleep(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-r.done:
	}
}

// backoff returns attempt n's delay: uniform(0, min(cap, base<<n)) —
// "full jitter", which decorrelates a thundering herd best among the
// standard schedules.
func backoff(base, cap time.Duration, attempt int) time.Duration {
	if attempt > 20 {
		attempt = 20
	}
	ceil := base << attempt
	if ceil > cap || ceil <= 0 {
		ceil = cap
	}
	return time.Duration(rand.Int64N(int64(ceil) + 1))
}
