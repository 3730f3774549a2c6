// Wire listener: the binary serving surface behind StartWire. Batches
// of arrivals come in as framed wire messages (internal/wire), are fed
// through the router's per-shard admission lanes (shard.Admitter: one
// buffered channel and one drainer per shard) — so decoding connections
// never touch a shard lock — and each batch is answered after all of its
// admissions drained, so an acknowledged arrival is in its shard (and, on
// a durable server, WAL-recorded). Subscribed connections get the merged
// event stream pushed as it grows.
//
// Backpressure is end-to-end: a full lane surfaces as a per-entry BUSY
// result with a jittered retry-after hint (counted in /stats under
// "wire"), never as blocking the decode loop.
//
// The listener assumes an adversarial network: connections carry read
// (idle), write and handshake deadlines, the connection count is
// bounded, a subscriber too slow to drain its event stream is evicted,
// a panic in one connection's handler kills only that connection, and
// effectful requests are deduplicated per client id (wire.DedupTable)
// so a batch re-sent after a lost ack replays the original receipts.

package serve

import (
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ftoa"
	"ftoa/internal/wire"
)

// wireEventPage bounds one Events push frame; a subscriber behind a large
// backlog pages through it in consecutive frames.
const wireEventPage = 1024

// wireServer owns the wire listener and its connections; admissions go
// through the server's shared lanes (Server.admitter). One goroutine
// accepts; each connection gets a reader goroutine (batches on a
// connection are processed in order — pipelining is across connections)
// plus, once subscribed, an event pusher.
type wireServer struct {
	s     *Server
	ln    net.Listener
	dedup *wire.DedupTable

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	batches  atomic.Uint64
	requests atomic.Uint64
	busy     atomic.Uint64 // BUSY results returned (lane backpressure)
	deduped  atomic.Uint64 // effectful requests answered from the dedup window
	protoErr atomic.Uint64 // framing/decode violations that dropped a conn
	refused  atomic.Uint64 // conns dropped at the door (max-conns, client table full)
	evicted  atomic.Uint64 // subscribers dropped for not draining their stream
	panics   atomic.Uint64 // handler panics contained to their connection
	subs     atomic.Int64  // live event subscriptions
}

func newWireServer(s *Server, ln net.Listener) *wireServer {
	ws := &wireServer{
		s:     s,
		ln:    ln,
		dedup: wire.NewDedupTable(s.cfg.WireDedupWindow, 0),
		conns: make(map[net.Conn]struct{}),
	}
	ws.wg.Add(1)
	go ws.acceptLoop()
	return ws
}

// close stops accepting, drops every connection and waits the handlers
// out. The shared admission lanes are the server's (Shutdown drains
// them); call this first so wire producers are gone by then.
func (ws *wireServer) close() {
	ws.mu.Lock()
	ws.closed = true
	conns := make([]net.Conn, 0, len(ws.conns))
	for c := range ws.conns {
		conns = append(conns, c)
	}
	ws.mu.Unlock()
	ws.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	ws.wg.Wait()
}

func (ws *wireServer) acceptLoop() {
	defer ws.wg.Done()
	for {
		c, err := ws.ln.Accept()
		if err != nil {
			ws.mu.Lock()
			closed := ws.closed
			ws.mu.Unlock()
			if closed {
				return
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			log.Printf("ftoa-serve: wire accept: %v", err)
			return
		}
		ws.mu.Lock()
		if ws.closed {
			ws.mu.Unlock()
			c.Close()
			return
		}
		if limit := ws.s.cfg.WireMaxConns; limit > 0 && len(ws.conns) >= limit {
			ws.mu.Unlock()
			// Shed at the door without an Error frame: a silent close is a
			// transient refusal the resilient client retries with backoff,
			// while an Error frame would read as a permanent rejection.
			ws.refused.Add(1)
			c.Close()
			continue
		}
		ws.conns[c] = struct{}{}
		ws.wg.Add(1)
		ws.mu.Unlock()
		go ws.handleConn(c)
	}
}

func (ws *wireServer) dropConn(c net.Conn) {
	ws.mu.Lock()
	delete(ws.conns, c)
	ws.mu.Unlock()
	c.Close()
}

func (ws *wireServer) handleConn(c net.Conn) {
	defer ws.wg.Done()
	defer ws.dropConn(c)
	defer ws.recoverPanic(c)
	cn := wire.NewConn(c)
	idle := ws.s.cfg.WireIdle
	cn.WriteTimeout = ws.s.cfg.WireWriteTimeout
	// A peer that dials and never completes the handshake is shed on a
	// short deadline; the idle budget applies only to handshaken clients.
	cn.ReadTimeout = 10 * time.Second
	if idle > 0 && idle < cn.ReadTimeout {
		cn.ReadTimeout = idle
	}
	clientID, err := wire.ServerHandshake(cn, uint32(ws.s.router.NumShards()), ws.s.now())
	if err != nil {
		ws.noteProtoErr(err)
		return
	}
	cn.ReadTimeout = idle
	win, err := ws.dedup.Acquire(clientID)
	if err != nil {
		// Table exhausted by active clients: transient, shed silently
		// (see the max-conns refusal above for why no Error frame).
		ws.refused.Add(1)
		return
	}
	var pushStop chan struct{}
	defer func() {
		if pushStop != nil {
			close(pushStop)
		}
	}()
	var reqs []wire.Request
	for {
		p, err := cn.ReadFrame()
		if err != nil {
			ws.noteProtoErr(err)
			return
		}
		switch {
		case len(p) == 0:
			ws.protoFail(cn, "empty frame")
			return
		case p[0] == wire.MsgBatch:
			if reqs, err = ws.handleBatch(cn, win, p, reqs[:0]); err != nil {
				// A failed reply write is the network's doing, not a
				// protocol violation; only a batch that did not decode is.
				if opErr := (*net.OpError)(nil); errors.As(err, &opErr) {
					ws.noteProtoErr(err)
				} else {
					ws.protoFail(cn, err.Error())
				}
				return
			}
		case p[0] == wire.MsgSubscribe:
			since, err := wire.DecodeSubscribe(p)
			if err != nil {
				ws.protoFail(cn, err.Error())
				return
			}
			if pushStop != nil {
				ws.protoFail(cn, "duplicate Subscribe")
				return
			}
			pushStop = make(chan struct{})
			ws.subs.Add(1)
			ws.wg.Add(1)
			// The head is read here, in frame order, so "now" and "ahead
			// of the head" mean the same to the client as to the server:
			// nothing a later batch on this connection emits can fall
			// below it.
			go ws.pushEvents(c, cn, since, ws.s.router.Cursor(), pushStop)
		default:
			ws.protoFail(cn, fmt.Sprintf("unexpected message 0x%02x", p[0]))
			return
		}
	}
}

// recoverPanic contains a handler panic to its connection: the process
// and every other connection keep serving.
func (ws *wireServer) recoverPanic(c net.Conn) {
	if r := recover(); r != nil {
		ws.panics.Add(1)
		log.Printf("ftoa-serve: wire conn %v panic: %v", c.RemoteAddr(), r)
	}
}

// noteProtoErr counts protocol violations; clean disconnects, peer
// resets, deadline expiries (idle/slow-subscriber shedding) and the
// server tearing the socket down are expected under an adversarial
// network, not protocol errors.
func (ws *wireServer) noteProtoErr(err error) {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) {
		return
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return
	}
	ws.mu.Lock()
	closed := ws.closed
	ws.mu.Unlock()
	if closed {
		return
	}
	ws.protoErr.Add(1)
}

// protoFail counts the violation and sends the fatal Error frame.
func (ws *wireServer) protoFail(cn *wire.Conn, msg string) {
	ws.protoErr.Add(1)
	cn.WriteError(msg)
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// retryAfter jitters the BUSY hint across [0.5, 1.5) ticks so a crowd
// of refused clients does not re-arrive in the same tick.
func (ws *wireServer) retryAfter() float64 {
	return ws.s.cfg.Tick.Seconds() * (0.5 + rand.Float64())
}

// batchScratch is one batch's working memory: a result and an admission
// slot per request (the admission slot is also what the lane carries; see
// shard.AdmitResult), which requests execute in this batch, the WaitGroup
// and the reply buffer. It comes from batchPool and goes back once the
// reply is written, so a connection between batches holds only its
// request buffer, and the scratch of a one-off huge batch is left to the
// GC rather than pinned by the connection that sent it.
type batchScratch struct {
	results []wire.Result
	adm     []ftoa.ShardAdmitResult
	fresh   []bool
	wg      sync.WaitGroup
	reply   []byte
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// zeroed returns s resized to n zero values, reusing its array when it
// is large enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// handleBatch decodes one batch, resolves each effectful request against
// the client's dedup window, runs the remainder in two phases —
// admissions enqueued to the lanes and awaited, then advances and
// withdrawals in batch order — and writes the positional reply. The
// window is held across the whole batch, serializing this client's
// batches across connections: a batch re-sent on a fresh connection
// while the original is still executing on a dying one waits, then
// replays the recorded receipts. The returned slice is the request
// scratch buffer, recycled across batches.
func (ws *wireServer) handleBatch(cn *wire.Conn, win *wire.ClientWindow, p []byte, scratch []wire.Request) ([]wire.Request, error) {
	id, reqs, err := wire.DecodeBatch(p, scratch)
	if err != nil {
		return reqs, err
	}
	ws.batches.Add(1)
	ws.requests.Add(uint64(len(reqs)))
	// Put back explicitly, not deferred: a panic unwinding past admissions
	// still in their lanes must leave the scratch to the GC, since the
	// drainers will yet write into it.
	sc := batchPool.Get().(*batchScratch)
	sc.results = zeroed(sc.results, len(reqs))
	sc.adm = zeroed(sc.adm, len(reqs))
	sc.fresh = zeroed(sc.fresh, len(reqs)) // executes this batch; Record afterwards
	results, admRes, fresh := sc.results, sc.adm, sc.fresh
	now := ws.s.now()

	win.Lock()
	defer win.Unlock()

	// Phase 0: idempotency. A re-sent op is answered from the window; an
	// op older than the window retains is refused (its outcome is
	// unknowable); only fresh seqs proceed to execution.
	for i := range reqs {
		rq := &reqs[i]
		results[i].Kind = rq.Kind
		if !wire.Effectful(rq.Kind) {
			fresh[i] = true
			continue
		}
		rec, state := win.Lookup(rq.Seq)
		switch state {
		case wire.DedupNew:
			fresh[i] = true
		case wire.DedupHit:
			ws.deduped.Add(1)
			results[i] = rec
		case wire.DedupOverrun:
			results[i].Status = wire.StatusErr
			results[i].Msg = "idempotency window overrun: outcome of this seq is unknown"
		case wire.DedupInvalid:
			results[i].Status = wire.StatusErr
			results[i].Msg = "idempotency seq must be nonzero"
		}
	}

	// Phase 1: enqueue every fresh admission. The loop never blocks on a
	// shard lock — a full lane is an immediate BUSY result.
	for i := range reqs {
		rq := &reqs[i]
		if !fresh[i] {
			continue
		}
		switch rq.Kind {
		case wire.ReqAddWorker, wire.ReqAddTask:
			if rq.Window <= 0 || math.IsNaN(rq.Window) {
				results[i].Status = wire.StatusErr
				results[i].Msg = "window (patience/expiry) must be positive"
				fresh[i] = false
				continue
			}
			if !finite(rq.X) || !finite(rq.Y) {
				results[i].Status = wire.StatusErr
				results[i].Msg = "coordinates must be finite"
				fresh[i] = false
				continue
			}
			// A client may back-date an arrival (the session clamps it to
			// its shard's clock) but never post-date one: admitting at a
			// future stamp would drag the shard's clock there and expire
			// other clients' objects. NaN — "server-stamped" — +Inf and
			// any stamp ahead of the server's clock all admit at now.
			at := rq.At
			if !(at <= now) {
				at = now
			}
			var ok bool
			if rq.Kind == wire.ReqAddWorker {
				ok = ws.s.admitter.AddWorker(ftoa.Worker{Loc: ftoa.Pt(rq.X, rq.Y), Arrive: at, Patience: rq.Window}, &admRes[i], &sc.wg)
			} else {
				ok = ws.s.admitter.AddTask(ftoa.Task{Loc: ftoa.Pt(rq.X, rq.Y), Release: at, Expiry: rq.Window}, &admRes[i], &sc.wg)
			}
			if !ok {
				ws.busy.Add(1)
				results[i].Status = wire.StatusBusy
				results[i].RetryAfter = ws.retryAfter()
				fresh[i] = false // BUSY is retryable: never recorded
			}
		case wire.ReqAdvance, wire.ReqWithdrawWorker, wire.ReqWithdrawTask:
			// Phase 2. DecodeBatch refused every other kind.
		}
	}
	sc.wg.Wait()

	// Phase 2: collect admission outcomes, then apply clock advances and
	// withdrawals in batch order — after the admissions, so a batch that
	// admits and immediately withdraws observes its own admissions.
	for i := range reqs {
		rq := &reqs[i]
		if !fresh[i] {
			continue
		}
		switch rq.Kind {
		case wire.ReqAddWorker, wire.ReqAddTask:
			// Still fresh means enqueued: validation failures and BUSY
			// both cleared the flag in phase 1.
			if err := admRes[i].Err; err != nil {
				results[i].Status = wire.StatusErr
				results[i].Msg = err.Error()
			} else {
				results[i].Status = wire.StatusOK
				results[i].Shard = uint32(admRes[i].H.Shard)
				results[i].Local = uint32(admRes[i].H.Local)
				results[i].Epoch = admRes[i].Epoch
				results[i].Time = admRes[i].Admitted
			}
			win.Record(rq.Seq, results[i])
		case wire.ReqAdvance:
			// The server advances to its OWN clock: wire clients cannot
			// move time (and so cannot expire other clients' objects).
			ws.s.advance()
			results[i].Status = wire.StatusOK
			results[i].Time = ws.s.now()
		case wire.ReqWithdrawWorker, wire.ReqWithdrawTask:
			h := ftoa.ShardHandle{Shard: int(rq.Shard), Local: int(rq.Local)}
			var applied bool
			var err error
			if rq.Kind == wire.ReqWithdrawWorker {
				applied, err = ws.s.router.WithdrawWorker(h, rq.Epoch)
			} else {
				applied, err = ws.s.router.WithdrawTask(h, rq.Epoch)
			}
			if err != nil {
				results[i].Status = wire.StatusErr
				results[i].Msg = err.Error()
			} else {
				results[i].Status = wire.StatusOK
				results[i].Applied = applied
			}
			win.Record(rq.Seq, results[i])
		}
	}
	sc.reply = wire.AppendBatchReply(sc.reply[:0], id, results)
	err = cn.WriteFrame(sc.reply)
	batchPool.Put(sc)
	return reqs, err
}

// wirePushSafety bounds how long an idle pusher sleeps between wakeup
// checks. Delivery is notification-driven (the event log wakes the
// pusher the moment its shard appends), so this is not a poll
// interval — it only bounds recovery from a hypothetically missed
// wakeup and keeps the stop check live. An idle subscriber costs one
// timer tick and two atomic loads per second.
const wirePushSafety = time.Second

// pushEvents streams the event log to one subscribed connection,
// push-based: the subscription reads retained events a page at a time
// and is woken on emission, so a hot stream is pushed immediately and an
// idle one does no per-tick work. A cursor outside the log's window is
// answered with EventsGone and the stream continues from the cursor it
// names: the oldest retained one when the client fell below the window,
// the head (as of the Subscribe frame) when it is ahead of it — a cursor
// from another server lifetime (restart without a WAL, or a recovered
// WAL that lost its unsynced tail), whose sequence numbers are about to
// be issued again.
// A write that overruns the write deadline means the subscriber is not
// draining: the connection is dropped (the resilient client reconnects
// and resumes from its cursor).
func (ws *wireServer) pushEvents(c net.Conn, cn *wire.Conn, cursor, head uint64, stop <-chan struct{}) {
	defer ws.wg.Done()
	defer ws.subs.Add(-1)
	defer ws.recoverPanic(c)
	evict := func(err error) {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			ws.evicted.Add(1)
		}
		ws.dropConn(c) // wake the reader goroutine too
	}
	var frame []byte
	if cursor == wire.SinceNow {
		cursor = head
	} else if cursor > head {
		if err := cn.WriteFrame(wire.AppendEventsGone(frame[:0], head)); err != nil {
			evict(err)
			return
		}
		cursor = head
	}
	sub := ws.s.router.Subscribe(cursor)
	defer sub.Close()
	var buf []ftoa.ShardEvent
	evs := make([]wire.Event, 0, wireEventPage)
	for {
		select {
		case <-stop:
			return
		default:
		}
		var err error
		buf, _, err = sub.Next(wireEventPage, buf[:0])
		if err != nil {
			oldest := ws.s.router.OldestCursor()
			if werr := cn.WriteFrame(wire.AppendEventsGone(frame[:0], oldest)); werr != nil {
				evict(werr)
				return
			}
			sub.Seek(oldest)
			continue
		}
		if len(buf) == 0 {
			sub.Wait(wirePushSafety, stop)
			continue
		}
		evs = evs[:0]
		for i := range buf {
			ev := &buf[i]
			evs = append(evs, wire.Event{
				Seq:         ev.Seq,
				Shard:       int32(ev.Shard),
				Kind:        byte(ev.Kind),
				Worker:      int32(ev.Worker),
				Task:        int32(ev.Task),
				Time:        ev.Time,
				WorkerShard: int32(ev.WorkerShard),
				TaskShard:   int32(ev.TaskShard),
			})
		}
		frame = wire.AppendEvents(frame[:0], sub.Cursor(), evs)
		if err := cn.WriteFrame(frame); err != nil {
			evict(err)
			return
		}
	}
}

// statsJSON is the "wire" section of GET /stats.
func (ws *wireServer) statsJSON() map[string]any {
	return map[string]any{
		"enabled":         true,
		"batches":         ws.batches.Load(),
		"requests":        ws.requests.Load(),
		"busy":            ws.busy.Load(),
		"deduped":         ws.deduped.Load(),
		"ring_refusals":   ws.s.admitter.BusyTotal(),
		"protocol_errors": ws.protoErr.Load(),
		"refused_conns":   ws.refused.Load(),
		"evicted_subs":    ws.evicted.Load(),
		"panics":          ws.panics.Load(),
		"clients":         ws.dedup.Clients(),
		"subscriptions":   ws.subs.Load(),
	}
}
