package wire

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// flakyServer is a TCP stub whose per-connection behavior is supplied by
// the test: handle receives the framed connection and its 0-based index.
func flakyServer(t *testing.T, handle func(cn *Conn, idx int)) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var idx atomic.Int64
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(i int) {
				defer c.Close()
				handle(NewConn(c), i)
			}(int(idx.Add(1) - 1))
		}
	}()
	return ln.Addr().String(), func() { ln.Close() }
}

// TestRetrierExactlyOnceAcrossDrop: the server applies a batch and dies
// before acking. The Retrier reconnects and re-sends the same seqs; the
// dedup window replays the original receipts, so the caller sees every
// effect exactly once.
func TestRetrierExactlyOnceAcrossDrop(t *testing.T) {
	table := NewDedupTable(0, 0)
	var applied sync.Map // seq -> *atomic.Int64 execution count
	addr, stop := flakyServer(t, func(cn *Conn, idx int) {
		clientID, err := ServerHandshake(cn, 1, 0)
		if err != nil {
			return
		}
		win, err := table.Acquire(clientID)
		if err != nil {
			return
		}
		for {
			p, err := cn.ReadFrame()
			if err != nil || len(p) == 0 || p[0] != MsgBatch {
				return
			}
			id, reqs, err := DecodeBatch(p, nil)
			if err != nil {
				return
			}
			results := make([]Result, len(reqs))
			win.Lock()
			for i, rq := range reqs {
				if rec, st := win.Lookup(rq.Seq); st == DedupHit {
					results[i] = rec
					continue
				}
				n, _ := applied.LoadOrStore(rq.Seq, new(atomic.Int64))
				n.(*atomic.Int64).Add(1)
				results[i] = Result{Kind: rq.Kind, Status: StatusOK, Local: uint32(rq.Seq)}
				win.Record(rq.Seq, results[i])
			}
			win.Unlock()
			if idx == 0 {
				return // applied, but the ack is lost with the connection
			}
			if cn.WriteFrame(AppendBatchReply(nil, id, results)) != nil {
				return
			}
		}
	})
	defer stop()

	r := NewRetrier(RetryConfig{
		Addr:        addr,
		BackoffBase: time.Millisecond,
		BackoffCap:  10 * time.Millisecond,
	})
	defer r.Close()
	res, err := r.Do([]Request{
		{Kind: ReqAddWorker, X: 1, Window: 1},
		{Kind: ReqAddWorker, X: 2, Window: 1},
		{Kind: ReqAddTask, X: 3, Window: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, rs := range res {
		if rs.Status != StatusOK || rs.Local != uint32(i+1) {
			t.Fatalf("result %d = %+v, want the original receipt for seq %d", i, rs, i+1)
		}
	}
	applied.Range(func(seq, n any) bool {
		if c := n.(*atomic.Int64).Load(); c != 1 {
			t.Errorf("seq %v executed %d times, want exactly once", seq, c)
		}
		return true
	})
	if r.Reconnects() < 1 || r.Resends() < 1 {
		t.Fatalf("reconnects=%d resends=%d, want the drop to have forced both", r.Reconnects(), r.Resends())
	}
}

// TestRetrierFatalRefusal: a server that refuses the handshake with an
// Error frame stops the Retrier for good — WaitConnect and Do both
// surface the refusal instead of retrying forever.
func TestRetrierFatalRefusal(t *testing.T) {
	var dials atomic.Int64
	addr, stop := flakyServer(t, func(cn *Conn, idx int) {
		dials.Add(1)
		cn.ReadFrame() // the Hello
		cn.WriteError("protocol version mismatch")
	})
	defer stop()
	r := NewRetrier(RetryConfig{Addr: addr, BackoffBase: time.Millisecond})
	defer r.Close()
	var remote *RemoteError
	if _, err := r.WaitConnect(5 * time.Second); !errors.As(err, &remote) {
		t.Fatalf("WaitConnect = %v, want the server's refusal", err)
	}
	if _, err := r.Do([]Request{{Kind: ReqAdvance}}); !errors.As(err, &remote) {
		t.Fatalf("Do after refusal = %v, want the fatal error", err)
	}
	time.Sleep(50 * time.Millisecond)
	if n := dials.Load(); n != 1 {
		t.Fatalf("server saw %d handshakes after a fatal refusal, want 1", n)
	}
}

// TestRetrierResumesSubscription: the subscription survives a dropped
// connection, resuming from the cursor after the last delivered frame —
// no event is delivered twice, none is skipped.
func TestRetrierResumesSubscription(t *testing.T) {
	sinces := make(chan uint64, 2)
	addr, stop := flakyServer(t, func(cn *Conn, idx int) {
		if _, err := ServerHandshake(cn, 1, 0); err != nil {
			return
		}
		p, err := cn.ReadFrame()
		if err != nil || len(p) == 0 || p[0] != MsgSubscribe {
			return
		}
		since, err := DecodeSubscribe(p)
		if err != nil {
			return
		}
		sinces <- since
		if idx == 0 {
			// Two events, then the connection dies.
			cn.WriteFrame(AppendEvents(nil, 3, []Event{
				{Seq: 1, Worker: 1, Task: -1},
				{Seq: 2, Worker: -1, Task: 1},
			}))
			return
		}
		// The resumed connection picks up exactly where the stream left off.
		cn.WriteFrame(AppendEvents(nil, 4, []Event{{Seq: 3, Worker: 2, Task: 2}}))
		// Stay alive so the client does not reconnect again.
		for {
			if _, err := cn.ReadFrame(); err != nil {
				return
			}
		}
	})
	defer stop()

	var mu sync.Mutex
	var seqs []uint64
	r := NewRetrier(RetryConfig{
		Addr:           addr,
		BackoffBase:    time.Millisecond,
		BackoffCap:     10 * time.Millisecond,
		Subscribe:      true,
		SubscribeSince: 0,
		OnEvents: func(_ uint64, evs []Event) {
			mu.Lock()
			for i := range evs {
				seqs = append(seqs, evs[i].Seq)
			}
			mu.Unlock()
		},
	})
	defer r.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := len(seqs)
		mu.Unlock()
		if n >= 3 {
			break
		}
		if time.Now().After(deadline) {
			mu.Lock()
			t.Fatalf("only %v delivered", seqs)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if s0 := <-sinces; s0 != 0 {
		t.Fatalf("first subscribe since = %d, want the configured 0", s0)
	}
	if s1 := <-sinces; s1 != 3 {
		t.Fatalf("resumed subscribe since = %d, want the cursor 3", s1)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seqs) != 3 || seqs[0] != 1 || seqs[1] != 2 || seqs[2] != 3 {
		t.Fatalf("delivered seqs = %v, want [1 2 3] exactly once each", seqs)
	}
}
