package serve

import (
	"errors"
	"io"
	"net"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ftoa/internal/codec"
	"ftoa/internal/wire"
)

// wireStat reads one counter of the "wire" section of GET /stats.
func wireStat(t *testing.T, srv *Server, name string) float64 {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	v, ok := getJSON(t, ts.URL+"/stats")["wire"].(map[string]any)[name].(float64)
	if !ok {
		t.Fatalf("/stats has no wire.%s", name)
	}
	return v
}

// TestWireMaxConns: at WireMaxConns 1 a second dial is shed at the door —
// closed without an Error frame, which a client would read as permanent —
// and counted in /stats; the connection already open keeps serving.
func TestWireMaxConns(t *testing.T) {
	cfg := defaultTestConfig()
	cfg.WireMaxConns = 1
	srv, ws, cl, set := bootWire(t, cfg)
	set(0)

	c, err := net.Dial("tcp", ws.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Write(codec.AppendFrame(nil, wire.AppendHello(nil, 7))) // may fail: the server may have closed already
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	got, err := io.ReadAll(c)
	if len(got) != 0 {
		t.Fatalf("shed connection received %d bytes (%x), want none", len(got), got)
	}
	if ne := net.Error(nil); errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("second connection was not closed")
	}
	if n := wireStat(t, srv, "refused_conns"); n != 1 {
		t.Fatalf("refused_conns = %v, want 1", n)
	}
	res, err := cl.Do([]wire.Request{{Kind: wire.ReqAddWorker, X: 10, Y: 10, At: nan(), Window: 300}})
	if err != nil || res[0].Status != wire.StatusOK {
		t.Fatalf("first connection after the refusal: %+v, %v", res, err)
	}
}

// TestWireIdle: a handshaken client that sends nothing for WireIdle is
// dropped; one that keeps sending is not.
func TestWireIdle(t *testing.T) {
	cfg := defaultTestConfig()
	cfg.WireIdle = 100 * time.Millisecond
	_, ws, busy, set := bootWire(t, cfg)
	set(0)
	quiet, err := wire.Dial(ws.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer quiet.Close()

	for end := time.Now().Add(500 * time.Millisecond); time.Now().Before(end); {
		if _, err := busy.Do([]wire.Request{{Kind: wire.ReqAdvance}}); err != nil {
			t.Fatalf("a client sending every 20ms was dropped: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	select {
	case <-quiet.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("a client silent for 2s past a 100ms idle bound is still connected")
	}
	if ws.protoErr.Load() != 0 {
		t.Fatalf("an idle drop counted as %d protocol errors", ws.protoErr.Load())
	}
}

// pipeListener hands net.Pipe ends to the wire server: a pipe buffers
// nothing, so a peer that stops reading blocks the next write at once,
// whatever the kernel's socket buffers would have absorbed.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// dial returns the client end of a new connection.
func (l *pipeListener) dial() net.Conn {
	server, client := net.Pipe()
	l.conns <- server
	return client
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// TestWireWriteTimeout: a subscriber that stops reading its event stream
// is evicted once a push overruns WireWriteTimeout, and counted in
// /stats; other connections keep serving.
func TestWireWriteTimeout(t *testing.T) {
	cfg := defaultTestConfig()
	cfg.WireWriteTimeout = 50 * time.Millisecond
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	manualClock(srv)(0)
	ln := newPipeListener()
	srv.StartWire(ln)
	t.Cleanup(srv.wire.close)

	stalled := wire.NewConn(ln.dial())
	defer stalled.Close()
	if _, err := wire.ClientHandshake(stalled, 7); err != nil {
		t.Fatal(err)
	}
	// Subscribe from the log's start, not SinceNow: the other connection's
	// batch may be admitted before the server reads the head for this
	// frame, and a subscriber starting after the only match event would
	// never be sent anything to stall on.
	if err := stalled.WriteFrame(wire.AppendSubscribe(nil, 0)); err != nil {
		t.Fatal(err)
	}
	cl, err := wire.NewClient(ln.dial())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// A worker and a task in reach match: one event for the stalled
	// subscriber, which never reads it.
	if _, err := cl.Do([]wire.Request{
		{Kind: wire.ReqAddWorker, X: 10, Y: 10, At: nan(), Window: 300},
		{Kind: wire.ReqAddTask, X: 11, Y: 10, At: nan(), Window: 60},
	}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(2 * time.Second); srv.wire.evicted.Load() == 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("a subscriber that stopped reading was not evicted within 2s of a 50ms write bound")
		}
	}
	if n := wireStat(t, srv, "evicted_subs"); n != 1 {
		t.Fatalf("evicted_subs = %v, want 1", n)
	}
	if _, err := cl.Do([]wire.Request{{Kind: wire.ReqAdvance}}); err != nil {
		t.Fatalf("the other connection after the eviction: %v", err)
	}
}
