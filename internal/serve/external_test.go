package serve_test

import (
	"context"
	"encoding/json"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ftoa/internal/serve"
	"ftoa/internal/wire"
)

// TestServerFromOutside boots the server the way cmd/ftoa-serve does —
// through the exported surface alone, over loopback listeners — and admits
// over both protocols: a worker by HTTP POST, the task it serves by wire
// batch. It is the proof that the handlers are importable: anything that
// can import internal/serve (the benchmark, say) can run the real server
// in process.
func TestServerFromOutside(t *testing.T) {
	gate := serve.NewBootGate()
	ts := httptest.NewServer(gate)
	defer ts.Close()
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("gated /healthz: %v, %v; want 503 until Ready", resp, err)
	}

	srv, err := serve.New(serve.Config{
		Algorithm: "greedy",
		Mode:      "strict",
		Velocity:  1,
		Bounds:    [4]float64{0, 0, 100, 100},
		Tick:      20 * time.Millisecond,
		Shards:    [2]int{2, 2},
		Retention: 1 << 10,
		Horizon:   86400,
	})
	if err != nil {
		t.Fatal(err)
	}
	wln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.StartWire(wln)
	srv.StartTick()
	gate.Ready(srv.Handler())

	resp, err := http.Post(ts.URL+"/workers", "application/json", strings.NewReader(`{"x":10,"y":10,"patience":300}`))
	if err != nil {
		t.Fatal(err)
	}
	var admitted struct{ Worker, Shard int }
	if err := json.NewDecoder(resp.Body).Decode(&admitted); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /workers: status %d, %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	cl, err := wire.Dial(wln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res, err := cl.Do([]wire.Request{{Kind: wire.ReqAddTask, X: 11, Y: 10, At: math.NaN(), Window: 60}})
	if err != nil || res[0].Status != wire.StatusOK {
		t.Fatalf("wire admission = %+v, %v", res, err)
	}
	if int(res[0].Shard) != admitted.Shard {
		t.Fatalf("task on shard %d, worker on shard %d: want neighbours in one region", res[0].Shard, admitted.Shard)
	}

	resp, err = http.Get(ts.URL + "/matches")
	if err != nil {
		t.Fatal(err)
	}
	var matches struct {
		Count   int
		Matches []struct{ Worker, Task int }
	}
	if err := json.NewDecoder(resp.Body).Decode(&matches); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if matches.Count != 1 || matches.Matches[0].Worker != admitted.Worker || matches.Matches[0].Task != int(res[0].Local) {
		t.Fatalf("/matches = %+v, want the HTTP worker serving the wire task", matches)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx, ts.Config); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := cl.Do([]wire.Request{{Kind: wire.ReqAdvance}}); err == nil {
		t.Error("the wire listener still answers after Shutdown")
	}
}
