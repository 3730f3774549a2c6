package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ftoa"
)

// heldGreedy is SimpleGreedy whose first worker arrival in the left half
// of the area parks until release closes — with the shard lock held and
// the shard's drainer inside admitBatch, which is how a slow shard looks
// to the admission ring behind it.
type heldGreedy struct {
	ftoa.Algorithm
	p       ftoa.Platform
	armed   *atomic.Bool
	entered chan<- struct{}
	release <-chan struct{}
}

func (a *heldGreedy) Init(p ftoa.Platform) {
	a.p = p
	a.Algorithm.Init(p)
}

func (a *heldGreedy) OnWorkerArrival(w int, now float64) {
	if a.p.Worker(w).Loc.X < 50 && a.armed.CompareAndSwap(true, false) {
		a.entered <- struct{}{}
		<-a.release
	}
	a.Algorithm.OnWorkerArrival(w, now)
}

// heldRingCap is the admission ring capacity of saturateLeftShard's
// server: how many POSTs park behind the held drainer before the ring
// refuses.
const heldRingCap = 2

// saturateLeftShard boots a 2x1 server over real rings of heldRingCap
// slots and holds the left shard's drainer inside one worker admission
// (the "holder" POST, still in flight). Until release is called the left
// ring accepts heldRingCap more arrivals, which park, and refuses the
// rest; release lets everything drain and waits for the holder's reply.
func saturateLeftShard(t *testing.T) (srv *Server, ts *httptest.Server, release func()) {
	t.Helper()
	cfg := defaultTestConfig()
	cfg.Shards = [2]int{2, 1}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Same router New builds, but over the parking algorithm.
	var armed atomic.Bool
	armed.Store(true)
	entered, hold := make(chan struct{}, 1), make(chan struct{})
	srv.admitter.Close()
	srv.router, err = ftoa.NewShardRouter(ftoa.ShardConfig{
		Matcher: ftoa.MatcherConfig{Mode: ftoa.Strict, Velocity: 1, Bounds: ftoa.NewRect(0, 0, 100, 100)},
		Cols:    2, Rows: 1,
		NewAlgorithm: func() ftoa.Algorithm {
			return &heldGreedy{Algorithm: ftoa.NewSimpleGreedy(), armed: &armed, entered: entered, release: hold}
		},
		Retention: cfg.Retention,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.admitter = ftoa.NewShardAdmitter(srv.router, ftoa.ShardAdmitterConfig{Ring: heldRingCap})
	manualClock(srv)(0)
	ts = httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	holder := make(chan int, 1)
	go func() { holder <- postStatus(t, ts.URL+"/workers", `{"x":10,"y":50,"patience":300}`).status }()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the holder admission never reached the algorithm")
	}
	var once sync.Once
	release = func() {
		once.Do(func() {
			close(hold)
			if got := <-holder; got != http.StatusOK {
				t.Errorf("holder admission: status %d, want 200", got)
			}
		})
	}
	t.Cleanup(release) // a failed test must not leave ts.Close waiting on parked requests
	return srv, ts, release
}

type postResult struct {
	status     int
	retryAfter string
}

// postStatus POSTs body and reports the status and Retry-After header;
// safe to call off the test goroutine.
func postStatus(t *testing.T, url, body string) postResult {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Errorf("POST %s: %v", url, err)
		return postResult{}
	}
	resp.Body.Close()
	return postResult{resp.StatusCode, resp.Header.Get("Retry-After")}
}

// TestServeShedding: a shard whose admission ring is full sheds arrivals
// with 503 + Retry-After while the other shards keep admitting, counts
// them in /stats, and recovers once the ring drains.
func TestServeShedding(t *testing.T) {
	_, ts, release := saturateLeftShard(t)

	// One arrival more than the left ring holds: whichever loses the race
	// for the slots is refused at once, the others park.
	results := make(chan postResult, heldRingCap+1)
	for i := 0; i <= heldRingCap; i++ {
		go func() { results <- postStatus(t, ts.URL+"/workers", `{"x":10,"y":50,"patience":300}`) }()
	}
	shed := <-results
	if shed.status != http.StatusServiceUnavailable {
		t.Fatalf("saturated shard: status %d, want 503", shed.status)
	}
	if shed.retryAfter == "" {
		t.Fatal("503 without Retry-After")
	}
	// The other shard is unaffected.
	postJSON(t, ts.URL+"/workers", `{"x":90,"y":50,"patience":300}`)

	// Drain the backlog: the parked arrivals are admitted.
	release()
	for i := 0; i < heldRingCap; i++ {
		if r := <-results; r.status != http.StatusOK {
			t.Fatalf("parked admission: status %d, want 200 after the drain", r.status)
		}
	}
	stats := getJSON(t, ts.URL+"/stats")
	if stats["shed"].(float64) != 1 {
		t.Fatalf("stats = %v, want 1 shed", stats)
	}
	if sh := stats["shards"].([]any)[0].(map[string]any); sh["shed"] != nil {
		t.Fatalf("shard 0 stats = %v, want no per-shard shed: the one counter is top-level", sh)
	}
	// Admissions flow again.
	postJSON(t, ts.URL+"/workers", `{"x":10,"y":50,"patience":300}`)
	if st := getJSON(t, ts.URL+"/stats"); st["workers"].(float64) != heldRingCap+3 {
		t.Fatalf("post-drain stats = %v, want %d admitted workers", st, heldRingCap+3)
	}
}

// TestServeSheddingExactAccounting is the overload-shedding regression
// guard: under a concurrent burst against a shard with a full ring, every
// rejection carries a well-formed Retry-After (RFC 7231 delta-seconds)
// and the /stats shed counter equals the number of 503s the clients
// actually observed — no lost or double counts.
func TestServeSheddingExactAccounting(t *testing.T) {
	srv, ts, release := saturateLeftShard(t)

	// The ring takes heldRingCap of these; the burst is shed in full.
	const burst = 24
	results := make(chan postResult, burst+heldRingCap)
	for i := 0; i < burst+heldRingCap; i++ {
		go func(i int) {
			results <- postStatus(t, ts.URL+"/workers", fmt.Sprintf(`{"x":%d,"y":50,"patience":300}`, i%50))
		}(i)
	}
	for i := 0; i < burst; i++ {
		r := <-results
		if r.status != http.StatusServiceUnavailable {
			t.Fatalf("reply %d with the ring full: status %d, want 503", i, r.status)
		}
		if secs, err := strconv.Atoi(r.retryAfter); err != nil || secs < 0 {
			t.Fatalf("reply %d: malformed Retry-After %q", i, r.retryAfter)
		}
	}
	if got := srv.shed.Load(); got != burst {
		t.Fatalf("shed counter = %d while saturated, want exactly %d", got, burst)
	}
	// Drain: the parked arrivals are admitted, accounting stays frozen.
	release()
	for i := 0; i < heldRingCap; i++ {
		if r := <-results; r.status != http.StatusOK {
			t.Fatalf("parked admission: status %d, want 200 after the drain", r.status)
		}
	}
	st := getJSON(t, ts.URL+"/stats")
	if got := st["shed"].(float64); got != burst {
		t.Fatalf("stats shed = %v, want exactly %d", got, burst)
	}
	if st["workers"].(float64) != heldRingCap+1 {
		t.Fatalf("workers = %v, want %d (the holder and the parked; everything else shed)", st["workers"], heldRingCap+1)
	}
	postJSON(t, ts.URL+"/workers", `{"x":10,"y":50,"patience":300}`)
	st = getJSON(t, ts.URL+"/stats")
	if st["shed"].(float64) != burst || st["workers"].(float64) != heldRingCap+2 {
		t.Fatalf("post-drain stats = shed %v workers %v, want %d / %d",
			st["shed"], st["workers"], burst, heldRingCap+2)
	}
}

// keysOf is the sorted key set of a decoded JSON object.
func keysOf(m any) string {
	var ks []string
	for k := range m.(map[string]any) {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return strings.Join(ks, " ")
}

// TestStatsKeySetGolden pins the shape of GET /stats — every section's
// key set — so moving its assembly onto the JSON-tagged shard.Stats and
// Totals cannot rename or drop a key a consumer reads. The per-shard
// "shed" of the lane shedder is the one key that left.
func TestStatsKeySetGolden(t *testing.T) {
	cfg := defaultTestConfig()
	cfg.Shards = [2]int{2, 1}
	cfg.WALDir = t.TempDir() + "/wal"
	srv, _, _, _ := bootWire(t, cfg)
	defer srv.router.WALClose()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// A fresh shard's clock is the -Inf sentinel; /stats must still encode.
	st := getJSON(t, ts.URL+"/stats")
	if now := st["shards"].([]any)[0].(map[string]any)["now"]; now != 0.0 {
		t.Errorf("never-advanced shard reports now = %v, want the -Inf sentinel clamped to 0", now)
	}
	for _, tc := range []struct {
		section string
		got     any
		want    string
	}{
		{"top level", st, "attempted border_matches claims_lost events expired_tasks expired_workers ghost_tasks ghost_workers live_tasks live_workers matches now rejected shards shed tasks topology wal wire withdrawn_tasks withdrawn_workers workers"},
		{"wal", st["wal"], "enabled from_checkpoint generation recover_ms recover_us_per_event recovered recovered_events recovered_matches skipped_generations torn_bytes wal_bytes_read"},
		{"wire", st["wire"], "batches busy clients deduped enabled evicted_subs panics protocol_errors refused_conns requests ring_refusals subscriptions"},
		{"events", st["events"], "capacity evicted_subs head oldest published retained subscribers wakeups"},
		{"topology", st["topology"], "adaptive migrating rebalances regions topology version"},
		{"shard row", st["shards"].([]any)[0], "arrival_rate attempted border_matches claims_lost expired_tasks expired_workers ghost_tasks ghost_workers live_tasks live_workers matches now rejected shard tasks withdrawn_tasks withdrawn_workers workers"},
	} {
		if got := keysOf(tc.got); got != tc.want {
			t.Errorf("/stats %s keys:\n got  %s\n want %s", tc.section, got, tc.want)
		}
	}
}
