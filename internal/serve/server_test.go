package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ftoa"
)

func defaultTestConfig() Config {
	return Config{
		Algorithm: "greedy",
		Window:    1,
		Mode:      "strict",
		Velocity:  1,
		Bounds:    [4]float64{0, 0, 100, 100},
		Tick:      time.Second, // tests drive the clock themselves
		Shards:    [2]int{1, 1},
		Retention: 1 << 16,
		Horizon:   86400,
	}
}

func postJSON(t *testing.T, url, body string) map[string]any {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d, body %v", url, resp.StatusCode, out)
	}
	return out
}

func getJSONStatus(t *testing.T, url string) (map[string]any, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out, resp.StatusCode
}

func getJSON(t *testing.T, url string) map[string]any {
	t.Helper()
	out, status := getJSONStatus(t, url)
	if status != http.StatusOK {
		t.Fatalf("GET %s: status %d, body %v", url, status, out)
	}
	return out
}

// guideFromCounts is the offline pipeline end to end: train on the count
// history, build the guide from the forecast.
func guideFromCounts(r io.Reader, cfg Config) (*ftoa.Guide, error) {
	fc, err := trainCounts(r, cfg)
	if err != nil {
		return nil, err
	}
	return fc.guide(cfg)
}

// manualClock swaps the server's wall clock for an atomic the test sets.
func manualClock(srv *Server) func(float64) {
	var now atomic.Uint64
	srv.clock = func() float64 { return math.Float64frombits(now.Load()) }
	return func(v float64) { now.Store(math.Float64bits(v)) }
}

// TestServeEndToEnd is the smoke test CI runs: post a worker and a nearby
// task, and the committed match must come back on /matches.
func TestServeEndToEnd(t *testing.T) {
	srv, err := New(defaultTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	w := postJSON(t, ts.URL+"/workers", `{"x":10,"y":10,"patience":300}`)
	if w["worker"].(float64) != 0 || w["shard"].(float64) != 0 {
		t.Fatalf("first worker = %v, want handle 0 on shard 0", w)
	}
	r := postJSON(t, ts.URL+"/tasks", `{"x":11,"y":10,"expiry":60}`)
	if r["task"].(float64) != 0 {
		t.Fatalf("first task handle = %v, want 0", r["task"])
	}

	m := getJSON(t, ts.URL+"/matches")
	if m["count"].(float64) != 1 {
		t.Fatalf("matches = %v, want exactly one", m)
	}
	pair := m["matches"].([]any)[0].(map[string]any)
	if pair["worker"].(float64) != 0 || pair["task"].(float64) != 0 || pair["shard"].(float64) != 0 {
		t.Fatalf("unexpected pair %v", pair)
	}

	stats := getJSON(t, ts.URL+"/stats")
	if stats["workers"].(float64) != 1 || stats["tasks"].(float64) != 1 || stats["matches"].(float64) != 1 {
		t.Fatalf("stats = %v", stats)
	}
}

// TestServeEventsLifecycle: the /events stream surfaces the match AND the
// expiry of an unserved worker, with a working since cursor.
func TestServeEventsLifecycle(t *testing.T) {
	srv, err := New(defaultTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	setNow := manualClock(srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	setNow(1)
	postJSON(t, ts.URL+"/workers", `{"x":10,"y":10,"patience":300}`) // matched below
	postJSON(t, ts.URL+"/workers", `{"x":90,"y":90,"patience":2}`)   // expires at 3
	setNow(2)
	postJSON(t, ts.URL+"/tasks", `{"x":11,"y":10,"expiry":60}`)

	ev := getJSON(t, ts.URL+"/events")
	events := ev["events"].([]any)
	if len(events) != 1 {
		t.Fatalf("events = %v, want just the match", ev)
	}
	first := events[0].(map[string]any)
	if first["kind"].(string) != "match" || first["worker"].(float64) != 0 || first["task"].(float64) != 0 {
		t.Fatalf("first event = %v, want the (0,0) match", first)
	}
	next := int(ev["next"].(float64))

	// Advance past worker 1's deadline: the expiry must appear after the
	// cursor, tagged with -1 on the task side.
	setNow(10)
	ev = getJSON(t, fmt.Sprintf("%s/events?since=%d", ts.URL, next))
	events = ev["events"].([]any)
	if len(events) != 1 {
		t.Fatalf("events since %d = %v, want just the expiry", next, ev)
	}
	exp := events[0].(map[string]any)
	if exp["kind"].(string) != "worker-expired" || exp["worker"].(float64) != 1 || exp["task"].(float64) != -1 {
		t.Fatalf("expiry event = %v", exp)
	}
	if exp["time"].(float64) != 3 {
		t.Fatalf("expiry at t=%v, want 3 (arrival 1 + patience 2)", exp["time"])
	}

	stats := getJSON(t, ts.URL+"/stats")
	if stats["expired_workers"].(float64) != 1 {
		t.Fatalf("stats = %v, want 1 expired worker", stats)
	}
}

// TestServeSharded: a 2x1 grid routes admissions by location, matches
// stay region-local, and /stats breaks them out per shard.
func TestServeSharded(t *testing.T) {
	cfg := defaultTestConfig()
	cfg.Shards = [2]int{2, 1}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Left half -> shard 0, right half -> shard 1.
	w0 := postJSON(t, ts.URL+"/workers", `{"x":10,"y":50,"patience":300}`)
	if w0["shard"].(float64) != 0 {
		t.Fatalf("left worker on shard %v, want 0", w0["shard"])
	}
	w1 := postJSON(t, ts.URL+"/workers", `{"x":90,"y":50,"patience":300}`)
	if w1["shard"].(float64) != 1 {
		t.Fatalf("right worker on shard %v, want 1", w1["shard"])
	}
	if w1["worker"].(float64) != 0 {
		t.Fatalf("right worker handle %v, want shard-local 0", w1["worker"])
	}
	postJSON(t, ts.URL+"/tasks", `{"x":11,"y":50,"expiry":60}`)
	postJSON(t, ts.URL+"/tasks", `{"x":89,"y":50,"expiry":60}`)

	stats := getJSON(t, ts.URL+"/stats")
	if stats["matches"].(float64) != 2 {
		t.Fatalf("stats = %v, want 2 matches", stats)
	}
	shards := stats["shards"].([]any)
	if len(shards) != 2 {
		t.Fatalf("shards = %v, want 2", shards)
	}
	for i, raw := range shards {
		sh := raw.(map[string]any)
		if sh["workers"].(float64) != 1 || sh["tasks"].(float64) != 1 || sh["matches"].(float64) != 1 {
			t.Fatalf("shard %d stats = %v, want one of each", i, sh)
		}
	}

	m := getJSON(t, ts.URL+"/matches")
	if m["count"].(float64) != 2 {
		t.Fatalf("matches = %v, want 2 across shards", m)
	}
}

// TestServeGRBatches tasks until the window timer flushes them, using a
// manual clock so the window boundary is crossed deterministically.
func TestServeGRBatches(t *testing.T) {
	cfg := defaultTestConfig()
	cfg.Algorithm = "gr"
	cfg.Window = 10
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	setNow := manualClock(srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	setNow(1)
	postJSON(t, ts.URL+"/workers", `{"x":50,"y":50,"patience":300}`)
	setNow(2)
	postJSON(t, ts.URL+"/tasks", `{"x":50,"y":51,"expiry":120}`)
	// Still inside the first batch window: nothing committed yet.
	if m := getJSON(t, ts.URL+"/matches"); m["count"].(float64) != 0 {
		t.Fatalf("GR matched inside the window: %v", m)
	}
	// Cross the window boundary: GET /matches advances the clock, firing
	// the batch flush before draining.
	setNow(11)
	if m := getJSON(t, ts.URL+"/matches"); m["count"].(float64) != 1 {
		t.Fatalf("GR matches = %v, want 1 after window flush", m)
	}
}

func TestServeValidation(t *testing.T) {
	srv, err := New(defaultTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, tc := range []struct{ url, body string }{
		{"/workers", `{"x":1,"y":1,"patience":-5}`},
		{"/workers", `{"x":1,"y":1}`},
		{"/tasks", `{"x":1,"y":1,"expiry":0}`},
		{"/workers", `{"x":1,"unknown":2,"patience":3}`},
		{"/tasks", `not json`},
	} {
		resp, err := http.Post(ts.URL+tc.url, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %q: status %d, want 400", tc.url, tc.body, resp.StatusCode)
		}
	}
	if resp, err := http.Get(ts.URL + "/workers"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /workers: status %d, want 405", resp.StatusCode)
		}
	}
	for _, url := range []string{"/events?since=-1", "/matches?since=-1", "/events?since=x"} {
		if _, status := getJSONStatus(t, ts.URL+url); status != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", url, status)
		}
	}
}

func TestNewServerRejectsBadConfig(t *testing.T) {
	bad := defaultTestConfig()
	bad.Algorithm = "polar" // guided: not servable without -guide
	if _, err := New(bad); err == nil {
		t.Error("guided algorithm without -guide accepted")
	}
	bad = defaultTestConfig()
	bad.Algorithm = "tgoa"
	if _, err := New(bad); err == nil {
		t.Error("unknown algorithm accepted")
	}
	bad = defaultTestConfig()
	bad.Mode = "lenient"
	if _, err := New(bad); err == nil {
		t.Error("unknown mode accepted")
	}
	bad = defaultTestConfig()
	bad.Velocity = 0
	if _, err := New(bad); err == nil {
		t.Error("zero velocity accepted")
	}
	bad = defaultTestConfig()
	bad.Shards = [2]int{0, 3}
	if _, err := New(bad); err == nil {
		t.Error("zero shard dimension accepted")
	}
	bad = defaultTestConfig()
	bad.Retention = 0
	if _, err := New(bad); err == nil {
		t.Error("zero retention accepted")
	}
}

func TestNewServerRejectsBadTiming(t *testing.T) {
	bad := defaultTestConfig()
	bad.Tick = 0
	if _, err := New(bad); err == nil {
		t.Error("zero tick accepted (would dead-block the tick loop)")
	}
	bad = defaultTestConfig()
	bad.Algorithm = "gr"
	bad.Window = 0
	if _, err := New(bad); err == nil {
		t.Error("zero gr window accepted (NewGR would panic)")
	}
}

// TestNewServerRefusesNaN: every float knob refuses NaN at the door. A NaN
// halo used to boot and then panic on the first admission; a NaN gr
// window booted and never matched. +Inf halo stays a valid reach.
func TestNewServerRefusesNaN(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name string
		set  func(*Config)
		ok   bool
	}{
		{"halo NaN", func(c *Config) { c.Halo = nan }, false},
		{"horizon NaN", func(c *Config) { c.Horizon = nan }, false},
		{"gr window NaN", func(c *Config) { c.Algorithm, c.Window = "gr", nan }, false},
		{"rebalance split NaN", func(c *Config) { c.Rebalance, c.RebalSplit = true, nan }, false},
		{"rebalance merge NaN", func(c *Config) { c.Rebalance, c.RebalSplit, c.RebalMerge = true, 200, nan }, false},
		{"halo +Inf", func(c *Config) { c.Shards, c.Halo = [2]int{2, 2}, math.Inf(1) }, true},
		{"rebalance finite", func(c *Config) { c.Rebalance, c.RebalSplit, c.RebalMerge = true, 200, 10 }, true},
	} {
		cfg := defaultTestConfig()
		tc.set(&cfg)
		if _, err := New(cfg); (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want accepted=%v", tc.name, err, tc.ok)
		}
	}
}

// TestServeMatchesSinceCursor: ?since=N returns only matches committed
// after the first N, while count always reports the full history size.
func TestServeMatchesSinceCursor(t *testing.T) {
	srv, err := New(defaultTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	postJSON(t, ts.URL+"/workers", `{"x":10,"y":10,"patience":300}`)
	postJSON(t, ts.URL+"/tasks", `{"x":10,"y":11,"expiry":60}`)
	postJSON(t, ts.URL+"/workers", `{"x":40,"y":40,"patience":300}`)
	postJSON(t, ts.URL+"/tasks", `{"x":40,"y":41,"expiry":60}`)

	full := getJSON(t, ts.URL+"/matches")
	if full["count"].(float64) != 2 || len(full["matches"].([]any)) != 2 {
		t.Fatalf("full history = %v", full)
	}
	tail := getJSON(t, ts.URL+"/matches?since=1")
	if tail["count"].(float64) != 2 || len(tail["matches"].([]any)) != 1 {
		t.Fatalf("since=1 = %v, want count 2 with 1 returned match", tail)
	}
	if m := tail["matches"].([]any)[0].(map[string]any); m["worker"].(float64) != 1 {
		t.Fatalf("since=1 returned %v, want the second match", m)
	}
	// A cursor past the end returns an empty list, not an error.
	if past := getJSON(t, ts.URL+"/matches?since=99"); len(past["matches"].([]any)) != 0 {
		t.Fatalf("since=99 = %v, want empty", past)
	}
}

// TestServeMatchRetention: /matches reads the matches inside the event
// retention window — exactly the last -retention x shards events, expiries
// included — old cursors get 410 Gone with the oldest readable ordinal,
// and count still reports the lifetime total.
func TestServeMatchRetention(t *testing.T) {
	cfg := defaultTestConfig()
	cfg.Retention = 3
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	setNow := manualClock(srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	pair := func(i int) {
		postJSON(t, ts.URL+"/workers", fmt.Sprintf(`{"x":%d,"y":10,"patience":300}`, 10+20*i))
		postJSON(t, ts.URL+"/tasks", fmt.Sprintf(`{"x":%d,"y":11,"expiry":60}`, 10+20*i))
	}
	setNow(1)
	pair(0) // seq 0, match 0
	pair(1) // seq 1, match 1
	// Three events is a full window, not an overrun: nothing is gone yet.
	postJSON(t, ts.URL+"/workers", `{"x":90,"y":90,"patience":2}`)
	setNow(10) // seq 2: worker 2 expires unserved
	if all := getJSON(t, ts.URL+"/matches?since=0"); all["count"].(float64) != 2 || len(all["matches"].([]any)) != 2 {
		t.Fatalf("since=0 with a full window = %v, want both matches", all)
	}
	pair(2) // seq 3, match 2: the window is now events [1,4) = matches [1,3)

	recent := getJSON(t, ts.URL+"/matches?since=1")
	if recent["count"].(float64) != 3 || len(recent["matches"].([]any)) != 2 || recent["next"].(float64) != 3 {
		t.Fatalf("since=1 = %v, want count 3 with matches 1 and 2", recent)
	}
	if m := recent["matches"].([]any)[0].(map[string]any); m["task"].(float64) != 1 {
		t.Fatalf("window start = %v, want task 1", m)
	}
	// The bare snapshot form keeps working after eviction: it returns the
	// retained window, never 410.
	bare := getJSON(t, ts.URL+"/matches")
	if bare["count"].(float64) != 3 || len(bare["matches"].([]any)) != 2 {
		t.Fatalf("bare /matches after eviction = %v, want the retained window", bare)
	}
	out, status := getJSONStatus(t, ts.URL+"/matches?since=0")
	if status != http.StatusGone {
		t.Fatalf("since=0 after eviction: status %d (%v), want 410", status, out)
	}
	if out["count"].(float64) != 3 {
		t.Fatalf("410 body = %v, want lifetime count 3", out)
	}
	if out["next"].(float64) != 1 {
		t.Fatalf("410 recovery cursor = %v, want the window base 1", out["next"])
	}
	// A cursor past the head is clamped to it.
	if past := getJSON(t, ts.URL+"/matches?since=99"); past["next"].(float64) != 3 || len(past["matches"].([]any)) != 0 {
		t.Fatalf("since=99 = %v, want empty with next clamped to 3", past)
	}
}

// TestServeEventsRetention: the event log keeps exactly the last
// -retention x shards events, however they spread over the shards; a
// stale /events cursor gets 410 Gone plus the cursor to restart from.
func TestServeEventsRetention(t *testing.T) {
	cfg := defaultTestConfig()
	cfg.Retention = 2
	cfg.Shards = [2]int{2, 1} // window = 4 events; all traffic hits shard 0
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	pair := func(i int) {
		postJSON(t, ts.URL+"/workers", fmt.Sprintf(`{"x":%d,"y":10,"patience":300}`, 5+10*i))
		postJSON(t, ts.URL+"/tasks", fmt.Sprintf(`{"x":%d,"y":11,"expiry":60}`, 5+10*i))
	}
	for i := 0; i < 4; i++ {
		pair(i)
	}
	// One shard emitted twice its -retention and nothing is gone: the
	// budget is the grid's, not the hot shard's.
	if full := getJSON(t, ts.URL+"/events?since=0"); len(full["events"].([]any)) != 4 {
		t.Fatalf("since=0 with a full window = %v, want all 4 events", full)
	}
	pair(4)
	out, status := getJSONStatus(t, ts.URL+"/events?since=0")
	if status != http.StatusGone {
		t.Fatalf("stale events cursor: status %d (%v), want 410", status, out)
	}
	// The recovery cursor is the window's low end, not the stream head:
	// restarting there loses only the one evicted event.
	next := uint64(out["next"].(float64))
	if next != 1 {
		t.Fatalf("recovery cursor = %d, want head-window = 1", next)
	}
	ev := getJSON(t, fmt.Sprintf("%s/events?since=%d", ts.URL, next))
	events := ev["events"].([]any)
	if len(events) != 4 || ev["next"].(float64) != 5 {
		t.Fatalf("restarted cursor %d = %v, want the 4 retained events", next, ev)
	}
	if seq := events[0].(map[string]any)["seq"].(float64); seq != 1 {
		t.Fatalf("first retained event seq = %v, want 1", seq)
	}
	// The bare form starts at the oldest retained cursor — never 410.
	bare := getJSON(t, ts.URL+"/events")
	if len(bare["events"].([]any)) != 4 {
		t.Fatalf("bare /events after eviction = %v, want the 4 retained", bare)
	}
	// /stats reports the same window as one consistent pair.
	est := getJSON(t, ts.URL+"/stats")["events"].(map[string]any)
	if est["oldest"].(float64) != 1 || est["head"].(float64) != 5 || est["retained"].(float64) != 4 || est["capacity"].(float64) != 4 {
		t.Fatalf("stats events = %v, want window [1,5) of capacity 4", est)
	}
}

// countsCSV builds a small per-cell count history (3 days, 2 slots, 2x2
// areas) in the ftoa-gen -counts format.
func countsCSV() string {
	var sb strings.Builder
	sb.WriteString("day,slot,area,workers,tasks,weather\n")
	for day := 0; day < 3; day++ {
		for slot := 0; slot < 2; slot++ {
			for area := 0; area < 4; area++ {
				fmt.Fprintf(&sb, "%d,%d,%d,%d,%d,0.5\n", day, slot, area, 3+area, 3+area)
			}
		}
	}
	return sb.String()
}

// TestGuideFromCounts: the offline pipeline (counts -> HP-MSI forecast ->
// guide) runs end to end from the CSV format ftoa-gen emits.
func TestGuideFromCounts(t *testing.T) {
	cfg := defaultTestConfig()
	cfg.Horizon = 100
	g, err := guideFromCounts(strings.NewReader(countsCSV()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.TotalWorkers() == 0 || g.TotalTasks() == 0 {
		t.Fatalf("degenerate guide: %d workers, %d tasks predicted", g.TotalWorkers(), g.TotalTasks())
	}

	// One day of history is not trainable.
	oneDay := "day,slot,area,workers,tasks,weather\n"
	for slot := 0; slot < 2; slot++ {
		for area := 0; area < 4; area++ {
			oneDay += fmt.Sprintf("0,%d,%d,1,1,0\n", slot, area)
		}
	}
	if _, err := guideFromCounts(strings.NewReader(oneDay), cfg); err == nil {
		t.Error("single-day history accepted")
	}
	// A non-square area count needs -guide-grid.
	bad := cfg
	bad.GuideGrid = [2]int{3, 1}
	if _, err := guideFromCounts(strings.NewReader(countsCSV()), bad); err == nil {
		t.Error("mismatched -guide-grid accepted")
	}
}

// TestServeGuidedAlgorithm boots a sharded guided server from a counts
// history and requires a live match end to end. Hybrid is the asserted
// algorithm (its greedy fallback guarantees co-located feasible pairs
// commit regardless of where the guide's pair layout routed the cells);
// polar and polarop must at least construct from the same pipeline.
func TestServeGuidedAlgorithm(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/counts.csv"
	if err := os.WriteFile(path, []byte(countsCSV()), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := defaultTestConfig()
	cfg.GuidePath = path
	cfg.Horizon = 1000
	cfg.Mode = "assume-guide" // guided counting semantics
	cfg.Shards = [2]int{2, 2}

	for _, alg := range []string{"polar", "polarop"} {
		c := cfg
		c.Algorithm = alg
		if _, err := New(c); err != nil {
			t.Fatalf("%s server from counts history: %v", alg, err)
		}
	}

	cfg.Algorithm = "hybrid"
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < 8; i++ {
		postJSON(t, ts.URL+"/workers", `{"x":20,"y":20,"patience":500}`)
		postJSON(t, ts.URL+"/tasks", `{"x":21,"y":20,"expiry":500}`)
	}
	stats := getJSON(t, ts.URL+"/stats")
	if stats["matches"].(float64) == 0 {
		t.Fatalf("guided server committed nothing: %v", stats)
	}
}

// TestServeRetirement: with -retire on, a long-lived server's shard
// arenas stay bounded by the live population while the lifetime stats
// and the match history keep counting.
func TestServeRetirement(t *testing.T) {
	cfg := defaultTestConfig()
	cfg.Retire = 10 * time.Second
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	setNow := manualClock(srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	clock := 0.0
	for wave := 0; wave < 8; wave++ {
		setNow(clock)
		// A matching pair plus a worker that will expire unserved.
		postJSON(t, ts.URL+"/workers", `{"x":10,"y":10,"patience":2}`)
		postJSON(t, ts.URL+"/tasks", `{"x":10,"y":10,"expiry":2}`)
		postJSON(t, ts.URL+"/workers", `{"x":90,"y":90,"patience":2}`)
		clock += 15 // one retire interval per wave
		setNow(clock)
		srv.router.Advance(clock)
	}

	stats := getJSON(t, ts.URL+"/stats")
	if stats["workers"].(float64) != 16 || stats["tasks"].(float64) != 8 {
		t.Fatalf("lifetime stats = %v, want 16 workers / 8 tasks", stats)
	}
	if live := stats["live_workers"].(float64) + stats["live_tasks"].(float64); live != 0 {
		t.Fatalf("live arenas = %v, want 0 after every wave died and retired", live)
	}
	if stats["matches"].(float64) != 8 || stats["expired_workers"].(float64) != 8 {
		t.Fatalf("stats = %v, want 8 matches and 8 expired workers", stats)
	}
	// The bounded match history still serves the full window.
	m := getJSON(t, ts.URL+"/matches")
	if m["count"].(float64) != 8 || len(m["matches"].([]any)) != 8 {
		t.Fatalf("matches = %v, want all 8 retained", m)
	}
	// And the next cursor pages cleanly.
	tail := getJSON(t, ts.URL+"/matches?since=6")
	if len(tail["matches"].([]any)) != 2 || tail["next"].(float64) != 8 {
		t.Fatalf("matches?since=6 = %v, want the last 2 and next=8", tail)
	}
}

// TestServeHaloCrossShardMatch: with -halo set, a worker just left of a
// region border serves a task just right of it — the match disjoint
// sharding misses — and /stats reports the ghost traffic.
func TestServeHaloCrossShardMatch(t *testing.T) {
	cfg := defaultTestConfig()
	cfg.Shards = [2]int{2, 1}
	cfg.Halo = 60 // seconds of reach at velocity 1 -> 60 units
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Owner shards differ; the pair is 2 units apart across the border.
	w := postJSON(t, ts.URL+"/workers", `{"x":49,"y":50,"patience":300}`)
	if w["shard"].(float64) != 0 {
		t.Fatalf("worker on shard %v, want 0", w["shard"])
	}
	tk := postJSON(t, ts.URL+"/tasks", `{"x":51,"y":50,"expiry":60}`)
	if tk["shard"].(float64) != 1 {
		t.Fatalf("task on shard %v, want 1", tk["shard"])
	}

	stats := getJSON(t, ts.URL+"/stats")
	if stats["matches"].(float64) != 1 {
		t.Fatalf("stats = %v, want the cross-border match", stats)
	}
	if stats["ghost_workers"].(float64)+stats["ghost_tasks"].(float64) == 0 {
		t.Fatalf("stats = %v, want ghost admissions", stats)
	}
	if stats["border_matches"].(float64) != 1 {
		t.Fatalf("stats = %v, want 1 border match", stats)
	}

	// The merged stream reports the pair once, under owner identities.
	evs := getJSON(t, ts.URL+"/events")
	events := evs["events"].([]any)
	if len(events) != 1 {
		t.Fatalf("events = %v, want exactly one", events)
	}
	ev := events[0].(map[string]any)
	if ev["kind"].(string) != "match" {
		t.Fatalf("event = %v, want a match", ev)
	}
	if ev["worker_shard"].(float64) != 0 || ev["task_shard"].(float64) != 1 {
		t.Fatalf("event = %v, want worker_shard 0 / task_shard 1", ev)
	}
	m := getJSON(t, ts.URL+"/matches")
	entries := m["matches"].([]any)
	if len(entries) != 1 {
		t.Fatalf("matches = %v, want one", m)
	}
	me := entries[0].(map[string]any)
	if me["worker_shard"].(float64) != 0 || me["task_shard"].(float64) != 1 {
		t.Fatalf("match = %v, want worker_shard 0 / task_shard 1", me)
	}

	// A disjoint server misses the same pair.
	cfg.Halo = 0
	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	postJSON(t, ts2.URL+"/workers", `{"x":49,"y":50,"patience":300}`)
	postJSON(t, ts2.URL+"/tasks", `{"x":51,"y":50,"expiry":60}`)
	if st := getJSON(t, ts2.URL+"/stats"); st["matches"].(float64) != 0 {
		t.Fatalf("disjoint stats = %v, want 0 matches", st)
	}
}

// TestGuideFromCountsWallclock: the wall-clock anchor builds a week-long
// guide (7x the slots) whose slotting wraps by day-of-week and
// time-of-day from the anchor offset instead of clamping at the horizon.
func TestGuideFromCountsWallclock(t *testing.T) {
	cfg := defaultTestConfig()
	cfg.Horizon = 100 // served day length; 2 slots of 50 per day
	cfg.GuideAnchor = "wallclock"
	// Boot mid-Wednesday: weekday 3, 60% through the day.
	cfg.anchorOffset = (3 + 0.6) * cfg.Horizon
	g, err := guideFromCounts(strings.NewReader(countsCSV()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	slots := g.Cfg.Slots
	if slots.Count != 7*2 || slots.Horizon != 7*cfg.Horizon {
		t.Fatalf("week slotting = %d slots over %v, want 14 over 700", slots.Count, slots.Horizon)
	}
	// Uptime 0 is Wednesday 60% -> day 3, second half -> slot 3*2+1.
	if got := slots.SlotOf(0); got != 7 {
		t.Fatalf("SlotOf(0) = %d, want 7 (Wednesday afternoon)", got)
	}
	// 40 units later the day rolls into Thursday morning.
	if got := slots.SlotOf(40); got != 8 {
		t.Fatalf("SlotOf(40) = %d, want 8 (Thursday morning)", got)
	}
	// A full week of uptime wraps back to the boot slot instead of
	// clamping at the last.
	if got := slots.SlotOf(7 * cfg.Horizon); got != 7 {
		t.Fatalf("SlotOf(one week) = %d, want 7 again", got)
	}
	if g.TotalWorkers() == 0 || g.TotalTasks() == 0 {
		t.Fatalf("degenerate week guide: %d/%d predicted", g.TotalWorkers(), g.TotalTasks())
	}

	// An unknown anchor is rejected by guide construction and by the
	// server's own validation.
	bad := cfg
	bad.GuideAnchor = "lunar"
	if _, err := guideFromCounts(strings.NewReader(countsCSV()), bad); err == nil {
		t.Error("unknown guide anchor accepted by guideFromCounts")
	}
	srvCfg := defaultTestConfig()
	srvCfg.GuideAnchor = "lunar"
	if _, err := New(srvCfg); err == nil {
		t.Error("unknown guide anchor accepted by New")
	}
}

// TestWeekdaySources: every weekday resolves to its latest history day,
// with the overall last day covering weekdays a short history missed.
func TestWeekdaySources(t *testing.T) {
	// 3-day history starting on a Saturday (6): days are 6, 0, 1.
	src := weekdaySources([]int{6, 0, 1})
	want := [7]int{1, 2, 2, 2, 2, 2, 0}
	if src != want {
		t.Fatalf("weekdaySources = %v, want %v", src, want)
	}
	// 9-day history starting Monday wraps: the second Monday (day 7)
	// shadows the first (day 0).
	src = weekdaySources([]int{1, 2, 3, 4, 5, 6, 0, 1, 2})
	want = [7]int{6, 7, 8, 2, 3, 4, 5}
	if src != want {
		t.Fatalf("weekdaySources = %v, want %v", src, want)
	}
}

// TestServeWALRestart: a WAL-backed server killed without ceremony (the
// handles simply abandoned) restarts with its matched set, match
// history and clock intact, and keeps serving.
func TestServeWALRestart(t *testing.T) {
	cfg := defaultTestConfig()
	cfg.Shards = [2]int{2, 1}
	cfg.WALDir = t.TempDir() + "/wal"
	cfg.WALSync = "always"

	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	postJSON(t, ts.URL+"/workers", `{"x":10,"y":10,"patience":300}`)
	postJSON(t, ts.URL+"/tasks", `{"x":11,"y":10,"expiry":60}`)
	postJSON(t, ts.URL+"/workers", `{"x":90,"y":10,"patience":300}`) // unmatched, survives
	before := getJSON(t, ts.URL+"/stats")
	if before["matches"].(float64) != 1 {
		t.Fatalf("pre-crash stats = %v, want 1 match", before)
	}
	if wal := before["wal"].(map[string]any); wal["enabled"] != true || wal["recovered"] != false {
		t.Fatalf("pre-crash wal status = %v", wal)
	}
	ts.Close()
	// Kill: no WALClose, no flush. -wal-sync always made every
	// acknowledged admission durable already.

	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.router.WALClose()
	if !srv2.recovery.Recovered || srv2.recovery.Matches != 1 {
		t.Fatalf("recovery = %+v, want a recovered match", srv2.recovery)
	}
	if now := srv2.now(); now < srv2.recovery.MaxClock {
		t.Fatalf("recovered clock %v rewound below the replayed %v", now, srv2.recovery.MaxClock)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	after := getJSON(t, ts2.URL+"/stats")
	if after["matches"].(float64) != 1 || after["workers"].(float64) != 2 {
		t.Fatalf("post-recovery stats = %v, want the pre-crash population", after)
	}
	wal := after["wal"].(map[string]any)
	if wal["recovered"] != true || wal["generation"].(float64) != 2 || wal["recovered_matches"].(float64) != 1 {
		t.Fatalf("post-recovery wal status = %v", wal)
	}
	// The restart's cost is readable from the running process.
	if wal["recover_ms"].(float64) <= 0 || wal["recover_us_per_event"].(float64) <= 0 ||
		wal["wal_bytes_read"].(float64) <= 0 || wal["skipped_generations"].(float64) != 0 {
		t.Fatalf("post-recovery wal cost figures = %v", wal)
	}
	// The match history view was rebuilt from the replay, not lost.
	m := getJSON(t, ts2.URL+"/matches")
	if m["count"].(float64) != 1 {
		t.Fatalf("post-recovery matches = %v, want the recovered commit", m)
	}
	// And the recovered server still matches: the surviving worker at
	// (90,10) serves a new task.
	postJSON(t, ts2.URL+"/tasks", `{"x":89,"y":10,"expiry":60}`)
	if st := getJSON(t, ts2.URL+"/stats"); st["matches"].(float64) != 2 {
		t.Fatalf("recovered server won't match: %v", st)
	}
}

// walFiles lists the segment files under a WAL directory.
func walFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// TestServeWALCleanRestart: the SIGTERM sequence (Server.Shutdown) seals a
// checkpoint of the live population and deletes the generations before it,
// and the server booted over that directory replays the checkpoint alone —
// lifetime totals equal, match ordinals carried on, cursors from before
// the restart answered 410 with the restart cursor — however many clean
// restarts came before.
func TestServeWALCleanRestart(t *testing.T) {
	cfg := defaultTestConfig()
	cfg.Shards = [2]int{2, 1}
	cfg.WALDir = t.TempDir() + "/wal"
	cfg.WALSync = "always"

	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.StartTick()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	postJSON(t, ts.URL+"/workers", `{"x":10,"y":10,"patience":300}`)
	postJSON(t, ts.URL+"/tasks", `{"x":11,"y":10,"expiry":60}`)
	postJSON(t, ts.URL+"/workers", `{"x":90,"y":10,"patience":300}`) // unmatched, survives
	postJSON(t, ts.URL+"/tasks", `{"x":10,"y":90,"expiry":300}`)     // unmatched, survives
	before := getJSON(t, ts.URL+"/stats")
	head := getJSON(t, ts.URL+"/events")["next"].(float64)
	if before["matches"].(float64) != 1 || head < 1 {
		t.Fatalf("pre-shutdown: stats %v, event head %v", before, head)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx, nil); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The router still answers from memory: the checkpoint is on /stats.
	wal := getJSON(t, ts.URL+"/stats")["wal"].(map[string]any)
	if wal["checkpoint_generation"].(float64) != 2 || wal["checkpoint_objects"].(float64) != 2 ||
		wal["checkpoint_ms"].(float64) <= 0 || wal["segments_removed"].(float64) != 2 || wal["checkpoint_error"] != nil {
		t.Fatalf("post-shutdown wal status = %v", wal)
	}
	if got := walFiles(t, cfg.WALDir); fmt.Sprint(got) != "[s000-g000002.wal s001-g000002.wal]" {
		t.Fatalf("after a clean shutdown the directory holds %v, want the checkpoint generation alone", got)
	}

	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ri := srv2.recovery; !ri.Recovered || !ri.FromCheckpoint || ri.SkippedGenerations != 0 || ri.Segments != 2 {
		t.Fatalf("recovery = %+v, want the checkpoint generation alone", ri)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	after := getJSON(t, ts2.URL+"/stats")
	for _, k := range []string{"workers", "tasks", "matches", "attempted", "rejected", "expired_workers", "expired_tasks",
		"ghost_workers", "ghost_tasks", "claims_lost", "border_matches"} {
		if after[k] != before[k] {
			t.Errorf("/stats %s = %v after the restart, %v before", k, after[k], before[k])
		}
	}
	// The arenas came back holding what is alive, not the matched pair too.
	if after["live_workers"].(float64) != 1 || after["live_tasks"].(float64) != 1 {
		t.Errorf("/stats arenas after the restart: %v workers, %v tasks; want the two survivors", after["live_workers"], after["live_tasks"])
	}
	wal = after["wal"].(map[string]any)
	if wal["recovered"] != true || wal["from_checkpoint"] != true || wal["generation"].(float64) != 3 ||
		wal["skipped_generations"].(float64) != 0 || wal["recovered_matches"].(float64) != 0 {
		t.Fatalf("post-restart wal status = %v", wal)
	}
	// Cursors from before the restart are stale, and say where to resume.
	gone, status := getJSONStatus(t, ts2.URL+"/events?since=0")
	if status != http.StatusGone || gone["next"].(float64) != head {
		t.Fatalf("/events?since=0 after the restart: %d %v, want 410 and the restart cursor %v", status, gone, head)
	}
	if evs := getJSON(t, ts2.URL+fmt.Sprintf("/events?since=%v", head)); evs["next"].(float64) != head {
		t.Fatalf("/events at the restart cursor = %v", evs)
	}
	// Match ordinals carry on: the one match before the restart is ordinal 0
	// and gone, the next one is ordinal 1.
	gone, status = getJSONStatus(t, ts2.URL+"/matches?since=0")
	if status != http.StatusGone || gone["next"].(float64) != 1 || gone["count"].(float64) != 1 {
		t.Fatalf("/matches?since=0 after the restart: %d %v", status, gone)
	}
	postJSON(t, ts2.URL+"/tasks", `{"x":89,"y":10,"expiry":60}`) // the surviving worker serves it
	m := getJSON(t, ts2.URL+"/matches?since=1")
	if m["count"].(float64) != 2 || m["next"].(float64) != 2 || len(m["matches"].([]any)) != 1 {
		t.Fatalf("/matches?since=1 = %v, want the one post-restart match as ordinal 1", m)
	}
	if st := getJSON(t, ts2.URL+"/stats"); st["matches"].(float64) != 2 || st["workers"].(float64) != 2 || st["tasks"].(float64) != 3 {
		t.Fatalf("post-restart stats = %v", st)
	}

	// A second clean restart leaves the same shape: one sealed checkpoint
	// generation, then the boot's continuation generation beside it.
	if err := srv2.Shutdown(ctx, nil); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
	if got := walFiles(t, cfg.WALDir); fmt.Sprint(got) != "[s000-g000004.wal s001-g000004.wal]" {
		t.Fatalf("after the second clean shutdown the directory holds %v", got)
	}
	srv3, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv3.router.WALClose()
	if got := walFiles(t, cfg.WALDir); len(got) != 4 || got[3] != "s001-g000005.wal" {
		t.Fatalf("after the third boot the directory holds %v", got)
	}
	if tot := srv3.router.Totals(); tot.Matches != 2 || tot.Workers != 2 || tot.Tasks != 3 {
		t.Fatalf("third boot totals = %+v", tot)
	}
}

// TestServeCheckpointFailureIsNotFatal: when the shutdown checkpoint cannot
// be written the shutdown still succeeds — the generations already on disk
// remain the restart's source — and the failure is on /stats.
func TestServeCheckpointFailureIsNotFatal(t *testing.T) {
	cfg := defaultTestConfig()
	cfg.WALDir = t.TempDir() + "/wal"
	cfg.WALSync = "always"
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	postJSON(t, ts.URL+"/workers", `{"x":10,"y":10,"patience":300}`)
	// The directory turns into a file: no new generation can be created.
	if err := os.RemoveAll(cfg.WALDir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cfg.WALDir, []byte("in the way"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(context.Background(), nil); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wal := getJSON(t, ts.URL+"/stats")["wal"].(map[string]any)
	if msg, _ := wal["checkpoint_error"].(string); msg == "" || wal["checkpoint_generation"] != nil {
		t.Fatalf("wal status after a failed checkpoint = %v", wal)
	}
}

// TestServeWALConfigValidation: bad durability flags are rejected up
// front, and a fresh server refuses a foreign WAL fingerprint.
func TestServeWALConfigValidation(t *testing.T) {
	bad := defaultTestConfig()
	bad.WALSync = "eventually"
	if _, err := New(bad); err == nil {
		t.Error("unknown -wal-sync accepted")
	}

	// A log written under one topology must not replay under another.
	cfg := defaultTestConfig()
	cfg.WALDir = t.TempDir() + "/wal"
	cfg.WALSync = "always"
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.router.WALClose()
	cfg.Shards = [2]int{2, 2}
	if _, err := New(cfg); err == nil {
		t.Error("recovery across a shard-topology change accepted")
	}
}

// TestServeBootGate: the gate answers 503 "recovering" (on /healthz
// too) until the real handler is swapped in.
func TestServeBootGate(t *testing.T) {
	gate := NewBootGate()
	ts := httptest.NewServer(gate)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("gated /healthz: status %d, want 503 with Retry-After", resp.StatusCode)
	}
	if out, status := getJSONStatus(t, ts.URL+"/stats"); status != http.StatusServiceUnavailable {
		t.Fatalf("gated /stats: status %d (%v), want 503", status, out)
	}

	srv, err := New(defaultTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	gate.Ready(srv.Handler())
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ready /healthz: status %d, want 200", resp.StatusCode)
	}
}

// TestServeCrashRestartSoak (env-gated; CI's crash-recovery soak job
// sets FTOA_SOAK=1) kills and restarts a WAL-backed server repeatedly,
// checking every generation recovers the previous one's full state.
func TestServeCrashRestartSoak(t *testing.T) {
	if os.Getenv("FTOA_SOAK") == "" {
		t.Skip("set FTOA_SOAK=1 to run the crash/restart soak")
	}
	cfg := defaultTestConfig()
	cfg.Shards = [2]int{2, 2}
	cfg.Halo = 30
	cfg.WALDir = t.TempDir() + "/wal"
	cfg.WALSync = "always"

	prevMatches, prevWorkers := 0.0, 0.0
	for round := 0; round < 6; round++ {
		srv, err := New(cfg)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if round > 0 && !srv.recovery.Recovered {
			t.Fatalf("round %d recovered nothing", round)
		}
		ts := httptest.NewServer(srv.Handler())
		st := getJSON(t, ts.URL+"/stats")
		if st["matches"].(float64) != prevMatches || st["workers"].(float64) != prevWorkers {
			t.Fatalf("round %d recovered %v matches / %v workers, want %v / %v",
				round, st["matches"], st["workers"], prevMatches, prevWorkers)
		}
		// A wave of arrivals, some crossing the halo border at x=50.
		for i := 0; i < 8; i++ {
			x := 44 + (i*7)%13
			postJSON(t, ts.URL+"/workers", fmt.Sprintf(`{"x":%d,"y":%d,"patience":600}`, x, 20+i*7))
			postJSON(t, ts.URL+"/tasks", fmt.Sprintf(`{"x":%d,"y":%d,"expiry":600}`, x+2, 20+i*7))
		}
		st = getJSON(t, ts.URL+"/stats")
		if wal := st["wal"].(map[string]any); wal["error"] != nil {
			t.Fatalf("round %d WAL error: %v", round, wal["error"])
		}
		prevMatches, prevWorkers = st["matches"].(float64), st["workers"].(float64)
		ts.Close() // kill: the router and its WAL handles are abandoned
	}
	if prevMatches == 0 {
		t.Fatal("soak committed nothing")
	}
}

// TestHaloBootReport: the boot summary warns exactly when the band tasks
// are mirrored from rivals the shard region size, and always reports the
// effective halo fraction per shard.
func TestHaloBootReport(t *testing.T) {
	build := func(haloSecs float64) *Server {
		cfg := defaultTestConfig()
		cfg.Shards = [2]int{2, 2} // 50x50 regions over 100x100
		cfg.Halo = haloSecs       // velocity 1: reach == seconds
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}

	if lines := haloBootReport(build(0).router.Placement()); lines != nil {
		t.Fatalf("halo 0 reported %v, want nothing", lines)
	}

	// Modest halo: 4*5 < 50, so fractions only, no warning.
	lines := haloBootReport(build(5).router.Placement())
	if len(lines) != 4 {
		t.Fatalf("halo 5: %d lines, want 4 per-shard fractions: %v", len(lines), lines)
	}
	for _, l := range lines {
		if strings.Contains(l, "WARNING") {
			t.Fatalf("halo 5 warned: %q", l)
		}
		if !strings.Contains(l, "effective halo fraction") {
			t.Fatalf("missing fraction in %q", l)
		}
	}

	// Oversized halo: 4*30 >= 50 — every shard warned, fractions still
	// reported.
	lines = haloBootReport(build(30).router.Placement())
	var warns, fracs int
	for _, l := range lines {
		if strings.Contains(l, "WARNING") {
			warns++
		}
		if strings.Contains(l, "effective halo fraction") {
			fracs++
		}
	}
	if warns != 4 || fracs != 4 {
		t.Fatalf("halo 30: %d warnings / %d fractions, want 4 / 4: %v", warns, fracs, lines)
	}
}

// TestServeEventsLongPoll: GET /events?wait=D parks on the broadcast
// subscription — an idle stream holds the request for the window and
// returns empty; a concurrent admission releases it immediately with the
// new event. The /stats "events" section reflects the delivery plumbing.
func TestServeEventsLongPoll(t *testing.T) {
	srv, err := New(defaultTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if _, status := getJSONStatus(t, ts.URL+"/events?since=0&wait=banana"); status != http.StatusBadRequest {
		t.Fatalf("bad wait accepted: status %d", status)
	}

	// Idle: the poll holds for the window, then answers empty.
	start := time.Now()
	out := getJSON(t, ts.URL+"/events?since=0&wait=150ms")
	if d := time.Since(start); d < 100*time.Millisecond {
		t.Fatalf("idle long-poll returned after %v, want ~150ms hold", d)
	}
	if evs := out["events"].([]any); len(evs) != 0 || out["next"].(float64) != 0 {
		t.Fatalf("idle long-poll = %v, want empty at cursor 0", out)
	}

	// Hot: an admission during the hold releases the poll with the event.
	type result struct {
		out     map[string]any
		elapsed time.Duration
	}
	done := make(chan result, 1)
	go func() {
		s := time.Now()
		out := getJSON(t, ts.URL+"/events?since=0&wait=10s")
		done <- result{out, time.Since(s)}
	}()
	time.Sleep(50 * time.Millisecond) // let the poll park
	postJSON(t, ts.URL+"/workers", `{"x":10,"y":10,"patience":300}`)
	postJSON(t, ts.URL+"/tasks", `{"x":11,"y":10,"expiry":60}`)
	select {
	case res := <-done:
		if res.elapsed > 5*time.Second {
			t.Fatalf("long-poll did not release on the event (took %v)", res.elapsed)
		}
		evs := res.out["events"].([]any)
		if len(evs) != 1 || evs[0].(map[string]any)["kind"].(string) != "match" {
			t.Fatalf("long-poll result = %v, want the one match", res.out)
		}
		if res.out["next"].(float64) != 1 {
			t.Fatalf("long-poll next = %v, want 1", res.out["next"])
		}
	case <-time.After(8 * time.Second):
		t.Fatal("long-poll stuck despite an admission")
	}

	stats := getJSON(t, ts.URL+"/stats")
	events, ok := stats["events"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing events section: %v", stats)
	}
	for _, k := range []string{"subscribers", "oldest", "head", "retained", "capacity", "published", "evicted_subs", "wakeups"} {
		if _, ok := events[k]; !ok {
			t.Fatalf("stats events section missing %q: %v", k, events)
		}
	}
	if events["capacity"].(float64) != 1<<16 {
		t.Fatalf("capacity = %v, want retention x shards = 65536", events["capacity"])
	}
	if events["published"].(float64) < 1 {
		t.Fatalf("published = %v, want the long-polled match counted", events["published"])
	}
}
