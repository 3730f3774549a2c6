package shard

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"ftoa/internal/faultfs"
	"ftoa/internal/geo"
	"ftoa/internal/model"
	"ftoa/internal/sim"
	"ftoa/internal/workload"
)

// consumeSub drains one subscription concurrently with producers: it
// reads pages until stop is closed AND the cursor has caught up with the
// router head.
func consumeSub(t *testing.T, r *Router, sub *EventSub, page int, stop <-chan struct{}) []Event {
	t.Helper()
	var got []Event
	var buf []Event
	for {
		var err error
		buf, _, err = sub.Next(page, buf[:0])
		if err != nil {
			t.Errorf("subscriber Next: %v", err)
			return got
		}
		got = append(got, buf...)
		if len(buf) > 0 {
			continue
		}
		select {
		case <-stop:
			if sub.Cursor() >= r.Cursor() {
				return got
			}
		default:
		}
		sub.Wait(5*time.Millisecond, nil)
	}
}

// syntheticRouter returns a 2x2 greedy router over the bounds of a
// 300+300 synthetic workload, plus the workload.
func syntheticRouter(t *testing.T) (*Router, *model.Instance) {
	t.Helper()
	wcfg := workload.DefaultSynthetic()
	wcfg.NumWorkers, wcfg.NumTasks = 300, 300
	in, err := wcfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(Config{
		Matcher:      sim.MatcherConfig{Mode: sim.Strict, Velocity: in.Velocity, Bounds: in.Bounds},
		Cols:         2,
		Rows:         2,
		NewAlgorithm: func() sim.Algorithm { return &greedyAlg{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	return r, in
}

// produce admits arrivals from four concurrent producers, striped, and
// returns once all of them are in.
func produce(t *testing.T, r *Router, in *model.Instance, arrivals []model.Event) {
	t.Helper()
	var wg sync.WaitGroup
	const producers = 4
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := p; i < len(arrivals); i += producers {
				var err error
				switch ev := arrivals[i]; ev.Kind {
				case model.WorkerArrival:
					_, _, err = r.AddWorker(in.Workers[ev.Index])
				case model.TaskArrival:
					_, _, err = r.AddTask(in.Tasks[ev.Index])
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
}

// requireDense asserts evs is exactly the dense seq range [from, to).
func requireDense(t *testing.T, evs []Event, from, to uint64) {
	t.Helper()
	if uint64(len(evs)) != to-from {
		t.Fatalf("got %d events, want the dense range [%d,%d)", len(evs), from, to)
	}
	for i, ev := range evs {
		if ev.Seq != from+uint64(i) {
			t.Fatalf("event %d has seq %d, want %d (gap or duplicate)", i, ev.Seq, from+uint64(i))
		}
	}
}

// TestRouterBroadcastParityConcurrent: a subscriber that starts behind a
// backlog and pages through the log under concurrent multi-shard
// admissions observes a stream bit-identical to one full Events read from
// the same cursor, and Seq-dense.
func TestRouterBroadcastParityConcurrent(t *testing.T) {
	r, in := syntheticRouter(t)

	events := in.Events()
	// Seed a backlog before subscribing so the subscription starts well
	// behind the head.
	seed := len(events) / 4
	for _, ev := range events[:seed] {
		switch ev.Kind {
		case model.WorkerArrival:
			if _, _, err := r.AddWorker(in.Workers[ev.Index]); err != nil {
				t.Fatal(err)
			}
		case model.TaskArrival:
			if _, _, err := r.AddTask(in.Tasks[ev.Index]); err != nil {
				t.Fatal(err)
			}
		}
	}
	sub := r.Subscribe(0)
	defer sub.Close()

	stop := make(chan struct{})
	var got []Event
	var consumer sync.WaitGroup
	consumer.Add(1)
	go func() {
		defer consumer.Done()
		got = consumeSub(t, r, sub, 73, stop)
	}()

	produce(t, r, in, events[seed:])
	r.Finish()
	close(stop)
	consumer.Wait()
	if t.Failed() {
		t.FailNow()
	}

	want, next, err := r.Events(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("workload produced no events")
	}
	requireDense(t, got, 0, next)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("subscriber stream diverges from the full read (%d vs %d events)", len(got), len(want))
	}
	if st := r.EventLogStats(); st.Published != next || st.Frontier != next || st.Oldest != 0 {
		t.Errorf("log stats %+v, want every one of the %d events published and readable", st, next)
	}
}

// TestRouterBroadcastParityRebalance: the subscription's cursor space is
// continuous across a Rebalance — the log belongs to the router, not to a
// topology, so the subscriber's stream stays Seq-dense and bit-identical
// to the full read across the swap.
func TestRouterBroadcastParityRebalance(t *testing.T) {
	r, err := NewRouter(testConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	addPair := func(x, y, at float64) {
		t.Helper()
		if _, _, err := r.AddWorker(model.Worker{Loc: geo.Pt(x, y), Arrive: at, Patience: 100}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.AddTask(model.Task{Loc: geo.Pt(x, y+1), Release: at, Expiry: 100}); err != nil {
			t.Fatal(err)
		}
	}
	// Pre-subscription backlog in every quadrant.
	for i := 0; i < 8; i++ {
		addPair(20+60*float64(i%2), 20+60*float64((i/2)%2), float64(i))
	}
	sub := r.Subscribe(0)
	defer sub.Close()

	// Split quadrant 0 mid-stream.
	if _, err := r.Rebalance(mustSplit(t, r.Topology(), 0)); err != nil {
		t.Fatal(err)
	}
	// Post-swap traffic, including the split quadrant's sub-regions.
	for i := 0; i < 8; i++ {
		addPair(10+25*float64(i%2), 10+25*float64((i/2)%2), 8+float64(i))
	}
	r.Finish()

	stop := make(chan struct{})
	close(stop)
	got := consumeSub(t, r, sub, 5, stop)
	if t.Failed() {
		t.FailNow()
	}
	want, next, err := r.Events(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireDense(t, got, 0, next)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stream across rebalance diverges from the full read (%d vs %d events)", len(got), len(want))
	}
}

// TestRouterBroadcastRetentionEviction: a subscriber below the retention
// window gets the same ErrEvicted/restart-at-OldestCursor contract as a
// polling consumer — the window is exactly the last Retention × Cols ×
// Rows events, even though the segment still physically holds the older
// ones — and the restarted stream matches the polled read bit-identically.
func TestRouterBroadcastRetentionEviction(t *testing.T) {
	cfg := testConfig(1, 1)
	cfg.Retention = 3
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub := r.Subscribe(0)
	defer sub.Close()
	for i := 0; i < 5; i++ {
		if _, _, err := r.AddWorker(model.Worker{Loc: geo.Pt(10, 10), Arrive: float64(i), Patience: 100}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.AddTask(model.Task{Loc: geo.Pt(10, 11), Release: float64(i), Expiry: 100}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := sub.Next(0, nil); err != ErrEvicted {
		t.Fatalf("stale subscriber error = %v, want ErrEvicted", err)
	}
	if sub.Cursor() != 0 {
		t.Fatalf("cursor moved to %d on eviction error, want 0", sub.Cursor())
	}
	if r.OldestCursor() != 2 {
		t.Fatalf("OldestCursor = %d, want head-retention = 2", r.OldestCursor())
	}
	sub.Seek(r.OldestCursor())
	got, next, err := sub.Next(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, wantNext, err := r.Events(r.OldestCursor(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if next != wantNext || !reflect.DeepEqual(got, want) {
		t.Fatalf("restarted stream = %d events next %d, want %d events next %d, bit-identical",
			len(got), next, len(want), wantNext)
	}
	requireDense(t, got, r.OldestCursor(), wantNext)
}

// TestRouterBroadcastFanoutSmoke: ≥8 subscribers consuming the full
// stream concurrently with producers (the -race fan-out gate). Every
// subscriber must observe the identical gap-free merged stream.
func TestRouterBroadcastFanoutSmoke(t *testing.T) {
	r, in := syntheticRouter(t)

	const nsubs = 8
	stop := make(chan struct{})
	streams := make([][]Event, nsubs)
	var consumers sync.WaitGroup
	for i := 0; i < nsubs; i++ {
		sub := r.Subscribe(0)
		defer sub.Close()
		consumers.Add(1)
		go func(i int, sub *EventSub) {
			defer consumers.Done()
			streams[i] = consumeSub(t, r, sub, 64+7*i, stop)
		}(i, sub)
	}

	produce(t, r, in, in.Events())
	r.Finish()
	close(stop)
	consumers.Wait()
	if t.Failed() {
		t.FailNow()
	}

	want, next, err := r.Events(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range streams {
		requireDense(t, got, 0, next)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("subscriber %d stream diverges from the full read", i)
		}
	}
	if n := r.EventLogStats().Subscribers; n != nsubs {
		t.Fatalf("Subscribers = %d, want %d", n, nsubs)
	}
}

// TestRouterBroadcastWaitWake: Wait is event-driven — it wakes promptly
// on an append, times out when idle, and a quiescent router appends
// nothing and wakes no one.
func TestRouterBroadcastWaitWake(t *testing.T) {
	r, err := NewRouter(testConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	addPair := func(at float64) {
		t.Helper()
		if _, _, err := r.AddWorker(model.Worker{Loc: geo.Pt(10, 10), Arrive: at, Patience: 100}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.AddTask(model.Task{Loc: geo.Pt(10, 11), Release: at, Expiry: 100}); err != nil {
			t.Fatal(err)
		}
	}

	// The log is fed whether or not anyone is subscribed.
	addPair(0)
	if st := r.EventLogStats(); st.Published != 1 || st.Frontier != 1 || st.Wakeups != 0 {
		t.Fatalf("after one unobserved match: %+v, want it published, readable, no wakeups", st)
	}

	sub := r.Subscribe(r.Cursor())
	defer sub.Close()

	// Idle: Wait times out, no spurious wakeups.
	if sub.Wait(20*time.Millisecond, nil) {
		t.Fatal("Wait reported events on an idle stream")
	}
	// Quiescent ticks (no due deadlines) publish nothing.
	for i := 1; i <= 5; i++ {
		r.Advance(float64(i))
	}
	if st := r.EventLogStats(); st.Published != 1 || st.Wakeups != 0 {
		t.Fatalf("quiescent ticks touched the log: %+v", st)
	}

	// Hot: a blocked Wait wakes on the next emission.
	woke := make(chan bool, 1)
	go func() { woke <- sub.Wait(5*time.Second, nil) }()
	time.Sleep(10 * time.Millisecond) // let it block (fast path also passes)
	addPair(6)
	select {
	case ok := <-woke:
		if !ok {
			t.Fatal("Wait returned false on publish")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Wait did not wake on publish")
	}
	evs, _, err := sub.Next(0, nil)
	if err != nil || len(evs) != 1 || evs[0].Kind != sim.EventMatch {
		t.Fatalf("post-wake Next = %v err %v, want the one match", evs, err)
	}
	if st := r.EventLogStats(); st.Published != 2 || st.Wakeups != 1 {
		t.Fatalf("after the wake: %+v, want 2 published and 1 wakeup", st)
	}

	// Close wakes a blocked waiter.
	done := make(chan bool, 1)
	go func() { done <- sub.Wait(5*time.Second, nil) }()
	time.Sleep(10 * time.Millisecond)
	sub.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Wait did not wake on Close")
	}
	if n := r.EventLogStats().Subscribers; n != 0 {
		t.Fatalf("Subscribers = %d after Close, want 0", n)
	}
}

// TestRouterMatchesConcurrent: a /matches-style reader paging by Seq while
// four producers emit (the -race gate of the filtered read). Every page
// holds only commits, in Seq order and inside the run of cursors it
// advanced over (at most the limit), and the pages add up to the match
// events of the full stream — none skipped while a lower Seq was still in
// flight.
func TestRouterMatchesConcurrent(t *testing.T) {
	r, in := syntheticRouter(t)
	stop := make(chan struct{})
	var got []Event
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		var cursor uint64
		for {
			before := len(got)
			var next uint64
			var err error
			got, next, err = r.Matches(cursor, 7, got)
			if err != nil || next < cursor || next-cursor > 7 {
				t.Errorf("Matches(%d, 7): next %d, err %v", cursor, next, err)
				return
			}
			for _, ev := range got[before:] {
				if ev.Kind != sim.EventMatch || ev.Seq < cursor || ev.Seq >= next {
					t.Errorf("Matches(%d, 7) up to %d returned %+v", cursor, next, ev)
					return
				}
			}
			if next != cursor {
				cursor = next
				continue
			}
			select {
			case <-stop:
				if cursor == r.Cursor() {
					return
				}
			default:
			}
		}
	}()
	produce(t, r, in, in.Events())
	r.Finish()
	close(stop)
	reader.Wait()
	if t.Failed() {
		t.FailNow()
	}
	all, _, err := r.Events(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want []Event
	for _, ev := range all {
		if ev.Kind == sim.EventMatch {
			want = append(want, ev)
		}
	}
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("paged matches = %d events, want the %d commits of the full stream", len(got), len(want))
	}
}

// TestRouterMatchesFollowEvents: a /matches poller that keeps only the
// cursor Matches hands back sees exactly the match events an /events
// poller sees over the same run — through retention eviction and across a
// checkpoint recovered mid-stream, with both cursors carried over.
func TestRouterMatchesFollowEvents(t *testing.T) {
	fs := faultfs.New()
	cfg := walTestConfig(2, 2, 12, fs)
	cfg.Retention = 16
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var (
		matches, events  []Event
		mnext, enext     uint64
		started          bool
		polls, emptyRuns int
	)
	// poll drains both pollers: each loops until a call returns nothing
	// and leaves its cursor where it was.
	poll := func(label string) {
		t.Helper()
		for {
			var got []Event
			var next uint64
			var err error
			if started {
				got, next, err = r.Matches(mnext, 3, nil)
			} else {
				got, next = r.MatchesFromOldest(3, nil)
				started = true
			}
			if err != nil {
				t.Fatalf("%s: Matches(%d): %v", label, mnext, err)
			}
			for _, ev := range got {
				if ev.Kind != sim.EventMatch {
					t.Fatalf("%s: Matches returned a %v event", label, ev.Kind)
				}
			}
			polls++
			if len(got) == 0 && next != mnext {
				emptyRuns++
			}
			matches = append(matches, got...)
			if len(got) == 0 && next == mnext {
				break
			}
			mnext = next
		}
		for {
			got, next, err := r.EventsLimit(enext, 5, nil)
			if err != nil {
				t.Fatalf("%s: EventsLimit(%d): %v", label, enext, err)
			}
			events = append(events, got...)
			if len(got) == 0 && next == enext {
				break
			}
			enext = next
		}
	}
	ops := genWalOps(600, 7)
	for i := range ops {
		if i == 300 {
			if info, err := r.Checkpoint(); err != nil || !info.Sealed {
				t.Fatalf("Checkpoint: %+v, %v", info, err)
			}
			if err := r.WALClose(); err != nil {
				t.Fatal(err)
			}
			fs.PersistRemoves()
			fs.Crash()
			rec, info, err := Recover(cfg)
			if err != nil || !info.FromCheckpoint {
				t.Fatalf("Recover: %+v, %v", info, err)
			}
			r = rec
			poll("after recovery")
		}
		applyWalOps(t, r, ops[i:i+1])
		poll(fmt.Sprintf("op %d", i))
	}
	r.Finish()
	poll("after Finish")
	defer r.WALClose()
	if st := r.EventLogStats(); st.Oldest == 0 {
		t.Fatalf("the window never moved (%+v): retention too large to evict", st)
	}
	var want []Event
	for _, ev := range events {
		if ev.Kind == sim.EventMatch {
			want = append(want, ev)
		}
	}
	if len(want) == 0 || !reflect.DeepEqual(matches, want) {
		t.Fatalf("the matches poller collected %d matches, the events poller %d match events", len(matches), len(want))
	}
	t.Logf("%d events, %d matches, %d Matches calls (%d empty with the cursor moving)", len(events), len(matches), polls, emptyRuns)
}
