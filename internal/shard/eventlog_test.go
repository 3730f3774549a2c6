package shard

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"
	"unsafe"

	"ftoa/internal/sim"
)

// refLog is the naive reference the event log is checked against: keep
// every appended event, and answer every question by sorting the lot by
// Seq and slicing the window out of it.
type refLog struct {
	capacity uint64
	base     uint64
	resumed  uint64 // head at the last resume: the frontier never waits below it
	all      []Event
}

func (m *refLog) append(evs []Event) { m.all = append(m.all, evs...) }

func (m *refLog) resume(base, head uint64) {
	m.base = base
	m.resumed = head
	for _, ev := range m.all {
		m.resumed = max(m.resumed, ev.Seq+1)
	}
}

// window returns the readable window [oldest, frontier) and the events in
// it. head is one past the highest seq appended (or resumed to), oldest
// is max(base, head-capacity), and frontier is the first seq at or above
// oldest that has not been appended yet.
func (m *refLog) window() (oldest, frontier uint64, evs []Event) {
	sorted := append([]Event(nil), m.all...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Seq < sorted[j].Seq })
	head := m.resumed
	if n := len(sorted); n > 0 {
		head = max(head, sorted[n-1].Seq+1)
	}
	oldest = m.base
	if m.capacity > 0 && head > m.capacity {
		oldest = max(oldest, head-m.capacity)
	}
	frontier = max(oldest, m.resumed)
	for _, ev := range sorted {
		if ev.Seq < oldest {
			continue
		}
		if ev.Seq < frontier || ev.Seq == frontier {
			evs = append(evs, ev)
			frontier = max(frontier, ev.Seq+1)
		}
	}
	return oldest, frontier, evs
}

// page returns the events of want (a window's events, Seq ascending) that
// a read from since with limit serves, and the cursor it hands back: the
// first limit events at or above since, else all of them and the frontier.
func page(want []Event, since uint64, limit int, frontier uint64) ([]Event, uint64) {
	i := sort.Search(len(want), func(i int) bool { return want[i].Seq >= since })
	if limit > 0 && len(want)-i > limit {
		return want[i : i+limit], want[i+limit-1].Seq + 1
	}
	return want[i:], max(since, frontier)
}

// checkLog compares every read the log serves with the reference, once
// for whole pages and once for their match events alone: the window, one
// unlimited read, a paged read, the fromOldest read, the eviction error
// just below the window and a cursor past the frontier.
func checkLog(t *testing.T, l *eventLog, m *refLog, limit int) {
	t.Helper()
	oldest, frontier, want := m.window()
	if got := l.oldest.Load(); got != oldest {
		t.Fatalf("oldest = %d, want %d", got, oldest)
	}
	if got := l.frontier.Load(); got != frontier {
		t.Fatalf("frontier = %d, want %d", got, frontier)
	}
	for _, matchesOnly := range []bool{false, true} {
		only := func(evs []Event) []Event {
			if matchesOnly {
				return matchEvents(evs)
			}
			return evs
		}
		got, next, err := l.read(oldest, false, matchesOnly, 0, nil)
		if err != nil || next != frontier || !sameEvents(got, only(want)) {
			t.Fatalf("matchesOnly=%v: read(%d) = %d events next %d err %v, want %d events next %d", matchesOnly, oldest, len(got), next, err, len(only(want)), frontier)
		}
		if got, next, _ := l.read(0, true, matchesOnly, 0, nil); next != frontier || !sameEvents(got, only(want)) {
			t.Fatalf("matchesOnly=%v: read from oldest = %d events next %d, want %d next %d", matchesOnly, len(got), next, len(only(want)), frontier)
		}
		var paged []Event
		for c := oldest; ; c = next {
			wpage, wnext := page(want, c, limit, frontier)
			before := len(paged)
			paged, next, err = l.read(c, false, matchesOnly, limit, paged)
			if err != nil || next != wnext || !sameEvents(paged[before:], only(wpage)) {
				t.Fatalf("matchesOnly=%v: read(%d, limit %d) = %d events next %d err %v, want %d next %d",
					matchesOnly, c, limit, len(paged)-before, next, err, len(only(wpage)), wnext)
			}
			if next == c {
				break
			}
		}
		if next != frontier || !sameEvents(paged, only(want)) {
			t.Fatalf("matchesOnly=%v: paged read = %d events up to %d, want %d up to the frontier %d", matchesOnly, len(paged), next, len(only(want)), frontier)
		}
		if oldest > 0 {
			if _, c, err := l.read(oldest-1, false, matchesOnly, 0, nil); err != ErrEvicted || c != oldest-1 {
				t.Fatalf("matchesOnly=%v: read(%d) = cursor %d err %v, want ErrEvicted and an unmoved cursor", matchesOnly, oldest-1, c, err)
			}
		}
		if got, c, err := l.read(frontier+7, false, matchesOnly, 0, nil); err != nil || len(got) != 0 || c != frontier+7 {
			t.Fatalf("matchesOnly=%v: read past the frontier = %d events cursor %d err %v, want nothing and an unmoved cursor", matchesOnly, len(got), c, err)
		}
	}
}

func sameEvents(a, b []Event) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// genStream returns n events with Seq 0..n-1, each assigned to one of
// `writers` shards, roughly every third one a match.
func genStream(rng *rand.Rand, n, writers int) []Event {
	evs := make([]Event, n)
	for i := range evs {
		kind := sim.EventWorkerExpired
		if rng.Intn(3) == 0 {
			kind = sim.EventMatch
		}
		evs[i] = Event{Seq: uint64(i), Shard: rng.Intn(writers), SessionEvent: sim.SessionEvent{Kind: kind, Worker: i, Task: -i, Time: float64(i)}}
	}
	return evs
}

// TestEventLogModelInterleaved: N writers draw sequence numbers from one
// counter and append their batches late and out of order, as racing
// shards do. After every few appends every read must equal the
// reference's, across several segments and with eviction running.
func TestEventLogModelInterleaved(t *testing.T) {
	for _, capacity := range []uint64{0, 7, 300, segSize, 2*segSize + 50} {
		rng := rand.New(rand.NewSource(int64(capacity) + 1))
		const writers = 5
		stream := genStream(rng, 4*segSize+123, writers)
		l, m := newEventLog(capacity), &refLog{capacity: capacity}
		pending := make([][]Event, writers)
		flush := func(w int) {
			if len(pending[w]) == 0 {
				return
			}
			l.append(pending[w])
			m.append(pending[w])
			pending[w] = pending[w][:0]
		}
		for i, ev := range stream {
			pending[ev.Shard] = append(pending[ev.Shard], ev)
			// Most batches flush promptly; some writers sit on theirs for
			// a long time, leaving holes the frontier must wait on.
			if w := rng.Intn(writers); rng.Intn(40) != 0 || len(pending[w]) > 60 {
				flush(w)
			}
			if i%211 == 0 {
				checkLog(t, l, m, 1+rng.Intn(200))
			}
		}
		for w := range pending {
			flush(w)
			checkLog(t, l, m, 64)
		}
		if _, frontier, _ := m.window(); frontier != uint64(len(stream)) {
			t.Fatalf("capacity %d: final frontier %d, want the whole stream %d", capacity, frontier, len(stream))
		}
		if capacity > 0 {
			if live := uint64(len(l.segs)); live > capacity/segSize+2 {
				t.Fatalf("capacity %d: %d live segments, want whole segments freed below the window", capacity, live)
			}
		}
	}
}

// TestEventLogEvictionAcrossHole: the window moves past a sequence number
// that was never appended. The frontier must be dragged over the hole,
// and the straggler, when it finally arrives, is outside the window.
func TestEventLogEvictionAcrossHole(t *testing.T) {
	l, m := newEventLog(4), &refLog{capacity: 4}
	one := func(seq uint64) []Event {
		return []Event{{Seq: seq, SessionEvent: sim.SessionEvent{Kind: sim.EventMatch}}}
	}
	for _, seq := range []uint64{0, 1, 3, 4, 5} {
		l.append(one(seq))
		m.append(one(seq))
		checkLog(t, l, m, 2)
	}
	// head 6, window [2,6): the hole at 2 is its first slot.
	if st := (EventLogStats{Oldest: l.oldest.Load(), Frontier: l.frontier.Load()}); st.Oldest != 2 || st.Frontier != 2 {
		t.Fatalf("window = [%d,%d), want [2,2) stuck on the hole", st.Oldest, st.Frontier)
	}
	l.append(one(6)) // window [3,7): the hole is evicted
	m.append(one(6))
	checkLog(t, l, m, 2)
	if f := l.frontier.Load(); f != 7 {
		t.Fatalf("frontier = %d, want 7 once the hole left the window", f)
	}
	l.append(one(2)) // the straggler: a match that is never readable
	m.append(one(2))
	checkLog(t, l, m, 2)
	if ms, next, _ := l.read(0, true, true, 0, nil); len(ms) != 4 || ms[0].Seq != 3 || next != 7 {
		t.Fatalf("matches from oldest = %d up to %d, want the 4 of [3,7) without the straggler", len(ms), next)
	}
}

// TestEventLogRecoverOrder: WAL replay appends one shard's whole history,
// then the next shard's — far out of order — and then resumes. The log
// must end up with the same window, events and matches as the
// uninterrupted run, whatever eviction did on the way.
func TestEventLogRecoverOrder(t *testing.T) {
	for _, capacity := range []uint64{0, 100, segSize + 17} {
		rng := rand.New(rand.NewSource(int64(capacity) + 99))
		const writers = 4
		stream := genStream(rng, 3*segSize+40, writers)
		live := newEventLog(capacity)
		for i := range stream {
			live.append(stream[i : i+1])
		}

		rec, m := newEventLog(capacity), &refLog{capacity: capacity}
		for w := 0; w < writers; w++ {
			var batch []Event
			for _, ev := range stream {
				if ev.Shard != w {
					continue
				}
				if batch = append(batch, ev); len(batch) == 3 {
					rec.append(batch)
					m.append(batch)
					batch = batch[:0]
				}
			}
			if len(batch) > 0 {
				rec.append(batch)
				m.append(batch)
			}
		}
		head := uint64(len(stream))
		rec.resume(0, head)
		m.resume(0, head)
		checkLog(t, rec, m, 100)

		if rec.oldest.Load() != live.oldest.Load() || rec.frontier.Load() != head || live.frontier.Load() != head {
			t.Fatalf("capacity %d: recovered window [%d,%d), uninterrupted [%d,%d)", capacity,
				rec.oldest.Load(), rec.frontier.Load(), live.oldest.Load(), live.frontier.Load())
		}
		for _, matchesOnly := range []bool{false, true} {
			got, _, _ := rec.read(0, true, matchesOnly, 0, nil)
			want, _, _ := live.read(0, true, matchesOnly, 0, nil)
			if !sameEvents(got, want) {
				t.Fatalf("capacity %d, matchesOnly=%v: recovered log serves %d events, uninterrupted %d", capacity, matchesOnly, len(got), len(want))
			}
		}
	}
}

// TestEventLogResumeTornTail: a crash loses one shard's unsynced tail, so
// some sequence numbers below the recovered head never come back, and a
// checkpoint generation starts the readable window at its sequence base.
// Readers skip the holes; appends continue at the head.
func TestEventLogResumeTornTail(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	stream := genStream(rng, segSize+200, 3)
	const base = 40
	l, m := newEventLog(0), &refLog{}
	var kept []Event
	for _, ev := range stream[base:] {
		if ev.Shard == 1 && ev.Seq >= segSize-30 {
			continue // shard 1's tail was never synced
		}
		kept = append(kept, ev)
	}
	l.append(kept)
	m.append(kept)
	head := uint64(len(stream))
	l.resume(base, head)
	m.resume(base, head)
	checkLog(t, l, m, 50)
	if l.oldest.Load() != base || l.frontier.Load() != head {
		t.Fatalf("resumed window [%d,%d), want [%d,%d)", l.oldest.Load(), l.frontier.Load(), base, head)
	}
	next := []Event{{Seq: head, SessionEvent: sim.SessionEvent{Kind: sim.EventMatch}}}
	l.append(next)
	m.append(next)
	checkLog(t, l, m, 50)
	if f := l.frontier.Load(); f != head+1 {
		t.Fatalf("frontier %d after the first live append, want %d", f, head+1)
	}
}

// TestEventLogSteadyStateAllocs: once the window is full, appending — new
// segments included — and reading a page into a buffer that has room for
// it do not allocate.
func TestEventLogSteadyStateAllocs(t *testing.T) {
	const capacity = 2*segSize + 100
	l := newEventLog(capacity)
	sub := &EventSub{l: l}
	batch := make([]Event, 4)
	var seq uint64
	appendOne := func() {
		for i := range batch {
			batch[i] = Event{Seq: seq, SessionEvent: sim.SessionEvent{Kind: sim.EventMatch}}
			seq++
		}
		l.append(batch)
	}
	for seq < 2*capacity {
		appendOne()
	}
	// One run appends a whole segment's worth, so it opens a new segment
	// and frees an old one every time.
	if n := testing.AllocsPerRun(5, func() {
		for i := 0; i < segSize/len(batch); i++ {
			appendOne()
		}
	}); n != 0 {
		t.Errorf("steady-state append allocates %.0f times per segment of events, want 0", n)
	}
	dst := make([]Event, 0, 128)
	sub.cursor = l.oldest.Load()
	var total int
	if n := testing.AllocsPerRun(8, func() {
		out, _, err := sub.Next(128, dst[:0])
		if err != nil {
			t.Fatal(err)
		}
		total += len(out)
	}); n != 0 {
		t.Errorf("Next into a pre-sized dst allocates %.2f times per page, want 0", n)
	}
	if total != 9*128 { // AllocsPerRun adds one warm-up run
		t.Errorf("Next read %d events over 9 pages, want full pages", total)
	}
}

// TestEventSubWaitReusesTimer: a subscription keeps one timer across its
// waits. Over a thousand 1 ms timeouts alternating with append-triggered
// wakeups, a fire left from an earlier wait never cuts a later one short:
// a wakeup never reports false, a timeout never reports true with nothing
// appended, and a wait allocates nothing.
func TestEventSubWaitReusesTimer(t *testing.T) {
	l := newEventLog(4)
	sub := &EventSub{l: l, notify: make(chan struct{}, 1)}
	l.subs[sub] = struct{}{}
	ev := make([]Event, 1)
	var seq uint64
	appendOne := func() {
		ev[0] = Event{Seq: seq, SessionEvent: sim.SessionEvent{Kind: sim.EventMatch}}
		seq++
		l.append(ev)
	}
	// Two segments' worth first, so later appends reuse a freed segment.
	for seq < 2*segSize {
		appendOne()
	}
	sub.cursor = seq
	kick, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for range kick {
			// Append only once the waiter is parked, so the wakeup comes
			// through the notification rather than Wait's first check.
			for !sub.armed.Load() {
				runtime.Gosched()
			}
			appendOne()
		}
	}()
	defer func() {
		close(kick)
		<-done
	}()
	page := make([]Event, 0, 4)
	cycle := func() {
		if sub.Wait(time.Millisecond, nil) {
			t.Fatal("a 1 ms wait with nothing appended reported true")
		}
		kick <- struct{}{}
		if !sub.Wait(time.Minute, nil) {
			t.Fatal("an append-triggered wakeup reported false")
		}
		got, _, err := sub.Next(0, page[:0])
		if err != nil || len(got) != 1 {
			t.Fatalf("Next after a wakeup = %d events, %v; want the one appended", len(got), err)
		}
	}
	for i := 0; i < 1000; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(50, cycle); n != 0 {
		t.Errorf("a timeout plus a wakeup allocates %.2f times, want 0", n)
	}
}

// TestEventLogFootprint: a retained event costs its 32-byte record plus
// its share of a segment header. The record array fills the 32 KiB size
// class exactly, so no page slack rides along with it.
func TestEventLogFootprint(t *testing.T) {
	if n := unsafe.Sizeof([segSize]record{}); n != 32<<10 {
		t.Fatalf("a segment's records take %d bytes, want exactly 32 KiB", n)
	}
	const events = 64 * segSize
	l := newEventLog(0)
	batch := make([]Event, 64)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for seq := uint64(0); seq < events; {
		for i := range batch {
			batch[i] = Event{Seq: seq, Shard: i, SessionEvent: sim.SessionEvent{Kind: sim.EventMatch, Worker: int(seq), Task: int(seq)}}
			seq++
		}
		l.append(batch)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perEvent := float64(int64(after.HeapInuse)-int64(before.HeapInuse)) / events
	t.Logf("%.2f B of HeapInuse per retained event", perEvent)
	if perEvent > 33 {
		t.Errorf("retaining %d events costs %.2f B of HeapInuse each, want at most 33", events, perEvent)
	}
	runtime.KeepAlive(l)
}

// TestEventLogRecordRoundTrip: events at the edges of what a record holds
// — all three kinds, the -1 side of each expiry, handles and shard ids at
// MaxInt32, a negative zero, a subnormal and a huge Time — read back
// exactly through Events, a subscription and Matches.
func TestEventLogRecordRoundTrip(t *testing.T) {
	const big = math.MaxInt32
	in := []Event{
		{Seq: 0, Shard: big, SessionEvent: sim.SessionEvent{Kind: sim.EventMatch, Worker: big, Task: big, Time: 1e300}, WorkerShard: big, TaskShard: big},
		{Seq: 1, Shard: big, SessionEvent: sim.SessionEvent{Kind: sim.EventWorkerExpired, Worker: big, Task: -1, Time: math.Copysign(0, -1)}, WorkerShard: big, TaskShard: -1},
		{Seq: 2, Shard: 0, SessionEvent: sim.SessionEvent{Kind: sim.EventTaskExpired, Worker: -1, Task: big, Time: math.SmallestNonzeroFloat64}, WorkerShard: -1, TaskShard: 0},
		{Seq: 3, Shard: 7, SessionEvent: sim.SessionEvent{Kind: sim.EventMatch, Worker: 0, Task: 0, Time: 0}, WorkerShard: 5, TaskShard: 6},
	}
	r, err := NewRouter(testConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	r.log.append(in)
	r.seq.Store(uint64(len(in)))
	var matches []Event
	for _, ev := range in {
		if ev.Kind == sim.EventMatch {
			matches = append(matches, ev)
		}
	}
	same := func(via string, got, want []Event) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s read back %+v, want %+v", via, got, want)
		}
		for i := range got {
			if math.Float64bits(got[i].Time) != math.Float64bits(want[i].Time) {
				t.Fatalf("%s: event %d Time bits %#x, want %#x", via, i, math.Float64bits(got[i].Time), math.Float64bits(want[i].Time))
			}
		}
	}
	got, _, err := r.Events(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	same("Events", got, in)
	sub := r.Subscribe(0)
	defer sub.Close()
	if got, _, err = sub.Next(0, nil); err != nil {
		t.Fatal(err)
	}
	same("EventSub.Next", got, in)
	if got, _, err = r.Matches(0, 0, nil); err != nil {
		t.Fatal(err)
	}
	same("Matches", got, matches)
}

// BenchmarkEventLogAppend prices the append collectLocked makes for every
// emission batch, subscribed or not: 4-event batches into a bounded log
// at steady state (eviction and segment reuse running).
func BenchmarkEventLogAppend(b *testing.B) {
	l := newEventLog(1 << 16)
	batch := make([]Event, 4)
	var seq uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			batch[j] = Event{Seq: seq, Shard: j, SessionEvent: sim.SessionEvent{Kind: sim.EventMatch, Worker: i, Task: i}}
			seq++
		}
		l.append(batch)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batch)), "ns/event")
}
