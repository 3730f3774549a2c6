package wire

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"
)

// TestClientWindowLifecycle: the four lookup states, receipt replay, and
// the rule that BUSY (retryable) is never recorded.
func TestClientWindowLifecycle(t *testing.T) {
	tb := NewDedupTable(4, 2)
	w, err := tb.Acquire(7)
	if err != nil {
		t.Fatal(err)
	}
	w.Lock()
	defer w.Unlock()

	if _, st := w.Lookup(0); st != DedupInvalid {
		t.Fatalf("seq 0 state = %v, want DedupInvalid", st)
	}
	if _, st := w.Lookup(1); st != DedupNew {
		t.Fatalf("fresh seq state = %v, want DedupNew", st)
	}
	w.Record(1, Result{Status: StatusOK, Local: 11})
	rec, st := w.Lookup(1)
	if st != DedupHit || rec.Local != 11 {
		t.Fatalf("recorded seq = %+v/%v, want replayed receipt", rec, st)
	}
	// An error outcome is terminal too: replay it, don't re-execute.
	w.Record(2, Result{Status: StatusErr, Msg: "bad window"})
	if rec, st := w.Lookup(2); st != DedupHit || rec.Msg != "bad window" {
		t.Fatalf("recorded error = %+v/%v, want replayed", rec, st)
	}
	// BUSY is backpressure, not an outcome: a retry with the same seq must
	// execute fresh.
	w.Record(3, Result{Status: StatusBusy, RetryAfter: 0.1})
	if _, st := w.Lookup(3); st != DedupNew {
		t.Fatalf("BUSY seq state = %v, want DedupNew (never recorded)", st)
	}
	// Seq 0 is the unassigned sentinel and must never enter the window.
	w.Record(0, Result{Status: StatusOK})
	if _, st := w.Lookup(0); st != DedupInvalid {
		t.Fatalf("seq 0 after Record = %v, want DedupInvalid", st)
	}
}

// TestClientWindowSlide: recording past the bound forgets the oldest
// seqs, and a forgotten seq is refused (DedupOverrun) — its outcome is
// unknowable, so the server must never guess.
func TestClientWindowSlide(t *testing.T) {
	tb := NewDedupTable(4, 1)
	w, err := tb.Acquire(1)
	if err != nil {
		t.Fatal(err)
	}
	w.Lock()
	defer w.Unlock()
	for seq := uint64(1); seq <= 10; seq++ {
		w.Record(seq, Result{Status: StatusOK, Local: uint32(seq)})
	}
	// window=4, maxSeq=10: seqs <= 6 are forgotten, 7..10 replayable.
	for seq := uint64(1); seq <= 6; seq++ {
		if _, st := w.Lookup(seq); st != DedupOverrun {
			t.Fatalf("seq %d state = %v, want DedupOverrun", seq, st)
		}
	}
	for seq := uint64(7); seq <= 10; seq++ {
		if rec, st := w.Lookup(seq); st != DedupHit || rec.Local != uint32(seq) {
			t.Fatalf("seq %d = %+v/%v, want retained hit", seq, rec, st)
		}
	}
	if _, st := w.Lookup(11); st != DedupNew {
		t.Fatalf("next seq state = %v, want DedupNew", st)
	}
}

// TestDedupTableLRUEviction: at the client bound the least-recently
// acquired window is evicted, and a returning evicted client starts with
// an empty window (its old receipts are gone, which Lookup reports as
// DedupNew — the op re-executes, the accepted cost of bounded memory).
func TestDedupTableLRUEviction(t *testing.T) {
	tb := NewDedupTable(8, 2)
	w1, _ := tb.Acquire(1)
	w1.Lock()
	w1.Record(5, Result{Status: StatusOK})
	w1.Unlock()
	if w2, _ := tb.Acquire(2); w2 == nil {
		t.Fatal("second client refused below the bound")
	}
	// Client 1 is now LRU; admitting client 3 evicts it.
	if _, err := tb.Acquire(3); err != nil {
		t.Fatal(err)
	}
	if n := tb.Clients(); n != 2 {
		t.Fatalf("clients = %d, want 2 after eviction", n)
	}
	w1b, err := tb.Acquire(1)
	if err != nil {
		t.Fatal(err)
	}
	if w1b == w1 {
		t.Fatal("evicted client got its old window back")
	}
	w1b.Lock()
	if _, st := w1b.Lookup(5); st != DedupNew {
		t.Fatalf("returning client's old seq = %v, want DedupNew (window was evicted)", st)
	}
	w1b.Unlock()

	// Re-acquiring a live client returns the same window, receipts intact.
	wA, _ := tb.Acquire(42)
	wA.Lock()
	wA.Record(1, Result{Status: StatusOK, Local: 99})
	wA.Unlock()
	wB, _ := tb.Acquire(42)
	if wA != wB {
		t.Fatal("re-acquire built a new window for a live client")
	}
}

// TestDedupTableFullWhenAllBusy: a window mid-batch (lock held) is never
// evicted; when every window is busy Acquire refuses instead of breaking
// an active client's exactly-once guarantee.
func TestDedupTableFullWhenAllBusy(t *testing.T) {
	tb := NewDedupTable(8, 1)
	w, err := tb.Acquire(1)
	if err != nil {
		t.Fatal(err)
	}
	w.Lock()
	if _, err := tb.Acquire(2); !errors.Is(err, ErrClientTableFull) {
		t.Fatalf("acquire with all windows busy = %v, want ErrClientTableFull", err)
	}
	w.Unlock()
	if _, err := tb.Acquire(2); err != nil {
		t.Fatalf("acquire after batch finished: %v", err)
	}
}

// mapWindow is the map-backed window ClientWindow replaced (sweep and
// all), kept as the reference for lookup semantics.
type mapWindow struct {
	window int
	maxSeq uint64
	recs   map[uint64]Result
}

func (w *mapWindow) lookup(seq uint64) (Result, DedupState) {
	if seq == 0 {
		return Result{}, DedupInvalid
	}
	if r, ok := w.recs[seq]; ok {
		return r, DedupHit
	}
	if w.maxSeq >= uint64(w.window) && seq <= w.maxSeq-uint64(w.window) {
		return Result{}, DedupOverrun
	}
	return Result{}, DedupNew
}

func (w *mapWindow) record(seq uint64, res Result) {
	if seq == 0 || res.Status == StatusBusy {
		return
	}
	w.recs[seq] = res
	if seq > w.maxSeq {
		w.maxSeq = seq
	}
	if len(w.recs) > w.window {
		floor := w.maxSeq - uint64(w.window)
		for s := range w.recs {
			if s <= floor {
				delete(w.recs, s)
			}
		}
	}
}

// check compares one Lookup with the model. Inside the window the two
// must agree exactly. At or below the floor the ring always refuses; the
// map refused too once a sweep had run, and until then replayed whatever
// it had not yet swept.
func (w *mapWindow) check(t *testing.T, cw *ClientWindow, seq uint64) {
	t.Helper()
	gotRes, got := cw.Lookup(seq)
	wantRes, want := w.lookup(seq)
	if w.maxSeq >= uint64(w.window) && seq <= w.maxSeq-uint64(w.window) {
		wantRes, want = Result{}, DedupOverrun
	}
	if got != want || gotRes != wantRes {
		t.Fatalf("window %d: Lookup(%d) = %+v/%v, model %+v/%v", w.window, seq, gotRes, got, wantRes, want)
	}
}

// TestClientWindowMatchesMapModel drives the ring and the map model with
// the traffic a resilient client produces — seqs assigned in order,
// completed out of order within a batch, batches resent, a few seqs never
// completed (BUSY) — and requires identical answers for every seq inside
// the window, and a refusal for every seq the window has slid past.
func TestClientWindowMatchesMapModel(t *testing.T) {
	for _, window := range []int{1, 4, 16, 100, 256} {
		rng := rand.New(rand.NewSource(int64(window)))
		tb := NewDedupTable(window, 1)
		w, _ := tb.Acquire(1)
		w.Lock()
		model := &mapWindow{window: window, recs: make(map[uint64]Result)}
		next := uint64(1)
		for round := 0; round < 400; round++ {
			batch := make([]uint64, 1+rng.Intn(min(window, 64)))
			for i := range batch {
				batch[i] = next
				next++
			}
			if rng.Intn(4) == 0 && next > uint64(len(batch))+8 {
				// A resend of an older batch rides along.
				old := next - uint64(len(batch)) - uint64(rng.Intn(8)) - 1
				batch = append(batch, old, old+1)
			}
			for _, seq := range batch {
				model.check(t, w, seq)
			}
			rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
			for _, seq := range batch {
				if _, st := w.Lookup(seq); st != DedupNew {
					continue // handleBatch only executes and records fresh seqs
				}
				res := Result{Status: StatusOK, Local: uint32(seq), Epoch: uint64(round)}
				if rng.Intn(16) == 0 {
					res.Status = StatusBusy
				}
				w.Record(seq, res)
				model.record(seq, res)
			}
			// Probe the whole neighbourhood: retained, forgotten, future.
			lo := uint64(1)
			if next > uint64(3*window) {
				lo = next - uint64(3*window)
			}
			for seq := lo; seq < next+3; seq++ {
				model.check(t, w, seq)
			}
			if len(w.ring) > window {
				t.Fatalf("window %d: ring grew to %d slots", window, len(w.ring))
			}
		}
		w.Unlock()
	}
}

// TestClientWindowSeqJumps: a client that jumps its seq by far more than
// the window (hostile, or a restarted counter) costs one slot write, not
// a walk over the gap; what the jump forgets is refused, never guessed.
func TestClientWindowSeqJumps(t *testing.T) {
	const window = 64
	tb := NewDedupTable(window, 1)
	w, _ := tb.Acquire(1)
	w.Lock()
	defer w.Unlock()
	for seq := uint64(1); seq <= 10; seq++ {
		w.Record(seq, Result{Status: StatusOK, Local: uint32(seq)})
	}
	small := len(w.ring)
	if small == 0 || small > 16 {
		t.Fatalf("10 records hold %d slots, want a small ring", small)
	}
	far := uint64(1) << 63
	w.Record(far, Result{Status: StatusOK, Local: 7})
	if len(w.ring) != small {
		t.Fatalf("a far jump grew the ring from %d to %d slots", small, len(w.ring))
	}
	if r, st := w.Lookup(far); st != DedupHit || r.Local != 7 {
		t.Fatalf("Lookup(far) = %+v/%v, want the recorded hit", r, st)
	}
	// Everything the jump left behind is refused, never fresh again.
	for seq := uint64(1); seq <= 200; seq++ {
		if r, st := w.Lookup(seq); st != DedupOverrun {
			t.Fatalf("Lookup(%d) after the jump = %+v/%v, want DedupOverrun", seq, r, st)
		}
	}
	// Recording a forgotten seq must not disturb a remembered one.
	w.Record(far-window, Result{Status: StatusOK, Local: 99})
	if r, st := w.Lookup(far); st != DedupHit || r.Local != 7 {
		t.Fatalf("Lookup(far) after a stale Record = %+v/%v", r, st)
	}
	// Alternating between distant seqs keeps overwriting, never growing.
	for i := uint64(0); i < 10000; i++ {
		w.Record(far+i*(1<<40), Result{Status: StatusOK})
	}
	if len(w.ring) > window {
		t.Fatalf("ring grew to %d slots, window %d", len(w.ring), window)
	}
	if _, st := w.Lookup(far + 9999*(1<<40)); st != DedupHit {
		t.Fatalf("latest seq not remembered: %v", st)
	}
}

// fullWindow returns a locked window that has slid well past its size.
func fullWindow(tb testing.TB) (*ClientWindow, uint64) {
	w, err := NewDedupTable(DefaultDedupWindow, 1).Acquire(1)
	if err != nil {
		tb.Fatal(err)
	}
	w.Lock()
	seq := uint64(1)
	for ; seq <= 3*DefaultDedupWindow; seq++ {
		w.Record(seq, Result{Status: StatusOK, Local: uint32(seq)})
	}
	if len(w.ring) != DefaultDedupWindow {
		tb.Fatalf("full window holds %d slots, want %d", len(w.ring), DefaultDedupWindow)
	}
	return w, seq
}

// TestClientWindowRecordNoAllocs: at a full window, recording neither
// allocates nor (see BenchmarkClientWindowRecord) scans.
func TestClientWindowRecordNoAllocs(t *testing.T) {
	w, seq := fullWindow(t)
	defer w.Unlock()
	allocs := testing.AllocsPerRun(1000, func() {
		w.Record(seq, Result{Status: StatusOK, Local: uint32(seq)})
		seq++
	})
	if allocs != 0 {
		t.Errorf("Record at a full window allocates %v per call, want 0", allocs)
	}
}

// TestClientWindowMessagesLeaveWithTheirSlots: an ERR's text is kept
// beside the ring only while its record is, so a client whose every
// request fails holds at most a window of messages, and each remembered
// seq replays exactly the Result recorded for it.
func TestClientWindowMessagesLeaveWithTheirSlots(t *testing.T) {
	const window = 64
	w, _ := NewDedupTable(window, 1).Acquire(1)
	w.Lock()
	defer w.Unlock()
	res := func(seq uint64) Result {
		if seq%3 == 0 {
			return Result{Kind: ReqAddWorker, Status: StatusOK, Shard: 2, Local: uint32(seq), Epoch: seq, Time: float64(seq) / 7}
		}
		return Result{Kind: ReqWithdrawTask, Status: StatusErr, Msg: fmt.Sprint("refused ", seq)}
	}
	for seq := uint64(1); seq <= 10*window; seq += 1 + seq%2 {
		w.Record(seq, res(seq))
		if len(w.msgs) > len(w.ring) {
			t.Fatalf("after seq %d: %d messages for a ring of %d slots", seq, len(w.msgs), len(w.ring))
		}
	}
	for seq := uint64(9*window + 1); seq <= 10*window; seq += 1 + seq%2 {
		if got, st := w.Lookup(seq); st != DedupHit || got != res(seq) {
			t.Fatalf("Lookup(%d) = %+v/%v, recorded %+v", seq, got, st, res(seq))
		}
	}
}

// TestClientWindowFootprint: a remembered seq costs its 40-byte ring slot
// and nothing else, so a full window of DefaultDedupWindow records is
// 320 KiB per client.
func TestClientWindowFootprint(t *testing.T) {
	if n := unsafe.Sizeof(dedupRecord{}); n != 40 {
		t.Fatalf("a dedup record takes %d bytes, want 40", n)
	}
	const clients = 16
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	windows := make([]*ClientWindow, clients)
	for i := range windows {
		windows[i], _ = fullWindow(t)
		windows[i].Unlock()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perRecord := float64(int64(after.HeapInuse)-int64(before.HeapInuse)) / (clients * DefaultDedupWindow)
	t.Logf("%.2f B of HeapInuse per remembered seq", perRecord)
	if perRecord > 41 {
		t.Errorf("%d full windows of %d seqs cost %.2f B of HeapInuse per seq, want at most 41", clients, DefaultDedupWindow, perRecord)
	}
	runtime.KeepAlive(windows)
}

func BenchmarkClientWindowRecord(b *testing.B) {
	w, seq := fullWindow(b)
	defer w.Unlock()
	b.ReportAllocs()
	for b.Loop() {
		w.Record(seq, Result{Status: StatusOK, Local: uint32(seq)})
		seq++
	}
}
