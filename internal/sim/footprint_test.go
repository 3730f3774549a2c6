package sim

import (
	"runtime"
	"testing"
	"unsafe"

	"ftoa/internal/geo"
	"ftoa/internal/model"
)

// TestSessionFootprint: what one admission leaves in a session until the
// next retirement. A worker is its model.Worker, a 16-byte workerState and
// a 4-byte deadline entry; the 48-byte motion entry comes only with its
// first Dispatch. A task is its model.Task, three flags and a commit time,
// and a 4-byte deadline entry. The arenas grow in whole pages and the
// count fills its last one, so the heap measured is what the records cost
// plus the deadline queue's append slack (under half a byte an entry).
func TestSessionFootprint(t *testing.T) {
	var q expiryQueue
	if ws, me, de := unsafe.Sizeof(workerState{}), unsafe.Sizeof(motionEntry{}), unsafe.Sizeof(q.fifo[0]); ws != 16 || me != 48 || de != 4 {
		t.Fatalf("worker record %d B, motion entry %d B, deadline entry %d B; want 16, 48 and 4", ws, me, de)
	}
	const n = 1 << 16
	perAdmission := func(admit func(s *Session, i int)) float64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s := retireSession(t, Strict, &retirableScript{scriptAlg: scriptAlg{name: "noop"}})
		for i := 0; i < n; i++ {
			admit(s, i)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(s)
		return float64(int64(after.HeapInuse)-int64(before.HeapInuse)) / n
	}
	loc := func(i int) geo.Point { return geo.Pt(float64(i%100), float64(i/100%100)) }

	worker := perAdmission(func(s *Session, i int) {
		mustAddWorker(t, s, model.Worker{ID: i, Loc: loc(i), Arrive: float64(i), Patience: 1e9})
	})
	task := perAdmission(func(s *Session, i int) {
		mustAddTask(t, s, model.Task{ID: i, Loc: loc(i), Release: float64(i), Expiry: 1e9})
	})
	t.Logf("%.2f B of HeapInuse per waiting worker, %.2f B per task", worker, task)
	if worker > 61 {
		t.Errorf("%d undispatched workers cost %.2f B of HeapInuse each, want at most 61", n, worker)
	}
	if task > 55 {
		t.Errorf("%d tasks cost %.2f B of HeapInuse each, want at most 55", n, task)
	}
}

// TestRetireCompactsMotionTable: a retirement leaves the motion table
// holding exactly the surviving dispatched workers' entries, in their old
// relative order, each naming its worker's new handle and named by it, so
// the table shrinks with the population it serves.
func TestRetireCompactsMotionTable(t *testing.T) {
	s := retireSession(t, Strict, &retirableScript{scriptAlg: scriptAlg{name: "noop"}})
	var wantLoc []geo.Point // surviving dispatched workers' arrival points, in order
	for i := 0; i < 24; i++ {
		// Patience 1 for every third worker: those expire before the
		// retirement at t=5.
		h := mustAddWorker(t, s, model.Worker{ID: i, Loc: geo.Pt(float64(i), 0), Patience: float64(1 + i%3*10)})
		if i%2 == 0 {
			s.Dispatch(h, geo.Pt(float64(i), 50), 0)
			if i%3 != 0 {
				wantLoc = append(wantLoc, geo.Pt(float64(i), 0))
			}
		}
	}
	if s.motion.Len() != 12 {
		t.Fatalf("%d motion entries for 12 dispatched workers", s.motion.Len())
	}
	s.Advance(5)
	if w, _ := s.Retire(5); w != 8 {
		t.Fatalf("retired %d workers, want the 8 expired", w)
	}
	if s.motion.Len() != len(wantLoc) {
		t.Fatalf("%d motion entries after the retirement, want %d", s.motion.Len(), len(wantLoc))
	}
	for i := range s.motion.Len() {
		m := s.motion.At(i)
		if ws := s.wstate.At(int(m.worker)); ws.motion != int32(i) || s.Worker(int(m.worker)).Loc != wantLoc[i] {
			t.Fatalf("entry %d names worker %d (motion %d, arrived at %v), want the worker that arrived at %v",
				i, m.worker, ws.motion, s.Worker(int(m.worker)).Loc, wantLoc[i])
		}
		if got := s.WorkerPos(int(m.worker), 5); got != geo.Pt(wantLoc[i].X, 5) {
			t.Fatalf("worker %d at %v after the retirement, want %v", m.worker, got, geo.Pt(wantLoc[i].X, 5))
		}
	}
}
