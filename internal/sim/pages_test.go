package sim

import (
	"math"
	"testing"

	"ftoa/internal/geo"
	"ftoa/internal/model"
)

// TestPagesPushTruncate: entries land at dense indexes across page
// boundaries, growth never moves one, and Truncate zeroes what it drops
// while keeping the pages for the next pushes.
func TestPagesPushTruncate(t *testing.T) {
	var p Pages[int]
	if p.Len() != 0 || p.PageCount() != 0 {
		t.Fatalf("zero table: len %d, %d pages", p.Len(), p.PageCount())
	}
	const n = 3*pageLen + 7
	var first *int
	for i := range n {
		if h := p.Push(i * 10); h != i {
			t.Fatalf("push %d returned index %d", i, h)
		}
		if i == 0 {
			first = p.At(0)
		}
	}
	if p.Len() != n || p.PageCount() != 4 {
		t.Fatalf("%d entries in %d pages, want %d in 4", p.Len(), p.PageCount(), n)
	}
	if p.At(0) != first {
		t.Fatal("growth moved entry 0")
	}
	for i := range n {
		if *p.At(i) != i*10 {
			t.Fatalf("entry %d = %d, want %d", i, *p.At(i), i*10)
		}
	}
	p.Truncate(pageLen - 1)
	if p.Len() != pageLen-1 || p.PageCount() != 4 {
		t.Fatalf("truncated to %d entries in %d pages, want %d in 4", p.Len(), p.PageCount(), pageLen-1)
	}
	for i := pageLen - 1; i < n; i++ {
		if v := p.dir[i>>pageShift][i&pageMask]; v != 0 {
			t.Fatalf("dropped entry %d still holds %d", i, v)
		}
	}
	for i := pageLen - 1; i < n; i++ {
		p.Push(-i)
	}
	if p.PageCount() != 4 || *p.At(n - 1) != -(n-1) || *p.At(pageLen - 2) != (pageLen-2)*10 {
		t.Fatalf("refill: %d pages, last %d, kept %d", p.PageCount(), *p.At(n - 1), *p.At(pageLen - 2))
	}
	for _, bad := range []func(){
		func() { p.At(n) },
		func() { p.At(-1) },
		func() { p.Truncate(n + 1) },
		func() { p.Truncate(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range access did not panic")
				}
			}()
			bad()
		}()
	}
}

// TestPagesRefit: a table frees pages only past the refit floor and
// refitSlack times the ending epoch's use, keeps refitHeadroom times that
// use, never goes below its length, and leaves the kept entries in place.
func TestPagesRefit(t *testing.T) {
	fill := func(n int) *Pages[int32] {
		var p Pages[int32]
		for i := range n {
			p.Push(int32(i))
		}
		return &p
	}
	floorPages := refitFloor / pageLen
	for _, c := range []struct {
		name         string
		pages, used  int
		keep         int // pages after the refit
		len, trimmed int // entries before, and kept by Truncate first
	}{
		{"at the floor", floorPages, 0, floorPages, refitFloor, 0},
		{"within the slack", 40, 10 * pageLen, 40, 40 * pageLen, 0},
		{"a burst gone", 40, 6 * pageLen, 12, 40 * pageLen, 0},
		{"a burst gone, floor kept", 40, 10, floorPages, 40 * pageLen, 10},
		{"length beats use", 40, 0, 16, 40 * pageLen, 8 * pageLen},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := fill(c.len)
			if p.PageCount() != c.pages {
				t.Fatalf("%d entries fill %d pages, want %d", c.len, p.PageCount(), c.pages)
			}
			p.Truncate(c.trimmed)
			var kept *int32
			if c.trimmed > 0 {
				kept = p.At(0)
			}
			if got := p.Refit(c.used); got != (c.keep != c.pages) || p.PageCount() != c.keep {
				t.Fatalf("Refit(%d) = %v leaving %d pages, want %d", c.used, got, p.PageCount(), c.keep)
			}
			if p.Len() != c.trimmed {
				t.Fatalf("refit changed the length from %d to %d", c.trimmed, p.Len())
			}
			for i := range p.Len() {
				if *p.At(i) != int32(i) {
					t.Fatalf("entry %d = %d after the refit", i, *p.At(i))
				}
			}
			if kept != nil && p.At(0) != kept {
				t.Fatal("refit moved a kept entry")
			}
			// The freed pages come back on demand.
			for p.Len() < c.pages*pageLen {
				p.Push(1)
			}
			if p.PageCount() != c.pages {
				t.Fatalf("refilled to %d pages, want %d", p.PageCount(), c.pages)
			}
		})
	}
}

// TestPagesSteadyStateDoesNotAllocate: a table cycled within the pages it
// already holds — filled, emptied, filled again, refitted at its own use —
// allocates nothing.
func TestPagesSteadyStateDoesNotAllocate(t *testing.T) {
	var p Pages[model.Worker]
	const n = 5*pageLen + 3
	for range n {
		p.Push(model.Worker{})
	}
	if avg := testing.AllocsPerRun(20, func() {
		p.Truncate(0)
		for i := range n {
			p.Push(model.Worker{ID: i})
		}
		p.Refit(n)
		_ = p.At(n - 1).ID
	}); avg != 0 {
		t.Fatalf("%.1f allocations per steady-state cycle, want 0", avg)
	}
}

// TestWorkerPointerSurvivesGrowth: Platform.Worker promises the pointer
// stays valid for the session (absent retirements), so admissions that grow
// the arenas many times over must leave it naming the live record.
func TestWorkerPointerSurvivesGrowth(t *testing.T) {
	s := testMatcher(t, Strict, Hints{}, nil).NewSession(&scriptAlg{name: "noop"})
	mustAddWorker(t, s, model.Worker{ID: 7, Loc: geo.Pt(1, 1), Patience: math.Inf(1)})
	mustAddTask(t, s, model.Task{ID: 8, Loc: geo.Pt(2, 2), Expiry: math.Inf(1)})
	w, task := s.Worker(0), s.Task(0)
	for i := range 10000 {
		if i%2 == 0 {
			mustAddWorker(t, s, model.Worker{ID: 100 + i, Loc: geo.Pt(3, 3), Patience: math.Inf(1)})
		} else {
			mustAddTask(t, s, model.Task{ID: 100 + i, Loc: geo.Pt(3, 3), Expiry: math.Inf(1)})
		}
	}
	if s.Worker(0) != w || s.Task(0) != task {
		t.Fatal("admissions moved worker 0 or task 0: an earlier pointer reads a stale copy")
	}
	if !s.TryMatch(0, 0, s.Now()) || w.ID != 7 || task.ID != 8 {
		t.Fatalf("old pointers read worker %d and task %d after the match", w.ID, task.ID)
	}
}
