package experiments

import (
	"bytes"
	"strings"
	"testing"

	"ftoa/internal/core"
	"ftoa/internal/sim"
)

// matchingTable flattens a result's MatchingSize series into a comparable
// map keyed by (row, algorithm).
func matchingTable(t *testing.T, r *Result) map[string]int {
	t.Helper()
	out := make(map[string]int)
	for _, row := range r.Rows {
		for algo, m := range row.ByAlgo {
			out[row.X+"/"+algo] = m.MatchingSize
		}
	}
	return out
}

// TestParallelMatchesSequential is the determinism contract of the worker
// pool: for a fixed seed, the parallel path must produce bit-identical
// MatchingSize tables to the sequential path, row for row and algorithm
// for algorithm.
func TestParallelMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  Runner
		opts Options
	}{
		{"fig4-w", VaryW, Options{Scale: 0.002}},
		{"fig5-scale", Scalability, Options{Scale: 0.0005}},
		{"ablation-hybrid", HybridAblation, Options{Scale: 0.002}},
		{"ablation-strict", StrictGapAblation, Options{Scale: 0.002}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seqOpts := tc.opts
			seq, err := tc.run(seqOpts)
			if err != nil {
				t.Fatal(err)
			}
			parOpts := tc.opts
			parOpts.Parallelism = 4
			par, err := tc.run(parOpts)
			if err != nil {
				t.Fatal(err)
			}

			seqTab, parTab := matchingTable(t, seq), matchingTable(t, par)
			if len(seqTab) != len(parTab) {
				t.Fatalf("table sizes differ: sequential %d vs parallel %d", len(seqTab), len(parTab))
			}
			for key, want := range seqTab {
				if got, ok := parTab[key]; !ok || got != want {
					t.Errorf("%s: parallel MatchingSize = %d, sequential = %d", key, got, want)
				}
			}
			// Row order must be the sweep order on both paths.
			for i := range seq.Rows {
				if seq.Rows[i].X != par.Rows[i].X {
					t.Errorf("row %d: sequential x=%s, parallel x=%s", i, seq.Rows[i].X, par.Rows[i].X)
				}
			}
		})
	}
}

// TestParallelOmitsMemory pins the documented contract that concurrent
// replays cannot attribute the process-wide allocation counter.
func TestParallelOmitsMemory(t *testing.T) {
	res, err := VaryW(Options{Scale: 0.002, SkipOPT: true, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		for algo, m := range row.ByAlgo {
			if m.MemoryMB != 0 {
				t.Errorf("x=%s %s: parallel MemoryMB = %v, want 0", row.X, algo, m.MemoryMB)
			}
		}
	}
	// Sequential runs keep the paper's memory series.
	res, err = VaryW(Options{Scale: 0.002, SkipOPT: true})
	if err != nil {
		t.Fatal(err)
	}
	any := false
	for _, row := range res.Rows {
		for _, m := range row.ByAlgo {
			if m.MemoryMB > 0 {
				any = true
			}
		}
	}
	if !any {
		t.Error("sequential run reported no memory at all")
	}
}

// TestRunEmitsTimings covers the timing series the bench CLI serialises.
func TestRunEmitsTimings(t *testing.T) {
	var buf bytes.Buffer
	timings, err := Run([]string{"fig4-w"}, Options{Scale: 0.002, SkipOPT: true, Parallelism: 2}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(timings) != 1 {
		t.Fatalf("timings = %d, want 1", len(timings))
	}
	tm := timings[0]
	if tm.ID != "fig4-w" || tm.Seconds <= 0 || tm.Parallelism != 2 || tm.Scale != 0.002 {
		t.Errorf("unexpected timing record %+v", tm)
	}
	if !strings.Contains(buf.String(), "fig4-w") {
		t.Error("Run did not print the experiment")
	}
	if _, err := Run([]string{"nope"}, Options{Scale: 0.002}, &buf); err == nil {
		t.Error("Run with unknown id should fail")
	}
}

// TestRunCellMatchesEngine licenses the one measuring path by value, not
// shape: on either path runCell reports exactly the matching size a plain
// Engine.Run (or core.OPT) gives for each name, memory is measured for the
// sequential path and left at zero on the parallel one.
func TestRunCellMatchesEngine(t *testing.T) {
	opts := Options{Scale: 0.002}.withDefaults()
	in, g, err := opts.defaultPoint().build(opts)
	if err != nil {
		t.Fatal(err)
	}
	mkAlgs := func() []sim.Algorithm {
		return []sim.Algorithm{core.NewSimpleGreedy(), core.NewGR(grWindow), core.NewPOLAR(g), core.NewPOLAROP(g)}
	}
	want := map[string]int{AlgoOPT: core.OPT(in, core.OPTOptions{MaxCandidates: optCandidates}).Size()}
	for _, alg := range mkAlgs() {
		want[alg.Name()] = sim.NewEngine(in, sim.AssumeGuide).Run(alg).Matching.Size()
	}
	if len(want) != 5 || want[AlgoOPT] == 0 {
		t.Fatalf("degenerate reference %v", want)
	}

	for _, par := range []int{0, 4} {
		o := Options{Scale: 0.002, Parallelism: par}.withDefaults()
		got := runCell(in, sim.AssumeGuide, mkAlgs(), true, o)
		if len(got) != len(want) {
			t.Errorf("parallelism %d: %d series, want %d", par, len(got), len(want))
		}
		measured := false
		for name, size := range want {
			m, ok := got[name]
			if !ok || m.MatchingSize != size {
				t.Errorf("parallelism %d: %s matched %d (present %v), engine says %d", par, name, m.MatchingSize, ok, size)
			}
			measured = measured || m.MemoryMB > 0
			if par > 1 && m.MemoryMB != 0 {
				t.Errorf("parallelism %d: %s MemoryMB = %v, want 0 (unmeasured)", par, name, m.MemoryMB)
			}
		}
		if par <= 1 && !measured {
			t.Error("sequential runCell measured no memory for any series")
		}
	}
}

// TestPrintMarksUnmeasuredMemory: a parallel run's Memory cells print as
// "-", never as a measured 0.0; a sequential run prints numbers.
func TestPrintMarksUnmeasuredMemory(t *testing.T) {
	memoryRows := func(opts Options) []string {
		res, err := VaryW(opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		res.Print(&buf)
		_, mem, ok := strings.Cut(buf.String(), "-- Memory (MB) --\n")
		if !ok {
			t.Fatal("no Memory table")
		}
		return strings.Split(strings.TrimSpace(mem), "\n")[1:] // drop the header
	}
	for _, row := range memoryRows(Options{Scale: 0.002, SkipOPT: true, Parallelism: 2}) {
		if cells := strings.Fields(row)[1:]; strings.Join(cells, "") != "----" {
			t.Errorf("parallel memory row %q, want four \"-\" cells", row)
		}
	}
	for _, row := range memoryRows(Options{Scale: 0.002, SkipOPT: true}) {
		if strings.Contains(row, " -") {
			t.Errorf("sequential memory row %q has an unmeasured cell", row)
		}
	}
}
