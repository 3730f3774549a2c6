// Package bench is the ftoa benchmark: it drives a real ftoa-serve
// process over the wire protocol for the end-to-end metrics, and an
// in-process mirror of the server's batch handler for the per-layer
// trace. See ../README.md for the metric and workload definitions.
package bench

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"ftoa/internal/wire"
)

// Run-shape constants shared by every workload (ISSUE 13 "run shape").
const (
	Patience     = 4.0 // worker patience, seconds
	Expiry       = 2.0 // task expiry, seconds
	Velocity     = 2.0
	BoundsSide   = 100.0 // the service area is 0,0,BoundsSide,BoundsSide
	RetireSecs   = 5.0   // arena retirement fires inside every run
	LoadConns    = 2     // load connections (nproc of the reference box)
	WarmupReqs   = 40000 // >= 2x the 8192-seq dedup window per client
	WarmupRate   = 8000  // requests/s the warm-up is held to: 4.5 s, > 2 expiry windows
	SetupReqs    = 4096  // admissions timed into setup_s on every boot
	AdvanceEvery = 16    // one Advance request per this many batches
	Batch        = 64    // requests per wire batch, every phase
	SatDepth     = 4     // saturation phase: batches in flight per connection

	// PacedRate is the open-loop rate, requests/s: about 35-40% of what the
	// seed serves at GOMAXPROCS=1 on the reference box. Frozen, never
	// calibrated at run time; each workload's Why quotes it.
	PacedRate   = 2500.0
	DedupWindow = wire.DefaultDedupWindow

	// Guide geometry for the polarop workloads: the server's "day" is the
	// first GuideHorizon seconds of uptime, which covers a whole run.
	GuideHorizon = 64.0
	GuideSlots   = 32
	GuideSide    = 20 // GuideSide x GuideSide areas
	GuideDays    = 6
)

// Workload is one traffic mix and the server configuration it runs on.
type Workload struct {
	Name        string
	Why         string
	Alg         string // greedy or polarop
	Cols, Rows  int
	HaloSecs    float64 // -halo reach window; 0 keeps regions disjoint
	Guide       bool    // -guide <generated counts.csv> -guide-anchor uptime
	WAL         bool    // -wal <dir> -wal-sync interval, booted through recovery
	Hotspot     bool    // 80% of arrivals in the central 10% square
	Subscribers int     // event subscriptions (the first rides load conn 0)
	Prepopulate int     // requests a throw-away instance writes to the WAL first
}

// Workloads is the judged benchmark suite, in BENCHMARK.json order.
var Workloads = []Workload{
	{
		Name: "wire-batch", Alg: "polarop", Cols: 4, Rows: 4, Guide: true,
		Subscribers: 1,
		Why:         "4x4 polarop+guide, batch 64, paced 2500 req/s: the algorithm is ~free, so wire codec, dedup window and admission ring do the work; setup carries HP-MSI + BuildGuide",
	},
	{
		Name: "halo-hotspot", Alg: "greedy", Cols: 4, Rows: 4, HaloSecs: 2, Hotspot: true,
		Subscribers: 1,
		Why:         "4x4 greedy -halo 2, 80% of arrivals on the corner of four shards, paced 2500 req/s: router, halo claims, spatial index and one hot drainer dominate; wire cost equals wire-batch",
	},
	{
		Name: "durable-fanout", Alg: "greedy", Cols: 2, Rows: 2, HaloSecs: 2, WAL: true,
		Subscribers: 4, Prepopulate: 100000,
		Why: "2x2 greedy+halo with WAL (interval sync) booted through recovery of 100k requests, 4 subscribers, paced 2500 req/s: WAL append and broadcast writes beside per-subscriber reads",
	},
}

// FindWorkload resolves a --workload name.
func FindWorkload(name string) (Workload, error) {
	var names []string
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return Workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// ServerFlags are the ftoa-serve flags of the measured instance; guide
// and walDir are the generated inputs ("" when the workload has none).
func (w Workload) ServerFlags(guide, walDir string) []string {
	f := []string{
		"-shards", fmt.Sprintf("%dx%d", w.Cols, w.Rows),
		"-alg", w.Alg,
		"-velocity", fmt.Sprint(Velocity),
		"-bounds", fmt.Sprintf("0,0,%g,%g", BoundsSide, BoundsSide),
		"-retire", fmt.Sprintf("%gs", RetireSecs),
	}
	if w.HaloSecs > 0 {
		f = append(f, "-halo", fmt.Sprint(w.HaloSecs))
	}
	if w.Guide {
		f = append(f, "-guide", guide, "-guide-anchor", "uptime",
			"-horizon", fmt.Sprint(GuideHorizon),
			"-guide-patience", fmt.Sprint(Patience), "-guide-expiry", fmt.Sprint(Expiry))
	}
	if w.WAL {
		f = append(f, "-wal", walDir, "-wal-sync", "interval")
	}
	return f
}

// Arrivals generates n admission requests from rng: half workers, half
// tasks, server-stamped (NaN) arrival, uniform over the bounds or — for
// hotspot workloads — 80% inside the 10% square centred on (50,50).
func (w Workload) Arrivals(rng *rand.Rand, n int) []wire.Request {
	reqs := make([]wire.Request, n)
	for i := range reqs {
		var x, y float64
		if w.Hotspot && rng.Float64() < 0.8 {
			x = BoundsSide/2 + (rng.Float64()-0.5)*BoundsSide*0.1
			y = BoundsSide/2 + (rng.Float64()-0.5)*BoundsSide*0.1
		} else {
			x = rng.Float64() * BoundsSide
			y = rng.Float64() * BoundsSide
		}
		rq := wire.Request{X: x, Y: y, At: math.NaN()}
		if rng.Intn(2) == 0 {
			rq.Kind, rq.Window = wire.ReqAddWorker, Patience
		} else {
			rq.Kind, rq.Window = wire.ReqAddTask, Expiry
		}
		reqs[i] = rq
	}
	return reqs
}

// CountsCSV renders the per-(day, slot, area) history the guide is
// trained on, in ftoa-gen -counts format. Every cell sees Poisson counts
// around the uniform per-cell rate the paced phase produces, so the
// forecast describes the same arrival process the load draws from.
func (w Workload) CountsCSV(rng *rand.Rand) string {
	areas := GuideSide * GuideSide
	mean := PacedRate / 2 * (GuideHorizon / GuideSlots) / float64(areas) // per side
	var sb strings.Builder
	sb.WriteString("day,slot,area,workers,tasks,weather\n")
	for d := 0; d < GuideDays; d++ {
		for s := 0; s < GuideSlots; s++ {
			for a := 0; a < areas; a++ {
				fmt.Fprintf(&sb, "%d,%d,%d,%d,%d,0.5\n", d, s, a, poisson(rng, mean), poisson(rng, mean))
			}
		}
	}
	return sb.String()
}

// poisson draws from Poisson(mean) by Knuth's product method (mean is
// small here: a handful of arrivals per cell and slot).
func poisson(rng *rand.Rand, mean float64) int {
	limit, p, k := math.Exp(-mean), 1.0, 0
	for {
		p *= rng.Float64()
		if p <= limit {
			return k
		}
		k++
	}
}
