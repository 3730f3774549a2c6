// Package guide implements the offline guide generation of Section 4
// (Algorithm 1): it turns predicted per-(time slot, grid area) counts of
// workers and tasks into a maximum bipartite matching between predicted
// objects — the "offline guide" that POLAR and POLAR-OP consult online.
//
// Instead of instantiating one graph node per predicted object as the paper
// presents it (m + n nodes, up to m·n edges), the network here has one node
// per non-empty (slot, area) cell with capacity equal to the predicted
// count. Max-flow on this compressed network has exactly the same value,
// and the integral flow decomposes into a *pair layout*: the conceptually
// ordered nodes of each cell are split into consecutive runs, each run
// paired one-to-one with a run of a partner cell. The layout supports the
// O(1) per-arrival node lookup that gives POLAR / POLAR-OP their constant
// processing time (Section 5 complexity analyses).
package guide

import (
	"fmt"
	"math"
	"sort"

	"ftoa/internal/flow"
	"ftoa/internal/geo"
	"ftoa/internal/timeslot"
)

// Config describes the prediction discretisation and the deadline
// parameters the guide assumes for predicted objects. The paper's
// experiments use global deadlines (Dw for workers, Dr for tasks), so the
// guide applies them to every predicted object.
type Config struct {
	Grid     *geo.Grid
	Slots    *timeslot.Slotting
	Velocity float64 // worker speed, space units per time unit

	WorkerPatience float64 // Dw applied to predicted workers
	TaskExpiry     float64 // Dr applied to predicted tasks

	// MaxEdgesPerCell caps the number of task cells a worker cell connects
	// to, keeping the nearest ones by travel distance. Zero or negative
	// means unlimited. The cap bounds guide-construction memory at extreme
	// scales (the 1M-object scalability run) at a small cost in matching
	// value; NewConfig sets 128.
	MaxEdgesPerCell int

	// MinCost, when true, computes a min-cost max-flow with edge cost equal
	// to the center-to-center travel time, yielding a maximum guide that
	// also minimises total travel (the paper's note (2) after Algorithm 1).
	MinCost bool

	// RepSlack is extra travel-time budget (in time units) granted when
	// testing edge feasibility between cell representatives, compensating
	// the discretisation error of representing objects by slot midpoints
	// and cell centers (the "differences can be ignored" remark after the
	// paper's Lemma 1 assumption). Zero is the neutral default; NewConfig
	// sets half a slot width. A task slot sr is a candidate for a worker
	// slot sw only while its budget sr + TaskExpiry + RepSlack − sw is
	// positive: at a budget of 0 only a worker and a task at the same
	// point could be paired, which no real pair is.
	RepSlack float64
}

// NewConfig is the guide configuration the server, the experiments and
// ftoa-sim all build with: the caller's discretisation, velocity and
// deadlines (Dw, Dr), plus the one edge policy — each worker cell keeps
// its 128 nearest feasible task cells, and edges are tested with half a
// slot of representative slack.
func NewConfig(grid *geo.Grid, slots *timeslot.Slotting, velocity, patience, expiry float64) Config {
	return Config{
		Grid:            grid,
		Slots:           slots,
		Velocity:        velocity,
		WorkerPatience:  patience,
		TaskExpiry:      expiry,
		MaxEdgesPerCell: 128,
		RepSlack:        slots.Width() / 2,
	}
}

// repTime returns the representative time of a slot: its midpoint, which
// is unbiased for objects uniform within the slot (slot starts would
// understate every task's deadline by half a slot on average).
func (c Config) repTime(slot int) float64 { return c.Slots.Mid(slot) }

// budget is the travel time a worker represented at sw has to reach a
// task represented at sr before the task expires, RepSlack included.
func (c Config) budget(sw, sr float64) float64 { return sr + c.TaskExpiry + c.RepSlack - sw }

// edgeFeasible is the guide's one edge rule: the Definition 4 predicate
// on cell representatives — the task's slot starts within the worker's
// patience, and the centre distance fits the travel budget — for a
// positive budget only.
func (c Config) edgeFeasible(sw, sr, dist float64) bool {
	if sr >= sw+c.WorkerPatience || c.budget(sw, sr) <= 0 {
		return false
	}
	return sw+dist/c.Velocity <= sr+c.TaskExpiry+c.RepSlack
}

// Run is a consecutive block of a cell's predicted nodes paired with a
// block of a partner cell's nodes. Node (Offset + k) of this cell is paired
// with node (PartnerOffset + k) of cell Partner, for 0 ≤ k < Count.
type Run struct {
	Offset        int32 // first node index of this run within its own cell
	Partner       int32 // dense id of the partner cell on the other side
	PartnerOffset int32 // first node index of the paired run in the partner
	Count         int32 // number of paired nodes in the run
}

// CellPlan is the guide's plan for one non-empty (slot, area) cell: how
// many predicted nodes it has and how its matched prefix is paired.
type CellPlan struct {
	Key     timeslot.CellKey
	Count   int32 // predicted number of objects of this type (a_ij or b_ij)
	Matched int32 // how many of them the guide matched (≤ Count)
	Runs    []Run // pair layout covering node indices [0, Matched)
}

// PartnerOf returns, for node index idx within this cell, the partner cell
// dense id and partner node index, or ok=false if the node is unmatched.
// It is O(log runs); online consumers use sequential cursors instead.
func (c *CellPlan) PartnerOf(idx int32) (partner, partnerIdx int32, ok bool) {
	if idx < 0 || idx >= c.Matched {
		return 0, 0, false
	}
	// Binary search for the run containing idx.
	lo, hi := 0, len(c.Runs)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if c.Runs[mid].Offset <= idx {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	r := c.Runs[lo]
	if idx < r.Offset || idx >= r.Offset+r.Count {
		return 0, 0, false
	}
	return r.Partner, r.PartnerOffset + (idx - r.Offset), true
}

// Guide is the offline guide Ĝf: the pair layout for every non-empty
// worker cell and task cell, plus dense-id lookup tables.
type Guide struct {
	Cfg Config

	WorkerCells []CellPlan
	TaskCells   []CellPlan

	// workerID / taskID map a flattened (slot, area) key to a dense cell id
	// or -1. Length = slots × areas.
	workerID []int32
	taskID   []int32

	// MatchedPairs is the guide's matching size |E*| (total units of flow).
	MatchedPairs int
	// TravelCost is the total center-to-center travel time across matched
	// pairs (only meaningful when Cfg.MinCost, but computed always).
	TravelCost float64
}

// WorkerCellID returns the dense id of the worker cell for (slot, area), or
// -1 if the prediction has no workers there.
func (g *Guide) WorkerCellID(slot, area int) int32 {
	return g.workerID[slot*g.Cfg.Grid.NumCells()+area]
}

// TaskCellID is the task-side analogue of WorkerCellID.
func (g *Guide) TaskCellID(slot, area int) int32 {
	return g.taskID[slot*g.Cfg.Grid.NumCells()+area]
}

// TotalWorkers returns m = Σ a_ij.
func (g *Guide) TotalWorkers() int {
	s := 0
	for i := range g.WorkerCells {
		s += int(g.WorkerCells[i].Count)
	}
	return s
}

// TotalTasks returns n = Σ b_ij.
func (g *Guide) TotalTasks() int {
	s := 0
	for i := range g.TaskCells {
		s += int(g.TaskCells[i].Count)
	}
	return s
}

// edgeChunk is the allocation unit of an edgeList, in entries.
const edgeChunk = 1 << 12

// edgeList is an append-only list of task-cell ids kept in fixed-size
// chunks. Build collects candidate edges into it before it knows how many
// there are; chunks never move, so collecting leaves no trail of outgrown
// arrays behind, and the flow network can then be allocated once at its
// exact size.
type edgeList struct {
	chunks [][]int32
	n      int
}

func (l *edgeList) push(v int32) {
	if l.n%edgeChunk == 0 {
		l.chunks = append(l.chunks, make([]int32, edgeChunk))
	}
	l.chunks[l.n/edgeChunk][l.n%edgeChunk] = v
	l.n++
}

func (l *edgeList) at(i int) int32 { return l.chunks[i/edgeChunk][i%edgeChunk] }

// costScale converts travel times to integer edge costs for the min-cost
// solver while keeping relative precision.
const costScale = 1024.0

// Build runs Algorithm 1: it constructs the bipartite flow network over the
// predicted counts and extracts the pair layout from a maximum (optionally
// min-cost) flow. workerCounts and taskCounts are flattened over
// (slot, area) with length slots × areas; negative counts are rejected.
//
// Every array Build allocates is sized exactly: candidate edges are
// collected first (4 bytes each), then the network's edge arrays and the
// guide's runs are each allocated once.
func Build(cfg Config, workerCounts, taskCounts []int) (*Guide, error) {
	if cfg.Grid == nil || cfg.Slots == nil {
		return nil, fmt.Errorf("guide: nil grid or slotting")
	}
	if cfg.Velocity <= 0 {
		return nil, fmt.Errorf("guide: non-positive velocity %v", cfg.Velocity)
	}
	areas := cfg.Grid.NumCells()
	want := cfg.Slots.Count * areas
	if len(workerCounts) != want || len(taskCounts) != want {
		return nil, fmt.Errorf("guide: counts length %d/%d, want %d", len(workerCounts), len(taskCounts), want)
	}

	g := &Guide{Cfg: cfg}
	var err error
	if g.WorkerCells, g.workerID, err = collectCells(workerCounts, areas); err != nil {
		return nil, fmt.Errorf("guide: worker %w", err)
	}
	if g.TaskCells, g.taskID, err = collectCells(taskCounts, areas); err != nil {
		return nil, fmt.Errorf("guide: task %w", err)
	}
	if len(g.WorkerCells) == 0 || len(g.TaskCells) == 0 {
		return g, nil
	}
	net, err := g.network()
	if err != nil {
		return nil, err
	}
	src, snk := net.NumNodes()-2, net.NumNodes()-1
	if cfg.MinCost {
		v, _ := net.MinCostMaxFlow(src, snk)
		g.MatchedPairs = int(v)
	} else {
		g.MatchedPairs = int(net.MaxFlowDinic(src, snk))
	}
	g.layout(net)
	return g, nil
}

// network builds Algorithm 1's flow network over the guide's cells. Node
// layout: worker cells by dense id, then task cells, then source and
// sink. Edges go in as source edges, sink edges, then the pair edges
// worker cell by worker cell (nearest first when capped), so pair edge k
// has id 2·(cells+k) and its endpoints name its two cells.
func (g *Guide) network() (*flow.Network, error) {
	cfg := g.Cfg
	areas := cfg.Grid.NumCells()
	wCells, tCells := g.WorkerCells, g.TaskCells
	nw, nt := len(wCells), len(tCells)

	// Dense task ids ascend with the flat (slot, area) key, so the
	// non-empty task cells of one slot are the id range
	// [slotStart[slot], slotStart[slot+1]).
	slotStart := make([]int32, cfg.Slots.Count+1)
	for i := range tCells {
		slotStart[tCells[i].Key.Slot+1]++
	}
	for s := 0; s < cfg.Slots.Count; s++ {
		slotStart[s+1] += slotStart[s]
	}

	grid := cfg.Grid
	centers := make([]geo.Point, areas)
	for a := range centers {
		centers[a] = grid.Center(a)
	}
	cw, ch := grid.CellSize()

	// Collect each worker cell's task cells: worker cell wi is joined to
	// edges[wEnd[wi-1]:wEnd[wi]], nearest first when capped.
	var edges edgeList
	wEnd := make([]int32, nw)
	type cand struct {
		tCell int32
		dist  float64
	}
	var cands []cand
	for wi := range wCells {
		wc := &wCells[wi]
		sw := cfg.repTime(wc.Key.Slot)
		wCenter := centers[wc.Key.Area]
		wCol, wRow := grid.ColRow(wc.Key.Area)
		cands = cands[:0]
		for slot := 0; slot < cfg.Slots.Count; slot++ {
			sr := cfg.repTime(slot)
			if sr >= sw+cfg.WorkerPatience {
				break // later slots only get later
			}
			budget := cfg.budget(sw, sr)
			if budget <= 0 {
				continue // edgeFeasible refuses every cell of the slot
			}
			radius := budget * cfg.Velocity
			lo, hi := slotStart[slot], slotStart[slot+1]
			if lo == hi {
				continue
			}
			// Choose the cheaper enumeration: scan non-empty task cells of
			// the slot, or walk the disk of cells within the radius (the
			// cells geo.Grid.CellsWithinRadius lists, in its row-major
			// order, over the same bounding box).
			diskArea := math.Pi * (radius/cw + 1) * (radius/ch + 1)
			if diskArea < float64(hi-lo) {
				dc, dr := int(math.Ceil(radius/cw)), int(math.Ceil(radius/ch))
				r2 := radius * radius
				taskID := g.taskID[slot*areas : (slot+1)*areas]
				for row := max(0, wRow-dr); row <= min(grid.Rows-1, wRow+dr); row++ {
					for col := max(0, wCol-dc); col <= min(grid.Cols-1, wCol+dc); col++ {
						area := row*grid.Cols + col
						ti := taskID[area]
						if ti < 0 || centers[area].SqDist(wCenter) > r2 {
							continue
						}
						d := wCenter.Dist(centers[area])
						if cfg.edgeFeasible(sw, sr, d) {
							cands = append(cands, cand{tCell: ti, dist: d})
						}
					}
				}
			} else {
				for ti := lo; ti < hi; ti++ {
					d := wCenter.Dist(centers[tCells[ti].Key.Area])
					if cfg.edgeFeasible(sw, sr, d) {
						cands = append(cands, cand{tCell: ti, dist: d})
					}
				}
			}
		}
		if cfg.MaxEdgesPerCell > 0 && len(cands) > cfg.MaxEdgesPerCell {
			sort.Slice(cands, func(a, b int) bool { return cands[a].dist < cands[b].dist })
			cands = cands[:cfg.MaxEdgesPerCell]
		}
		for _, c := range cands {
			edges.push(c.tCell)
		}
		if edges.n > math.MaxInt32/2-nw-nt {
			return nil, fmt.Errorf("guide: more than %d candidate edges; lower MaxEdgesPerCell", edges.n)
		}
		wEnd[wi] = int32(edges.n)
	}

	net := flow.NewNetwork(nw+nt+2, nw+nt+edges.n)
	src, snk := nw+nt, nw+nt+1
	for i := range wCells {
		net.AddEdge(src, i, wCells[i].Count)
	}
	for i := range tCells {
		net.AddEdge(nw+i, snk, tCells[i].Count)
	}
	k := 0
	for wi := range wCells {
		wc := &wCells[wi]
		wCenter := centers[wc.Key.Area]
		for ; k < int(wEnd[wi]); k++ {
			ti := edges.at(k)
			tc := &tCells[ti]
			cost := int64(0)
			if cfg.MinCost {
				d := wCenter.Dist(centers[tc.Key.Area])
				cost = int64(d / cfg.Velocity * costScale)
			}
			net.AddEdgeCost(wi, nw+int(ti), min(wc.Count, tc.Count), cost)
		}
	}
	return net, nil
}

// layout decomposes the solved network's flow into the pair layout. Every
// pair edge carrying flow becomes one run on each side; they are counted
// per cell first so all runs live in one exactly sized array.
func (g *Guide) layout(net *flow.Network) {
	cfg := g.Cfg
	wCells, tCells := g.WorkerCells, g.TaskCells
	nw, nt := len(wCells), len(tCells)
	firstPair, endPair := 2*(nw+nt), 2*net.NumEdges()
	nRuns := make([]int32, nw+nt)
	total := 0
	for id := firstPair; id < endPair; id += 2 {
		if net.EdgeFlow(id) > 0 {
			u, v := net.EdgeEndpoints(id)
			nRuns[u]++
			nRuns[v]++
			total += 2
		}
	}
	arena := make([]Run, total)
	carve := func(cells []CellPlan, counts []int32) {
		for i := range cells {
			cells[i].Runs = arena[:0:counts[i]]
			arena = arena[counts[i]:]
		}
	}
	carve(wCells, nRuns[:nw])
	carve(tCells, nRuns[nw:])

	// Worker cells are processed in dense-id order; within a worker cell,
	// partner runs in edge insertion order (nearest-first when capped).
	// A cell's Matched count is also its next free node offset, and it
	// only grows, so each side's runs come out ordered by their own offset
	// and cover [0, Matched).
	for id := firstPair; id < endPair; id += 2 {
		f := net.EdgeFlow(id)
		if f <= 0 {
			continue
		}
		u, v := net.EdgeEndpoints(id)
		wi, ti := int32(u), int32(v-nw)
		wp, tp := &wCells[wi], &tCells[ti]
		wp.Runs = append(wp.Runs, Run{Offset: wp.Matched, Partner: ti, PartnerOffset: tp.Matched, Count: f})
		tp.Runs = append(tp.Runs, Run{Offset: tp.Matched, Partner: wi, PartnerOffset: wp.Matched, Count: f})
		wCenter := cfg.Grid.Center(wp.Key.Area)
		tCenter := cfg.Grid.Center(tp.Key.Area)
		g.TravelCost += float64(f) * wCenter.Dist(tCenter) / cfg.Velocity
		wp.Matched += f
		tp.Matched += f
	}
}

// NewManual assembles a Guide from explicit cell plans. It is intended for
// tests and for callers that compute pairings themselves (the paper's
// worked example fixes a specific max-flow decomposition); the result is
// validated before being returned.
func NewManual(cfg Config, workerCells, taskCells []CellPlan) (*Guide, error) {
	if cfg.Grid == nil || cfg.Slots == nil {
		return nil, fmt.Errorf("guide: nil grid or slotting")
	}
	areas := cfg.Grid.NumCells()
	g := &Guide{
		Cfg:         cfg,
		WorkerCells: workerCells,
		TaskCells:   taskCells,
		workerID:    make([]int32, cfg.Slots.Count*areas),
		taskID:      make([]int32, cfg.Slots.Count*areas),
	}
	for i := range g.workerID {
		g.workerID[i] = -1
		g.taskID[i] = -1
	}
	for i := range workerCells {
		g.workerID[workerCells[i].Key.Flatten(areas)] = int32(i)
		g.MatchedPairs += int(workerCells[i].Matched)
	}
	for i := range taskCells {
		g.taskID[taskCells[i].Key.Flatten(areas)] = int32(i)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// collectCells returns one plan per non-empty cell, in flat (slot, area)
// order, and the flat key → dense id lookup (-1 for empty cells).
func collectCells(counts []int, areas int) ([]CellPlan, []int32, error) {
	n := 0
	for flat, c := range counts {
		if c < 0 {
			return nil, nil, fmt.Errorf("cell %d has negative count %d", flat, c)
		}
		if c > math.MaxInt32 {
			return nil, nil, fmt.Errorf("cell %d count %d overflows int32", flat, c)
		}
		if c > 0 {
			n++
		}
	}
	cells := make([]CellPlan, 0, n)
	id := make([]int32, len(counts))
	for flat, c := range counts {
		if c == 0 {
			id[flat] = -1
			continue
		}
		id[flat] = int32(len(cells))
		cells = append(cells, CellPlan{Key: timeslot.UnflattenCell(flat, areas), Count: int32(c)})
	}
	return cells, id, nil
}

// Validate checks the internal consistency of the pair layout: runs on each
// side tile [0, Matched) without gaps, cross-references agree, and every
// paired (worker cell, task cell) passes the edge rule Build applies. It
// is used by tests and available to callers who build guides from
// untrusted predictions.
func (g *Guide) Validate() error {
	check := func(cells []CellPlan, side string) error {
		for ci := range cells {
			c := &cells[ci]
			if c.Matched > c.Count {
				return fmt.Errorf("guide: %s cell %d matched %d > count %d", side, ci, c.Matched, c.Count)
			}
			var off int32
			for _, r := range c.Runs {
				if r.Offset != off {
					return fmt.Errorf("guide: %s cell %d runs have gap at %d", side, ci, off)
				}
				if r.Count <= 0 {
					return fmt.Errorf("guide: %s cell %d has non-positive run", side, ci)
				}
				off += r.Count
			}
			if off != c.Matched {
				return fmt.Errorf("guide: %s cell %d runs cover %d, matched %d", side, ci, off, c.Matched)
			}
		}
		return nil
	}
	if err := check(g.WorkerCells, "worker"); err != nil {
		return err
	}
	if err := check(g.TaskCells, "task"); err != nil {
		return err
	}
	// Cross-reference and feasibility.
	total := 0
	for wi := range g.WorkerCells {
		wc := &g.WorkerCells[wi]
		sw := g.Cfg.repTime(wc.Key.Slot)
		wCenter := g.Cfg.Grid.Center(wc.Key.Area)
		for _, r := range wc.Runs {
			total += int(r.Count)
			tc := &g.TaskCells[r.Partner]
			sr := g.Cfg.repTime(tc.Key.Slot)
			if d := wCenter.Dist(g.Cfg.Grid.Center(tc.Key.Area)); !g.Cfg.edgeFeasible(sw, sr, d) {
				return fmt.Errorf("guide: pair (w%d,t%d) breaks the edge rule: budget %g, travel %g",
					wi, r.Partner, g.Cfg.budget(sw, sr), d/g.Cfg.Velocity)
			}
			// The reverse run must exist and point back.
			found := false
			for _, tr := range tc.Runs {
				if tr.Partner == int32(wi) && tr.Offset == r.PartnerOffset && tr.PartnerOffset == r.Offset && tr.Count == r.Count {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("guide: run of w%d has no mirror in t%d", wi, r.Partner)
			}
		}
	}
	if total != g.MatchedPairs {
		return fmt.Errorf("guide: runs total %d != matched pairs %d", total, g.MatchedPairs)
	}
	return nil
}
