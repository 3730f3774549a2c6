// Package rebalance is the policy layer over shard.Router's online
// topology changes: a supervisor that watches per-region demand — the
// router's arrival-rate EWMAs — and decides when to split a hot region
// into a finer sub-grid or merge cold sibling quads back. The mechanism
// (quiescing, migrating live state, the WAL topology-epoch chain) lives
// in the shard package; this package only picks the next topology and
// calls Router.Rebalance.
//
// The policy is deliberately conservative and deterministic given a
// demand trace:
//
//   - at most one topology change per Tick, then a cooldown, so the
//     system observes the effect of each change before the next;
//   - a region splits only when its demand strictly exceeds SplitRate,
//     so a workload that never crosses the threshold provably never
//     triggers a change (TestUniformLoadNeverChanges) — the property
//     cmd/ftoa-loadgen's TestServeRebalanceUniformParity leans on when it
//     holds a static and an adaptive server's matched counts within 5 %;
//   - sibling quads merge only when their combined demand is strictly
//     below MergeRate, which must sit well under SplitRate: the gap is
//     the hysteresis band that keeps a region from flapping between
//     split and merged as demand hovers near one threshold.
package rebalance

import (
	"errors"
	"fmt"

	"ftoa/internal/shard"
)

// Config are the supervisor's policy knobs.
type Config struct {
	// SplitRate is the per-region arrival rate (admissions per second,
	// workers and tasks combined) above which a region is split. Must be
	// positive: splitting cannot be disabled, only priced out of reach.
	SplitRate float64
	// MergeRate is the combined arrival rate of four sibling leaf
	// regions below which they merge back into their parent. Zero
	// disables merging; positive values must stay below SplitRate/4 so
	// a freshly merged region (which inherits roughly the sum of its
	// children's demand) cannot immediately re-qualify for a split.
	MergeRate float64
	// MaxDepth caps how many times one base cell may be quartered.
	// Non-positive or out-of-range values clamp to shard.MaxSplitDepth.
	MaxDepth int
	// Cooldown is the minimum time, in workload seconds, between two
	// topology changes. Demand keeps being sampled during cooldown.
	Cooldown float64
	// Tau is the EWMA time constant, in workload seconds, handed to
	// Router.SampleRates. Larger values smooth harder and react slower;
	// non-positive makes every sample instantaneous (no smoothing).
	Tau float64
}

// Supervisor drives one Router's topology from its demand signal. It is
// not safe for concurrent use: call Tick from a single goroutine (the
// server's tick loop), like Advance.
type Supervisor struct {
	r   *shard.Router
	cfg Config

	changed    bool    // at least one topology change so far
	lastChange float64 // workload time of the last change

	stats []shard.Stats // reused across ticks
}

// New validates cfg and returns a supervisor over r.
func New(r *shard.Router, cfg Config) (*Supervisor, error) {
	if r == nil {
		return nil, errors.New("rebalance: nil router")
	}
	// Negated comparisons, so NaN is refused too.
	if !(cfg.SplitRate > 0) {
		return nil, errors.New("rebalance: SplitRate must be positive")
	}
	if !(cfg.MergeRate >= 0) {
		return nil, errors.New("rebalance: MergeRate must be non-negative")
	}
	if cfg.MergeRate > 0 && cfg.MergeRate*4 > cfg.SplitRate {
		return nil, fmt.Errorf("rebalance: MergeRate %g too close to SplitRate %g (need MergeRate <= SplitRate/4 for hysteresis)",
			cfg.MergeRate, cfg.SplitRate)
	}
	if !(cfg.Cooldown >= 0) {
		return nil, errors.New("rebalance: Cooldown must be non-negative")
	}
	if cfg.MaxDepth <= 0 || cfg.MaxDepth > shard.MaxSplitDepth {
		cfg.MaxDepth = shard.MaxSplitDepth
	}
	return &Supervisor{r: r, cfg: cfg}, nil
}

// Changes reports how many topology changes this supervisor has made.
func (s *Supervisor) Changes() uint64 { return s.r.Rebalances() }

// Tick samples demand and applies at most one topology change. It
// returns the change's RebalanceInfo, or (nil, nil) when the topology
// was left alone — the overwhelmingly common outcome. now is workload
// time on the same clock the router is advanced with.
func (s *Supervisor) Tick(now float64) (*shard.RebalanceInfo, error) {
	// Sample first, unconditionally: the EWMAs must keep tracking demand
	// through cooldown windows or they would see one huge interval (and
	// one diluted rate) when the cooldown expires.
	s.r.SampleRates(now, s.cfg.Tau)
	if s.changed && now-s.lastChange < s.cfg.Cooldown {
		return nil, nil
	}

	topo := s.r.Topology()
	s.stats = s.r.StatsAll(s.stats[:0])
	if len(s.stats) != topo.NumRegions() {
		// A concurrent Rebalance swapped the topology between the two
		// snapshot reads. Only happens when someone else also drives
		// Rebalance; skip the tick rather than mis-index.
		return nil, nil
	}

	// Split the hottest eligible region, if any is over threshold.
	hot, hotDemand := -1, s.cfg.SplitRate
	for i := range s.stats {
		if d := s.stats[i].ArrivalRate; d > hotDemand && topo.Depth(i) < s.cfg.MaxDepth {
			hot, hotDemand = i, d
		}
	}
	if hot >= 0 {
		nt, err := topo.Split(hot)
		if err != nil {
			return nil, err
		}
		return s.apply(nt, now)
	}

	// Otherwise merge the coldest sibling quad under the floor, if any.
	if s.cfg.MergeRate <= 0 {
		return nil, nil
	}
	cold, coldDemand := -1, s.cfg.MergeRate
	for _, quad := range topo.MergeableQuads() {
		sum := s.stats[quad[0]].ArrivalRate + s.stats[quad[1]].ArrivalRate +
			s.stats[quad[2]].ArrivalRate + s.stats[quad[3]].ArrivalRate
		if sum < coldDemand {
			cold, coldDemand = quad[0], sum
		}
	}
	if cold >= 0 {
		nt, err := topo.Merge(cold)
		if err != nil {
			return nil, err
		}
		return s.apply(nt, now)
	}
	return nil, nil
}

func (s *Supervisor) apply(nt *shard.Topology, now float64) (*shard.RebalanceInfo, error) {
	info, err := s.r.Rebalance(nt)
	if err != nil {
		return nil, err
	}
	s.changed, s.lastChange = true, now
	return info, nil
}
