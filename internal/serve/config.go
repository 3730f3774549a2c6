package serve

import (
	"fmt"
	"time"

	"ftoa"
	"ftoa/internal/wire"
)

// Config is everything New needs; cmd/ftoa-serve fills it from its flags,
// one field per flag.
type Config struct {
	Algorithm string // greedy, gr, polar, polarop or hybrid
	Window    float64
	Mode      string // strict or assume-guide
	Velocity  float64
	Bounds    [4]float64 // x0, y0, x1, y1
	Tick      time.Duration
	Shards    [2]int // cols, rows
	Retention int
	Retire    time.Duration // per-shard arena retirement interval; 0 disables
	// Halo is the cross-shard matching reach window in seconds: the router
	// finds every border pair shorter than velocity×halo. A border task is
	// mirrored as a ghost into each neighboring region within
	// 2×velocity×halo of it (capped at its own expiry×velocity unless the
	// algorithm dispatches workers), and the copies are arbitrated so no
	// task matches twice; workers are never mirrored. Zero keeps regions
	// disjoint (the pre-halo hyperlocal behavior).
	Halo float64

	// Guide pipeline (polar, polarop and hybrid).
	GuidePath     string // counts CSV; "" = no guide
	GuideGrid     [2]int // cols, rows; 0,0 = infer a square grid
	GuideDow0     int    // weekday of the history's first day, 0 = Sunday as time.Weekday
	Horizon       float64
	GuidePatience float64
	GuideExpiry   float64
	// GuideAnchor selects how uptime seconds map into guide slots:
	// "uptime" (the legacy behavior) assumes the first Horizon seconds
	// of uptime are the served day, clamping to the last slot forever
	// after; "wallclock" builds a 7-day week guide (one forecast per
	// weekday) and anchors slot selection to the wall-clock time of day
	// at boot, wrapping weekly, so multi-day deployments keep loading the
	// right per-slot guide.
	GuideAnchor string
	// anchorOffset is the seconds-into-week (scaled to the served day
	// length Horizon) of the boot instant; New derives it (wallclockOffset)
	// when GuideAnchor is "wallclock".
	anchorOffset float64

	// Durability (off unless WALDir is set): every shard records its
	// admissions, withdrawals and match outcomes in an append-only log
	// under WALDir and replays it at boot, so a crashed or killed server
	// restarts with its matched set, event stream and deadlines intact.
	WALDir  string
	WALSync string // always, interval (group commit every 50ms) or none

	// Adaptive topology: when Rebalance is set a supervisor watches
	// per-region arrival-rate EWMAs and splits hot regions into a finer
	// sub-grid / merges cold sibling quads back, migrating live state and
	// WAL-logging each change as a topology epoch (docs/rebalance.md).
	Rebalance  bool
	RebalSplit float64 // split threshold, arrivals/sec per region
	RebalMerge float64 // merge floor, combined arrivals/sec per sibling quad

	// Wire listener hardening (StartWire); zero disables the bound, or for
	// the dedup window picks the wire package's default.
	WireMaxConns     int           // concurrent connections
	WireIdle         time.Duration // per-read deadline after the handshake
	WireWriteTimeout time.Duration // per-frame write deadline
	WireDedupWindow  int           // idempotency seqs remembered per client
}

// DefaultConfig is ftoa-serve with every flag at its default: the flags
// take their defaults from it, and an in-process server built from it
// with a command line's fields set is the binary that command line runs.
func DefaultConfig() Config {
	return Config{
		Algorithm:        "greedy",
		Window:           1,
		Mode:             "strict",
		Velocity:         1,
		Bounds:           [4]float64{0, 0, 100, 100},
		Tick:             250 * time.Millisecond,
		Shards:           [2]int{1, 1},
		Retention:        1 << 16,
		Retire:           time.Minute,
		Horizon:          86400,
		GuideDow0:        1, // ftoa-gen histories start on a Monday
		GuidePatience:    300,
		GuideExpiry:      60,
		GuideAnchor:      "wallclock",
		WALSync:          "interval",
		RebalSplit:       200,
		WireMaxConns:     256,
		WireIdle:         5 * time.Minute,
		WireWriteTimeout: 10 * time.Second,
		WireDedupWindow:  wire.DefaultDedupWindow,
	}
}

// weekly resolves GuideAnchor: true for the wall-clock week timeline,
// false for the single uptime day.
func (c *Config) weekly() (bool, error) {
	switch c.GuideAnchor {
	case "", "uptime":
		return false, nil
	case "wallclock":
		return true, nil
	}
	return false, fmt.Errorf("unknown guide anchor %q (want wallclock or uptime)", c.GuideAnchor)
}

// validate checks the fields New does not hand to a constructor that
// checks them itself, resolves the enumerations and anchors a wall-clock
// guide to the boot instant.
func (c *Config) validate() (mode ftoa.Mode, policy ftoa.WALSyncPolicy, err error) {
	switch c.Mode {
	case "strict":
		mode = ftoa.Strict
	case "assume-guide":
		mode = ftoa.AssumeGuide
	default:
		return 0, 0, fmt.Errorf("unknown mode %q (want strict or assume-guide)", c.Mode)
	}
	switch c.WALSync {
	case "", "interval":
		policy = ftoa.WALSyncInterval
	case "always":
		policy = ftoa.WALSyncAlways
	case "none":
		policy = ftoa.WALSyncNone
	default:
		return 0, 0, fmt.Errorf("unknown WAL sync policy %q (want always, interval or none)", c.WALSync)
	}
	weekly, err := c.weekly()
	if err != nil {
		return 0, 0, err
	}
	if weekly {
		// Derived here, next to the validation, so every construction
		// path — not just flag parsing — maps uptime onto the boot
		// instant's day-of-week and time-of-day.
		c.anchorOffset = wallclockOffset(time.Now(), c.Horizon)
	}
	switch {
	case c.Tick <= 0:
		err = fmt.Errorf("tick must be positive, got %v", c.Tick)
	case c.Retention <= 0:
		err = fmt.Errorf("retention must be positive, got %d", c.Retention)
	// The negated comparisons refuse NaN, which every plain one lets by.
	case !(c.Horizon > 0):
		err = fmt.Errorf("horizon must be positive, got %v", c.Horizon)
	case c.Retire < 0:
		err = fmt.Errorf("retire interval must be non-negative, got %v", c.Retire)
	case !(c.Halo >= 0):
		err = fmt.Errorf("halo window must be non-negative, got %v", c.Halo)
	}
	return mode, policy, err
}
