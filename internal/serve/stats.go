package serve

import (
	"math"
	"net/http"

	"ftoa"
)

// statsJSON is the GET /stats body. The embedded totals are the router's
// lifetime counters, which outlive the sessions a rebalance, a checkpoint
// or a recovered checkpoint replaced; the per-shard rows count the current
// sessions only.
type statsJSON struct {
	ftoa.ShardTotals
	LiveWorkers int `json:"live_workers"`
	LiveTasks   int `json:"live_tasks"`
	// Shed counts the arrivals answered 503 because their shard's
	// admission lane refused them.
	Shed     uint64            `json:"shed"`
	WAL      map[string]any    `json:"wal"`
	Wire     map[string]any    `json:"wire"`
	Events   map[string]any    `json:"events"`
	Topology map[string]any    `json:"topology"`
	Now      float64           `json:"now"`
	Shards   []ftoa.ShardStats `json:"shards"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	s.advance()
	// One StatsAll snapshot: per-shard reads would race a concurrent
	// topology swap (the shard count can change between iterations).
	out := statsJSON{
		ShardTotals: s.router.Totals(),
		Shed:        s.shed.Load(),
		Shards:      s.router.StatsAll(nil),
	}
	for i := range out.Shards {
		st := &out.Shards[i]
		// A session that has never been advanced reports -Inf (the
		// unset-clock sentinel), which JSON cannot encode; server time
		// starts at 0, so clamp there.
		if math.IsInf(st.Now, -1) {
			st.Now = 0
		}
		out.LiveWorkers += st.LiveWorkers
		out.LiveTasks += st.LiveTasks
		out.Now = max(out.Now, st.Now)
	}
	// WAL status: sticky append errors surface here (and only here) so an
	// operator polling /stats notices a durability failure while the
	// in-memory router keeps serving.
	out.WAL = map[string]any{"enabled": s.recovery != nil}
	if ri := s.recovery; ri != nil {
		out.WAL["generation"] = s.router.WALGeneration()
		out.WAL["recovered"] = ri.Recovered
		out.WAL["recovered_events"] = ri.Events
		out.WAL["recovered_matches"] = ri.Matches
		out.WAL["torn_bytes"] = ri.TornBytes
		// What the restart cost: wall time of the whole recovery, the same
		// per recovered event, log bytes read over its passes, and how many
		// on-disk generations it did not need.
		out.WAL["recover_ms"] = float64(ri.Duration.Microseconds()) / 1e3
		out.WAL["recover_us_per_event"] = recoverUsPerEvent(ri)
		out.WAL["wal_bytes_read"] = ri.BytesRead
		out.WAL["skipped_generations"] = ri.SkippedGenerations
		// Whether that restart began at a sealed checkpoint (a clean
		// shutdown's, or a rebalance's) instead of the router's first
		// generation, and the checkpoint this process has made itself.
		out.WAL["from_checkpoint"] = ri.FromCheckpoint
		if cp := s.checkpointed.Load(); cp != nil {
			if cp.info != nil {
				out.WAL["checkpoint_generation"] = cp.info.WALGeneration
				out.WAL["checkpoint_objects"] = cp.info.MigratedWorkers + cp.info.MigratedTasks
				out.WAL["checkpoint_ms"] = float64(cp.info.Duration.Microseconds()) / 1e3
				out.WAL["segments_removed"] = cp.info.SegmentsRemoved
			}
			if cp.err != "" {
				out.WAL["checkpoint_error"] = cp.err
			}
		}
		if err := s.router.WALErr(); err != nil {
			out.WAL["error"] = err.Error()
		}
	}
	out.Wire = map[string]any{"enabled": false}
	var evictedSubs uint64
	if s.wire != nil {
		out.Wire = s.wire.statsJSON()
		evictedSubs = s.wire.evicted.Load()
	}
	// Event delivery status: the event log every reader (wire pushers,
	// /events, /matches) is served from. "oldest" and "head" bound the
	// readable window [oldest, head) — one consistent pair — and
	// "retained" is its size; "evicted_subs" counts the wire subscribers
	// dropped for not draining their stream.
	est := s.router.EventLogStats()
	out.Events = map[string]any{
		"subscribers":  est.Subscribers,
		"oldest":       est.Oldest,
		"head":         est.Frontier,
		"retained":     est.Frontier - est.Oldest,
		"capacity":     est.Capacity,
		"published":    est.Published,
		"wakeups":      est.Wakeups,
		"evicted_subs": evictedSubs,
	}
	// Topology status: the current (possibly rebalanced) region layout.
	// The string is "CxR" for the uniform base grid, "CxR+n" after n
	// quadtree splits; see docs/rebalance.md.
	out.Topology = map[string]any{
		"adaptive":   s.rebal != nil,
		"version":    s.router.TopologyVersion(),
		"topology":   s.router.Topology().String(),
		"regions":    len(out.Shards),
		"rebalances": s.router.Rebalances(),
		"migrating":  s.router.Migrating(),
	}
	writeJSON(w, http.StatusOK, out)
}
