package bench

import (
	"fmt"
	"sort"

	"ftoa"
)

const eventMatch = byte(ftoa.EventMatch)

// clockSlack bounds how far one shard's session clock may trail another's
// (the server's tick loop advances every shard each 250 ms), in seconds.
// Match event times and admission stamps come from different shards'
// clocks, so epoch brackets are widened by this much.
const clockSlack = 0.5

// bracket is an interval of session time inside which one shard retired
// its arenas (handles before and after it name different objects).
type bracket struct{ from, to float64 }

// epochBrackets derives, per owner shard, where its arena epochs changed:
// between two consecutive receipts (in admission order) whose epochs
// differ, a retirement ran.
func epochBrackets(receipts []receipt) map[uint32][]bracket {
	byShard := map[uint32][]receipt{}
	for _, r := range receipts {
		byShard[r.shard] = append(byShard[r.shard], r)
	}
	out := map[uint32][]bracket{}
	for shard, rs := range byShard {
		sort.Slice(rs, func(i, j int) bool {
			if rs[i].at != rs[j].at {
				return rs[i].at < rs[j].at
			}
			return rs[i].epoch < rs[j].epoch
		})
		for i := 1; i < len(rs); i++ {
			if rs[i].epoch != rs[i-1].epoch {
				out[shard] = append(out[shard], bracket{rs[i-1].at, rs[i].at})
			}
		}
	}
	return out
}

// duplicateReceipts counts admissions acknowledged with a (side, shard,
// handle, epoch) receipt some other admission already holds.
func duplicateReceipts(receipts []receipt) int {
	type key struct {
		task         bool
		shard, local uint32
		epoch        uint64
	}
	seen := make(map[key]struct{}, len(receipts))
	dups := 0
	for _, r := range receipts {
		k := key{r.task, r.shard, r.local, r.epoch}
		if _, ok := seen[k]; ok {
			dups++
		}
		seen[k] = struct{}{}
	}
	return dups
}

// duplicateMatches counts match events that commit an endpoint — an
// (owner shard, side, handle) of one arena epoch — a second time. Events
// carry no epoch, so a repeated handle is excused only when one of the
// shard's retirements can separate the two objects it names. Without a
// halo an event names the object's handle at commit time, so the
// retirement must lie between the two commits. With a halo, a mirrored
// endpoint is named by its ADMISSION handle (shard.mirror.ownerLocal),
// up to one object lifetime older than its commit, so the excusing
// interval starts that much earlier. The check never raises a false
// alarm; under a halo it catches only the double commits no retirement
// comes near (the arenas retire every 5 s, objects live 2-4 s).
func duplicateMatches(receipts []receipt, matches []matchRec, mirrored bool) int {
	brackets := epochBrackets(receipts)
	type key struct {
		task         bool
		shard, local int32
	}
	last := make(map[key]float64, len(matches))
	dups := 0
	check := func(k key, at float64) {
		if prev, ok := last[k]; ok {
			if mirrored && k.task {
				prev -= Expiry
			} else if mirrored {
				prev -= Patience
			}
			excused := false
			for _, b := range brackets[uint32(k.shard)] {
				if b.from-clockSlack <= at && b.to+clockSlack >= prev {
					excused = true
					break
				}
			}
			if !excused {
				dups++
			}
		}
		last[k] = at
	}
	for _, m := range matches {
		check(key{false, m.wshard, m.worker}, m.at)
		check(key{true, m.tshard, m.task}, m.at)
	}
	return dups
}

// verify runs the correctness gate of one measured instance and returns
// the checks that failed.
func (in *instance) verify(res *E2EResult, pre *ServerStats) []string {
	var bad []string
	fail := func(format string, a ...any) { bad = append(bad, fmt.Sprintf(format, a...)) }
	t, st := &in.t, res.Stats

	// Driver accounting and /stats agree.
	if t.requests != t.oks+t.busy+t.errs+t.lost {
		fail("requests %d != ok %d + busy %d + errors %d + lost %d", t.requests, t.oks, t.busy, t.errs, t.lost)
	}
	if st.Wire.Requests != t.requests {
		fail("/stats wire.requests %d != driver %d", st.Wire.Requests, t.requests)
	}
	if st.Wire.Busy != t.busy {
		fail("/stats wire.busy %d != driver %d", st.Wire.Busy, t.busy)
	}
	if st.Wire.ProtoErrors != 0 || st.Wire.Deduped != 0 || st.Events.EvictedSubs != 0 {
		fail("/stats protocol_errors %d, deduped %d, evicted_subs %d; want 0", st.Wire.ProtoErrors, st.Wire.Deduped, st.Events.EvictedSubs)
	}
	recovered, recoveredMatches := 0, 0
	if pre != nil {
		recovered, recoveredMatches = pre.Owned(), pre.Matches
		if r := in.recovered; r == nil {
			fail("no /stats snapshot after recovery")
		} else if r.Workers != pre.Workers || r.Tasks != pre.Tasks || r.Matches != pre.Matches || r.Attempted != pre.Attempted ||
			r.GhostWorkers != pre.GhostWorkers || r.GhostTasks != pre.GhostTasks ||
			r.BorderMatches != pre.BorderMatches || r.ClaimsLost != pre.ClaimsLost {
			fail("/stats after recovery %+v != throw-away instance before SIGTERM %+v", *r, *pre)
		}
	}
	if got, want := st.Owned()-recovered, int(t.adds); got != want {
		fail("/stats owns %d admissions, driver was acknowledged %d", got, want)
	}
	if w, k := st.Workers-st.GhostWorkers, st.Tasks-st.GhostTasks; st.Matches > min(w, k) {
		fail("matches %d > min(workers %d, tasks %d)", st.Matches, w, k)
	}

	// Every stream dense, and complete in the matches it carries.
	for i, sub := range in.subs {
		gaps, gone, matches := sub.snapshot()
		if gaps != 0 || gone != 0 {
			fail("subscriber %d: %d seq gaps, %d EventsGone", i, gaps, gone)
		}
		if want := st.Matches - recoveredMatches; matches != want {
			fail("subscriber %d saw %d matches, /stats committed %d", i, matches, want)
		}
	}

	// Identity: no receipt issued twice, no endpoint matched twice.
	if n := duplicateReceipts(t.receipts); n != 0 {
		fail("%d admissions share a (shard, handle, epoch) receipt", n)
	}
	if len(in.subs) > 0 {
		if n := duplicateMatches(t.receipts, in.subs[0].matches, in.w.HaloSecs > 0); n != 0 {
			fail("%d match events commit an already matched (shard, handle) within one epoch", n)
		}
	}
	return bad
}
