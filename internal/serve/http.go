package serve

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"time"

	"ftoa"
)

// maxEventsPage caps one GET /events or GET /matches response; pollers
// page via "next".
const maxEventsPage = 10000

// maxEventsWait caps the ?wait= long-poll window on GET /events so a
// stuck client cannot pin a handler indefinitely; clients wanting a
// longer watch re-issue the poll (their cursor makes that gap-free).
const maxEventsWait = 30 * time.Second

type matchJSON struct {
	Worker int `json:"worker"`
	Task   int `json:"task"`
	// Shard is the shard whose session committed the pair; worker_shard
	// and task_shard are the endpoints' owner shards, which differ from
	// it for cross-border (halo) matches.
	Shard       int     `json:"shard"`
	WorkerShard int     `json:"worker_shard"`
	TaskShard   int     `json:"task_shard"`
	Time        float64 `json:"time"`
}

type eventJSON struct {
	Seq         uint64  `json:"seq"`
	Shard       int     `json:"shard"`
	Kind        string  `json:"kind"`
	Worker      int     `json:"worker"`
	Task        int     `json:"task"`
	WorkerShard int     `json:"worker_shard"`
	TaskShard   int     `json:"task_shard"`
	Time        float64 `json:"time"`
}

// Handler is the HTTP API (see the package comment).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/workers", s.admit("worker", "patience"))
	mux.HandleFunc("/tasks", s.admit("task", "expiry"))
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/matches", s.handleMatches)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// admit is the admission handler for one kind of arrival: kind names the
// object ("worker" or "task") and the handle in the reply, window the
// body's lifetime field (patience or expiry).
func (s *Server) admit(kind, window string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		var req map[string]float64
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
			return
		}
		for k := range req {
			if k != "x" && k != "y" && k != window {
				writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: unknown field %q", k))
				return
			}
		}
		if req[window] <= 0 {
			writeError(w, http.StatusBadRequest, window+" must be positive")
			return
		}
		pt := ftoa.Pt(req["x"], req["y"])
		// The admission goes through the shared per-shard ring: the drainer
		// reports the admission time the shard session actually stamped (the
		// clock read here, clamped monotone under the shard lock), so the
		// response always agrees with the session's deadlines even when
		// concurrent POSTs race the clock forward.
		var res ftoa.ShardAdmitResult
		var wg sync.WaitGroup
		var ok bool
		if kind == "worker" {
			ok = s.admitter.AddWorker(ftoa.Worker{Loc: pt, Arrive: s.now(), Patience: req[window]}, &res, &wg)
		} else {
			ok = s.admitter.AddTask(ftoa.Task{Loc: pt, Release: s.now(), Expiry: req[window]}, &res, &wg)
		}
		if !ok {
			// A refused enqueue — full ring, or the router quiescing for a
			// rebalance — is the overload response: 503 with a jittered
			// Retry-After hint (1 or 2 seconds, the header's resolution) so
			// a crowd of shed clients does not re-arrive in the same tick.
			s.shed.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(1+rand.IntN(2)))
			writeError(w, http.StatusServiceUnavailable, "admission queue full, retry later")
			return
		}
		wg.Wait()
		if res.Err != nil {
			writeError(w, http.StatusConflict, res.Err.Error())
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{kind: res.H.Local, "shard": res.H.Shard, "time": res.Admitted})
	}
}

// parsePage reads the since cursor and the limit page size /events and
// /matches share. present reports whether since was supplied (an absent
// cursor means "from the oldest retained", never 410). Pages are bounded
// so a cold cursor over a full window cannot serialize shards x retention
// events into one response; the returned "next" cursor pages through the
// rest gap-free, and ?limit=N lowers the cap. ok is false after an error
// response has been written.
func parsePage(w http.ResponseWriter, r *http.Request) (since uint64, present bool, limit int, ok bool) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return 0, false, 0, false
	}
	q := r.URL.Query()
	limit = maxEventsPage
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, "limit must be a positive integer")
			return 0, false, 0, false
		}
		limit = min(limit, n)
	}
	v := q.Get("since")
	if v == "" {
		return 0, false, limit, true
	}
	since, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "since must be a non-negative integer")
		return 0, false, 0, false
	}
	return since, true, limit, true
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	since, present, limit, ok := parsePage(w, r)
	if !ok {
		return
	}
	// wait=DURATION long-polls: when the cursor is at the head, hold the
	// request on an event-log subscription (the same primitive as the wire
	// pusher — no server-side poll loop) until an event arrives or the
	// window elapses, then answer normally. Only meaningful with an
	// explicit since cursor; capped so a stuck client cannot pin a
	// handler for long.
	var wait time.Duration
	if v := r.URL.Query().Get("wait"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			writeError(w, http.StatusBadRequest, "wait must be a non-negative duration (e.g. 5s)")
			return
		}
		wait = min(d, maxEventsWait)
	}
	s.advance()
	if present && wait > 0 && since >= s.router.Cursor() {
		// At the head with nothing to deliver: park on the log until an
		// emission (or the client giving up) wakes us, then serve the
		// page below exactly as an immediate poll would.
		sub := s.router.Subscribe(since)
		sub.Wait(wait, r.Context().Done())
		sub.Close()
	}
	evs, next, ok := s.readPage(w, since, present, limit, false)
	if !ok {
		return
	}
	out := make([]eventJSON, len(evs))
	for i, ev := range evs {
		out[i] = eventJSON{
			Seq:         ev.Seq,
			Shard:       ev.Shard,
			Kind:        ev.Kind.String(),
			Worker:      ev.Worker,
			Task:        ev.Task,
			WorkerShard: ev.WorkerShard,
			TaskShard:   ev.TaskShard,
			Time:        ev.Time,
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"events": out, "next": next})
}

func (s *Server) handleMatches(w http.ResponseWriter, r *http.Request) {
	since, present, limit, ok := parsePage(w, r)
	if !ok {
		return
	}
	s.advance()
	entries, next, ok := s.readPage(w, since, present, limit, true)
	if !ok {
		return
	}
	out := make([]matchJSON, len(entries)) // [] (not null) when empty
	for i, e := range entries {
		out[i] = matchJSON{
			Worker:      e.Worker,
			Task:        e.Task,
			Shard:       e.Shard,
			WorkerShard: e.WorkerShard,
			TaskShard:   e.TaskShard,
			Time:        e.Time,
		}
	}
	// "count" is the lifetime total; "next" is the gap-free poll cursor, a
	// Seq like /events' (a page may hold no match while it advances).
	writeJSON(w, http.StatusOK, map[string]any{"matches": out, "count": s.router.Totals().Matches, "next": next})
}

// readPage reads the page /events serves — or, matchesOnly, the match
// events of that same page — with the same cursor. Without a since cursor
// it reads from the oldest retained event atomically, so it can never
// race retention into a 410. ok is false after the 410 has been written.
func (s *Server) readPage(w http.ResponseWriter, since uint64, present bool, limit int, matchesOnly bool) (evs []ftoa.ShardEvent, next uint64, ok bool) {
	var err error
	switch {
	case !present && matchesOnly:
		evs, next = s.router.MatchesFromOldest(limit, nil)
	case !present:
		evs, next = s.router.EventsFromOldest(limit, nil)
	case matchesOnly:
		evs, next, err = s.router.Matches(since, limit, nil)
	default:
		evs, next, err = s.router.EventsLimit(since, limit, nil)
	}
	if err != nil {
		// The cursor points below the retention window: the client
		// restarts from the oldest still-readable cursor, losing only
		// the genuinely evicted events.
		writeJSON(w, http.StatusGone, map[string]any{
			"error": err.Error(),
			"next":  s.router.OldestCursor(),
		})
		return nil, 0, false
	}
	return evs, next, true
}
