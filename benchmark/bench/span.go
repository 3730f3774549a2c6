package bench

import (
	"encoding/json"
	"os"
	"time"
)

// Span is one timed call into a layer. Parent indexes the span that
// caused it (-1 for a root); spans of one batch share Batch.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Batch  int    `json:"batch"`
}

// Recorder keeps spans in memory until the run ends. A nil *Recorder
// records nothing, so the traced and untraced runs share one code path
// and differ only in the recorder they are handed. Not safe for
// concurrent use: the traced mirror runs on one goroutine.
type Recorder struct {
	t0    time.Time
	spans []Span
}

// NewRecorder preallocates room for capacity spans.
func NewRecorder(capacity int) *Recorder {
	return &Recorder{t0: time.Now(), spans: make([]Span, 0, capacity)}
}

// Begin opens a span and returns its index (-1 on a nil recorder).
func (r *Recorder) Begin(name string, parent, batch int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, Span{Name: name, Parent: parent, Batch: batch, Start: int64(time.Since(r.t0))})
	return len(r.spans) - 1
}

// End closes the span Begin returned.
func (r *Recorder) End(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = int64(time.Since(r.t0))
}

// Spans returns the recorded spans in Begin order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}

// WriteFile dumps the spans as a JSON array.
func (r *Recorder) WriteFile(path string) error {
	b, err := json.Marshal(r.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// SelfTimes returns, per span, its duration minus the part of its
// interval its direct children cover (children clipped to the parent,
// overlaps among them counted once). Spans must be in Begin order, which
// puts every child after its parent and siblings in start order.
func SelfTimes(spans []Span) []int64 {
	self := make([]int64, len(spans))
	covered := make([]int64, len(spans)) // per parent: end of the covered prefix so far
	for i, s := range spans {
		self[i] = s.End - s.Start
		covered[i] = s.Start
	}
	for _, s := range spans {
		p := s.Parent
		if p < 0 {
			continue
		}
		from, to := max(s.Start, covered[p]), min(s.End, spans[p].End)
		if to > from {
			self[p] -= to - from
			covered[p] = to
		}
	}
	return self
}

// SpanTotals sums count, duration and self time per span name.
type SpanTotals struct {
	Count int
	Total int64 // ns
	Self  int64 // ns
}

// Aggregate folds spans into per-name totals.
func Aggregate(spans []Span) map[string]SpanTotals {
	self := SelfTimes(spans)
	out := map[string]SpanTotals{}
	for i, s := range spans {
		t := out[s.Name]
		t.Count++
		t.Total += s.End - s.Start
		t.Self += self[i]
		out[s.Name] = t
	}
	return out
}
