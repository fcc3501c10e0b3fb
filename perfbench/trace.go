package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer. Spans of one
// workload call (one reconstructed video call or one decomposition step) share a Trace id; Parent is the enclosing span's
// ID, 0 for a root.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so the untraced run pays one nil check per call.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	next  int64
	spans []Span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanRef is an open span.
type spanRef struct {
	t     *tracer
	id    int64
	trace int64
	par   int64
	name  string
	start time.Time
}

// nextID allocates a span id.
func (t *tracer) nextID() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// root opens the first span of a new trace (one workload call,
// replication sweep or decomposition step); the trace id is its own.
func (t *tracer) root(name string) *spanRef {
	if t == nil {
		return nil
	}
	id := t.nextID()
	return &spanRef{t: t, id: id, trace: id, name: name, start: time.Now()}
}

// end closes the span.
func (s *spanRef) end() {
	if s == nil {
		return
	}
	now := time.Now()
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, Span{
		ID: s.id, Parent: s.par, Trace: s.trace, Name: s.name,
		Start: int64(s.start.Sub(s.t.epoch)), End: int64(now.Sub(s.t.epoch)),
	})
	s.t.mu.Unlock()
}

// child opens a span under s.
func (s *spanRef) child(name string) *spanRef {
	if s == nil {
		return nil
	}
	return &spanRef{t: s.t, id: s.t.nextID(), trace: s.trace, par: s.id, name: name, start: time.Now()}
}

// spanStat summarises the spans of one name.
type spanStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTimes derives, per span name, the total and self time: a span's
// duration minus the part of it its children cover.
func selfTimes(spans []Span) []spanStat {
	kids := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	by := map[string]*spanStat{}
	for _, s := range spans {
		st := by[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			by[s.Name] = st
		}
		dur := s.End - s.Start
		st.Count++
		st.TotalMs += float64(dur) / 1e6
		st.SelfMs += float64(dur-covered(s, kids[s.ID])) / 1e6
	}
	out := make([]spanStat, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMs > out[j].SelfMs })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent Span, children []Span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// spansNamed returns the durations of the spans called name.
func spansNamed(spans []Span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// layerSelf sums self time by layer, the span-name prefix before the
// first dot.
func layerSelf(stats []spanStat) map[string]float64 {
	out := map[string]float64{}
	for _, st := range stats {
		layer, _, _ := strings.Cut(st.Name, ".")
		out[layer] += st.SelfMs
	}
	return out
}

// writeTrace writes the spans and their self-time summary as JSON.
func writeTrace(path string, spans []Span, stats []spanStat) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	enc := json.NewEncoder(f)
	werr := enc.Encode(struct {
		SelfTimes []spanStat `json:"self_times"`
		Spans     []Span     `json:"spans"`
	}{stats, spans})
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("write trace %s: %w", path, werr)
	}
	return nil
}
