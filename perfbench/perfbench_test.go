package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestPercentileMatchesSortedReference checks the nearest-rank
// percentile against ranks read off an independently sorted copy.
func TestPercentileMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 10, 99, 100, 101, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		orig := append([]float64(nil), xs...)
		ref := append([]float64(nil), xs...)
		sort.Float64s(ref)
		for _, p := range []float64{1, 25, 50, 75, 90, 99, 100} {
			// Nearest rank: the smallest value with at least p% of the
			// samples at or below it.
			var want float64
			for _, v := range ref {
				below := 0
				for _, u := range ref {
					if u <= v {
						below++
					}
				}
				if float64(below) >= p/100*float64(n) {
					want = v
					break
				}
			}
			if got := percentile(xs, p); got != want {
				t.Errorf("n=%d p=%v: percentile %v, sorted reference %v", n, p, got, want)
			}
		}
		for i := range xs {
			if xs[i] != orig[i] {
				t.Fatalf("percentile reordered its input")
			}
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty input: %v, want 0", got)
	}
}

// TestOpenLoopChargesStallToLaterFrames runs the open-loop generator
// against a fake handler that stalls on one frame. Every frame due
// during the stall must report a latency that includes its wait for the
// stalled call, measured from its due time, and the generator must
// report itself late rather than shift the schedule.
func TestOpenLoopChargesStallToLaterFrames(t *testing.T) {
	const (
		gap     = 5 * time.Millisecond
		frames  = 40
		stallAt = 10
		stall   = 100 * time.Millisecond
	)
	var evs []event
	for i := 0; i < frames; i++ {
		evs = append(evs, event{due: time.Duration(i) * gap, frame: true, fn: func(time.Time) error {
			if i == stallAt {
				time.Sleep(stall)
			}
			return nil
		}})
	}
	t0 := time.Now()
	outs := runSchedule(t0, evs)
	stallEnd := outs[stallAt].end
	for i, o := range outs {
		if !o.frame || o.err != nil {
			t.Fatalf("frame %d: outcome %+v", i, o)
		}
		due := t0.Add(time.Duration(i) * gap)
		if i == stallAt && o.latency < stall {
			t.Errorf("stalled frame: latency %v, want >= %v", o.latency, stall)
		}
		if i > stallAt && due.Before(stallEnd) {
			// Queued behind the stall: the wait from its due time to the
			// end of the stall is part of its latency.
			if want := stallEnd.Sub(due); o.latency < want {
				t.Errorf("frame %d due during the stall: latency %v, want >= %v", i, o.latency, want)
			}
			if o.late < stallEnd.Sub(due) {
				t.Errorf("frame %d: late %v, want >= %v", i, o.late, stallEnd.Sub(due))
			}
		}
	}
	// The schedule is not shifted: once the backlog clears, frames go
	// out at their due times again.
	last := outs[frames-1]
	if want := t0.Add(time.Duration(frames-1) * gap); last.start.Before(want) {
		t.Errorf("last frame sent at %v before its due time %v", last.start.Sub(t0), want.Sub(t0))
	}
	// Frames due during the stall must count it: the p99 over all frames
	// carries the stall.
	var lat []time.Duration
	for _, o := range outs {
		lat = append(lat, o.latency)
	}
	if p99 := percentile(durMs(lat), 99); p99 < ms(stall)/2 {
		t.Errorf("p99 latency %v ms hides a %v stall", p99, stall)
	}
}

// TestSelfTimeSubtractsChildren checks self time against a hand-built
// span tree with overlapping children.
func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Trace: 1, Name: "loadgen.call", Start: 0, End: 100},
		{ID: 2, Parent: 1, Trace: 1, Name: "session.Feed", Start: 10, End: 40},
		{ID: 3, Parent: 1, Trace: 1, Name: "session.Feed", Start: 30, End: 50},
		{ID: 4, Parent: 1, Trace: 1, Name: "session.Drain", Start: 90, End: 120},
	}
	got := map[string]spanStat{}
	for _, st := range selfTimes(spans) {
		got[st.Name] = st
	}
	// The call covers [0,100); children cover [10,50) and [90,100).
	if s := got["loadgen.call"].SelfMs * 1e6; math.Abs(s-50) > 1e-6 {
		t.Errorf("call self %v ns, want 50", s)
	}
	if c := got["session.Feed"].Count; c != 2 {
		t.Errorf("feed count %d, want 2", c)
	}
}

// TestMidMeanIgnoresTails checks the interquartile mean on small inputs
// and that an extreme value does not move it.
func TestMidMeanIgnoresTails(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{7}, 7},
		{[]float64{8, 1, 7, 2, 6, 3, 5, 4}, 4.5},
		{[]float64{800, 1, 7, 2, 6, 3, 5, 4}, 4.5},
	} {
		if got := midMean(tc.xs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("midMean(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}
