package main

import (
	"sort"
	"time"
)

// event is one action an open-loop generator performs at a fixed
// offset from the start of the run, whatever happened before it.
type event struct {
	due   time.Duration
	frame bool // a frame delivery: its latency and lateness are recorded
	fn    func(start time.Time) error
}

// outcome is what happened to one event. Latency runs from the due
// time, not from when the generator got round to the event, so a stall
// in an earlier call is charged to every frame it delayed.
type outcome struct {
	frame   bool
	late    time.Duration // how far behind schedule the call began
	latency time.Duration // due time to return
	start   time.Time
	end     time.Time
	err     error
}

// runSchedule performs evs in due order on the calling goroutine,
// sleeping until each is due and never skipping one that is overdue.
func runSchedule(t0 time.Time, evs []event) []outcome {
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].due < evs[j].due })
	out := make([]outcome, len(evs))
	for i, ev := range evs {
		due := t0.Add(ev.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		start := time.Now()
		err := ev.fn(start)
		end := time.Now()
		out[i] = outcome{frame: ev.frame, late: start.Sub(due), latency: end.Sub(due), start: start, end: end, err: err}
	}
	return out
}
