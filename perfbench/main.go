// Command perfbench is the repository benchmark: it runs one named
// workload against the reconstruction system for a fixed time, checks
// every reconstruction against a single-threaded reference, and prints
// the result as one JSON line. See README.md for the workloads, the
// metrics and what each layer metric is expected to move.
//
//	perfbench --workload replay --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 it
// runs the workload twice for half the time each, untraced and then
// with spans recorded around every call into a layer, adds a
// single-goroutine decomposition pass over the layers' public
// functions, writes the spans to .bench_build/trace-<workload>-<seed>.json
// and prints the per-layer metrics and the tracing overhead.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// system is a workload's running system, built by a timed set-up.
type system interface {
	// run drives the workload for the given time; runNo keeps session
	// ids of successive runs on one system apart.
	run(seconds float64, runNo int, tr *tracer) *runStats
	// decompose times the layers' public calls on the workload's own
	// frames and returns the per-layer metrics.
	decompose(tr *tracer) (map[string]float64, error)
	close()
}

// workloads generate their inputs from a seed (untimed) and return the
// set-up that builds their system and times it (setup_s).
var workloads = map[string]func(seed int64) (build func() (system, time.Duration, error), err error){
	"replay":     prepareReplay,
	"live-fleet": prepareLiveFleet,
}

// setupRepeats is how many times set-up is timed; setup_s is the median.
// Each set-up starts after a collection, so that none of them pays for
// the garbage the inputs or an earlier set-up left.
const setupRepeats = 41

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: replay or live-fleet")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 30, "measured time per run")
	traceOn := fs.Int("trace", 0, "1: traced run printing per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	prepare, ok := workloads[*name]
	if !ok {
		return 2, fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 {
		return 2, errors.New("--seconds must be positive")
	}

	t0 := time.Now()
	build, err := prepare(*seed)
	if err != nil {
		return 1, fmt.Errorf("inputs: %w", err)
	}
	fmt.Fprintf(os.Stderr, "inputs and references: %.1f s\n", time.Since(t0).Seconds())
	var sys system
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		s, d, err := build()
		if err != nil {
			return 1, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
		if i < setupRepeats-1 {
			s.close()
		} else {
			sys = s
		}
	}
	defer sys.close()
	fmt.Fprintf(os.Stderr, "set-up: median %.4f s, range %.4f-%.4f s over %d\n",
		median(setups), percentile(setups, 0), percentile(setups, 100), len(setups))

	res := result{Correct: true, Metrics: map[string]metric{}}
	if *traceOn == 0 {
		st := sys.run(*seconds, 0, nil)
		st.e2e(res.Metrics, median(setups))
		res.fill(st)
	} else {
		plain := sys.run(*seconds/2, 0, nil)
		tr := newTracer()
		traced := sys.run(*seconds/2, 1, tr)
		own := traced.own(tr.spans)
		dec, err := sys.decompose(tr)
		if err != nil {
			return 1, fmt.Errorf("decomposition: %w", err)
		}
		stats := selfTimes(tr.spans)
		path := fmt.Sprintf(".bench_build/trace-%s-%d.json", *name, *seed)
		if err := writeTrace(path, tr.spans, stats); err != nil {
			return 1, err
		}
		for layer, self := range layerSelf(stats) {
			fmt.Fprintf(os.Stderr, "self time %-10s %10.1f ms\n", layer, self)
		}
		res.layers(plain, traced, dec, own, len(tr.spans))
		res.fill(plain)
		res.fill(traced)
	}
	res.print()
	if !res.Correct {
		return 1, fmt.Errorf("%d of %d frames failed or mismatched their reference", res.Failed, res.Attempted)
	}
	return 0, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fill adds a run's frame counts; the result is correct only if every
// run verified frames and none failed.
func (r *result) fill(st *runStats) {
	r.Correct = r.Correct && st.failed == 0 && st.verified > 0 && st.attempted == st.verified
	r.Attempted += st.attempted
	r.Failed += st.failed
	for _, e := range st.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failure:", e)
	}
}

func (r *result) print() {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // only float NaN/Inf can fail, and metrics guard against them
	}
	fmt.Println(string(b))
}

// runStats is what one run measured.
type runStats struct {
	mu         sync.Mutex
	attempted  int // frames offered
	failed     int // frames of calls that were not reconstructed exactly
	verified   int // frames of calls that matched their reference
	dropped    uint64
	rejected   uint64
	first      time.Time    // first frame sent
	last       time.Time    // last call drained
	lastSend   time.Time    // last frame sent
	frames     [2]int       // latency samples, by mode: known-VB, unknown-VB
	frameLat   [2][]float64 // ms, every frame's latency
	callP99    [2][]float64 // ms, each call's p99 frame latency
	resultLat  [2][]float64 // ms
	late       []time.Duration
	feedIn     []time.Duration
	feedOut    []time.Duration
	cost       cost
	errs       []string
	totalCalls int
	// Closed loop only: each call's wall time and process CPU time per
	// frame, by mode, in ms. Calls run one at a time, so the process
	// CPU over a call is that call's cost.
	closed       bool
	callMsPerFr  [2][]float64
	callCPUPerFr [2][]float64
}

// callRec is one call's share of a run, merged under the run's lock.
type callRec struct {
	unknown           bool
	fed, errFrames    int
	dropped, rejected uint64
	match             bool
	first, last       time.Time // first frame sent, call drained
	lastSend          time.Time
	frameLat, late    []time.Duration
	resultLat         time.Duration
	wall, cpu         time.Duration // closed loop: open to close
	err               error
}

func (st *runStats) add(c *callRec) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.totalCalls++
	st.attempted += c.fed
	st.dropped += c.dropped
	st.rejected += c.rejected
	if c.last.After(st.last) {
		st.last = c.last
	}
	if c.match && c.err == nil && c.errFrames == 0 && c.dropped == 0 && c.rejected == 0 {
		st.verified += c.fed
	} else {
		st.failed += c.fed
		if len(st.errs) < 5 {
			st.errs = append(st.errs, fmt.Sprintf("call: fed %d, failed sends %d, dropped %d, rejected %d, matches reference %v, err %v",
				c.fed, c.errFrames, c.dropped, c.rejected, c.match, c.err))
		}
	}
	if !c.first.IsZero() && (st.first.IsZero() || c.first.Before(st.first)) {
		st.first = c.first
	}
	if c.lastSend.After(st.lastSend) {
		st.lastSend = c.lastSend
	}
	mode := 0
	if c.unknown {
		mode = 1
	}
	st.resultLat[mode] = append(st.resultLat[mode], ms(c.resultLat))
	if lat := durMs(c.frameLat); len(lat) > 0 {
		st.frames[mode] += len(lat)
		st.frameLat[mode] = append(st.frameLat[mode], lat...)
		st.callP99[mode] = append(st.callP99[mode], percentile(lat, 99))
	}
	st.late = append(st.late, c.late...)
	if c.wall > 0 && c.fed > 0 {
		st.callMsPerFr[mode] = append(st.callMsPerFr[mode], ms(c.wall)/float64(c.fed))
		st.callCPUPerFr[mode] = append(st.callCPUPerFr[mode], ms(c.cpu)/float64(c.fed))
	}
}

// throughput is the frames verified per second from the first frame
// sent to the last call drained.
func (st *runStats) throughput() float64 {
	if wall := st.last.Sub(st.first).Seconds(); wall > 0 {
		return float64(st.verified) / wall
	}
	return 0
}

// balanced applies stat to each attack mode's samples and averages the
// results over the modes present. Known-VB and unknown-VB calls cost
// different amounts, so a statistic of the pooled samples of a mixed run
// falls in the gap between the two modes and jumps with the one-call
// imbalance a timed run ends on.
func balanced(by [2][]float64, stat func([]float64) float64) float64 {
	var sum float64
	n := 0
	for _, xs := range by {
		if len(xs) > 0 {
			sum += stat(xs)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// guard keeps a ratio finite when a run verified nothing (it is then
// reported as incorrect anyway).
func guard(n int) float64 {
	if n <= 0 {
		return 1
	}
	return float64(n)
}

// e2e writes the end-to-end metrics.
func (st *runStats) e2e(m map[string]metric, setupS float64) {
	frames := guard(st.verified)
	fps, cpu := st.throughput(), ms(st.cost.CPU)/frames
	if st.closed {
		// A closed loop's rate and cost are taken from its median call
		// of each mode: a host stall that slows a few calls moves them
		// less than it moves the run's totals.
		fps = 1000 / balanced(st.callMsPerFr, median)
		cpu = balanced(st.callCPUPerFr, median)
	}
	m["frames_per_s"] = metric{fps, "frames/s"}
	m["cpu_ms_per_frame"] = metric{cpu, "ms"}
	m["alloc_kb_per_frame"] = metric{float64(st.cost.AllocBytes) / 1024 / frames, "KiB"}
	m["peak_heap_mb"] = metric{st.cost.PeakHeap / (1 << 20), "MiB"}
	m["setup_s"] = metric{setupS, "s"}
	fmt.Fprintf(os.Stderr, "run: %d calls, %d frames verified of %d, %d+%d frame-latency samples, %d heap samples\n",
		st.totalCalls, st.verified, st.attempted, st.frames[0], st.frames[1], st.cost.HeapSamples)
}

// perLayerUnits gives every per-layer metric its unit; a traced run
// prints exactly these.
var perLayerUnits = map[string]string{
	"core.feed_known_ms":          "ms",
	"core.feed_unknown_ms":        "ms",
	"core.vbmask_known_ms":        "ms",
	"core.vbmask_derived_ms":      "ms",
	"segment.segment_ms":          "ms",
	"imagex.dilate_ms":            "ms",
	"imagex.residue_ms":           "ms",
	"core.allocs_per_frame":       "count",
	"core.alloc_kb_per_frame":     "KiB",
	"core.open_ms":                "ms",
	"core.session_mb":             "MiB",
	"session.enqueue_us":          "us",
	"session.drain_ms":            "ms",
	"session.dropped":             "count",
	"session.rejected":            "count",
	"session.fanout_us":           "us",
	"checkpoint.encode_ms":        "ms",
	"checkpoint.kb":               "KiB",
	"fleet.encode_ms":             "ms",
	"fleet.decode_ms":             "ms",
	"fleet.encode_alloc_kb":       "KiB",
	"fleet.feed_msg_kb":           "KiB",
	"fleet.shard_feed_ms":         "ms",
	"fleet.coord_feed_ms":         "ms",
	"fleet.open_ms":               "ms",
	"fleet.drain_ms":              "ms",
	"fleet.checkpoint_ms":         "ms",
	"fleet.replicate_ms":          "ms",
	"fleet.feed_p99_in_sweep_ms":  "ms",
	"fleet.feed_p99_out_sweep_ms": "ms",
	"gallery.demux_us":            "us",
	"loadgen.frame_p50_ms":        "ms",
	"loadgen.frame_p99_ms":        "ms",
	"loadgen.result_p50_ms":       "ms",
	"loadgen.late_p99_ms":         "ms",
	"loadgen.offered_fps":         "frames/s",
	"trace.overhead_pct":          "%",
	"trace.spans":                 "count",
}

// layers writes the per-layer metrics: the decomposition pass's, then
// those the traced workload run measured on its own calls, which take
// precedence, then the tracing overhead.
func (r *result) layers(plain, traced *runStats, dec, own map[string]float64, spans int) {
	for k, v := range dec {
		r.Metrics[k] = metric{v, perLayerUnits[k]}
	}
	for k, v := range own {
		r.Metrics[k] = metric{v, perLayerUnits[k]}
	}
	// The workload's frame and result latencies, from the untraced half.
	// They are too noisy on a shared host to gate as end-to-end metrics.
	r.Metrics["loadgen.frame_p50_ms"] = metric{balanced(plain.frameLat, median), "ms"}
	r.Metrics["loadgen.frame_p99_ms"] = metric{balanced(plain.callP99, midMean), "ms"}
	r.Metrics["loadgen.result_p50_ms"] = metric{balanced(plain.resultLat, midMean), "ms"}
	cpu := func(st *runStats) float64 { return ms(st.cost.CPU) / guard(st.verified) }
	r.Metrics["trace.overhead_pct"] = metric{100 * (cpu(traced)/cpu(plain) - 1), "%"}
	r.Metrics["trace.spans"] = metric{float64(spans), "count"}
	var missing []string
	for k := range perLayerUnits {
		if _, ok := r.Metrics[k]; !ok {
			missing = append(missing, k)
		}
	}
	for k := range r.Metrics {
		if _, ok := perLayerUnits[k]; !ok {
			missing = append(missing, "unexpected "+k)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		panic("per-layer metrics out of step with perLayerUnits: " + strings.Join(missing, ", "))
	}
}

// ownSpans maps per-layer metrics to the span of the workload's own
// call they take the median of, when the workload makes that call.
var ownSpans = map[string]string{
	"session.drain_ms":    "session.Drain",
	"fleet.open_ms":       "fleet.Client.Open",
	"fleet.drain_ms":      "fleet.Client.Drain",
	"fleet.checkpoint_ms": "fleet.Client.Checkpoint",
	"fleet.replicate_ms":  "fleet.Coordinator.Replicate",
}

// own returns the per-layer metrics the traced run measured on its own
// calls: its generator and intake counts always, and the calls named in
// ownSpans and the sweep split where the workload makes them.
func (st *runStats) own(spans []Span) map[string]float64 {
	wall := st.lastSend.Sub(st.first).Seconds()
	if wall <= 0 {
		wall = 1e-9
	}
	m := map[string]float64{
		"session.dropped":     float64(st.dropped),
		"session.rejected":    float64(st.rejected),
		"loadgen.late_p99_ms": percentile(durMs(st.late), 99),
		"loadgen.offered_fps": float64(st.attempted) / wall,
	}
	for k, name := range ownSpans {
		if d := spansNamed(spans, name); len(d) > 0 {
			m[k] = median(durMs(d))
		}
	}
	if len(st.feedIn) > 0 && len(st.feedOut) > 0 {
		m["fleet.feed_p99_in_sweep_ms"] = percentile(durMs(st.feedIn), 99)
		m["fleet.feed_p99_out_sweep_ms"] = percentile(durMs(st.feedOut), 99)
	}
	return m
}
