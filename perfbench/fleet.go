package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"github.com/bgbuster/bgbuster"
	"github.com/bgbuster/bgbuster/internal/core"
	"github.com/bgbuster/bgbuster/internal/fleet"
	"github.com/bgbuster/bgbuster/internal/session"
)

// fleetSys is a loopback fleet in the benchmark process: fleetShards
// shards configured as `bgbuster shard` configures them, and a
// coordinator configured as `bgbuster serve` configures it, served with
// fleet.Serve. Clients dial the coordinator.
type fleetSys struct {
	mgrs    []*session.Manager
	lns     []net.Listener
	addrs   []string
	coord   *fleet.Coordinator
	coordLn net.Listener
	serving sync.WaitGroup
	client  *fleet.Client // the generator's connection to the coordinator
}

const fleetShards = 2

func logStderr(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }

// shardOptions is the `bgbuster shard` OptionsFor.
func shardOptions(spec fleet.OpenSpec) core.Options {
	return bgbuster.StreamAttackOptions(spec.W, spec.H, spec.UnknownVB, spec.Seed)
}

// buildFleet starts the shards and the coordinator and dials a client
// to the coordinator.
func buildFleet() (*fleetSys, error) {
	f := &fleetSys{}
	for i := 0; i < fleetShards; i++ {
		mgr := session.NewManager(session.Config{AutoRestart: true, MaxRestarts: 5, Logf: logStderr})
		f.mgrs = append(f.mgrs, mgr)
		sh, err := fleet.NewShard(fleet.ShardConfig{Manager: mgr, OptionsFor: shardOptions, Logf: logStderr})
		if err != nil {
			f.close()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, err
		}
		f.lns = append(f.lns, ln)
		f.addrs = append(f.addrs, ln.Addr().String())
		f.serving.Add(1)
		go func() {
			defer f.serving.Done()
			_ = sh.Serve(ln) // returns when the listener closes
		}()
	}
	coord, err := fleet.NewCoordinator(fleet.CoordinatorConfig{
		Shards: f.addrs,
		Health: fleet.HealthConfig{ProbeInterval: 5 * time.Second},
		Logf:   logStderr,
	})
	if err != nil {
		f.close()
		return nil, err
	}
	f.coord = coord
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, err
	}
	f.coordLn = ln
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		_ = fleet.Serve(ln, coord, fleet.Limits{}, logStderr)
	}()
	cl, err := fleet.Dial(ln.Addr().String(), fleet.Limits{})
	if err != nil {
		f.close()
		return nil, err
	}
	f.client = cl
	return f, nil
}

// close stops the fleet and waits for every serving goroutine.
func (f *fleetSys) close() {
	if f.client != nil {
		_ = f.client.Close()
	}
	if f.coordLn != nil {
		_ = f.coordLn.Close()
	}
	if f.coord != nil {
		_ = f.coord.Close()
	}
	for _, ln := range f.lns {
		_ = ln.Close()
	}
	f.serving.Wait()
	for _, mgr := range f.mgrs {
		_ = mgr.Close()
	}
}

// The live-fleet workload: liveCalls concurrent calls at liveFPS each,
// open loop, from one generator goroutine with one client connection.
// Calls are short with staggered starts, so opens, identification
// windows and closes recur during the run, and the coordinator pulls
// every session's checkpoint each replicateEvery.
//
// 30 frames/s offered is a sixth of the ~185 frames/s the fleet
// sustains on an idle 2-core machine. Every frame crosses two wire hops
// that allocate ~14 MiB between them, so the collector runs nearly all
// the time, and on a shared 2-vCPU host each further concurrent call
// or generator connection widened the run-to-run spread of frame
// latency: 4 calls from 2 connections (60 frames/s) put the median
// frame latency anywhere between 10 and 28 ms on the same code, and
// 4 calls at 30 fps saturated the fleet under host CPU steal.
const (
	liveCalls      = 2
	liveFPS        = 15
	liveGap        = 500 * time.Millisecond // between a slot's calls
	replicateEvery = time.Second
	openLead       = 50 * time.Millisecond // open is due this long before frame 0
)

type liveSys struct {
	pool []*entry
	f    *fleetSys
}

func prepareLiveFleet(seed int64) (func() (system, time.Duration, error), error) {
	pool, err := callPool(seed)
	if err != nil {
		return nil, err
	}
	return func() (system, time.Duration, error) { return newLive(pool) }, nil
}

// newLive builds the fleet, dials the generator's client, opens a
// session and times until it has accepted its first frame. The warm-up
// session is closed outside the timing.
func newLive(pool []*entry) (system, time.Duration, error) {
	t0 := time.Now()
	f, err := buildFleet()
	if err != nil {
		return nil, 0, err
	}
	e := pool[0]
	spec := fleet.OpenSpec{ID: "setup", W: e.clip.w, H: e.clip.h, UnknownVB: e.unknown, Seed: e.seed}
	err = f.client.Open(spec)
	if err == nil {
		err = f.client.Feed(spec.ID, e.clip.frames[0])
	}
	if err != nil {
		f.close()
		return nil, 0, err
	}
	d := time.Since(t0)
	_ = f.client.CloseSession(spec.ID) // warm-up session: its result is not checked
	return &liveSys{pool: pool, f: f}, d, nil
}

func (l *liveSys) close() { l.f.close() }

// interval is a [start, end] time span.
type interval struct{ a, b time.Time }

func (l *liveSys) run(seconds float64, runNo int, tr *tracer) *runStats {
	st := &runStats{}
	callDur := time.Duration(callFrames) * time.Second / liveFPS
	window := time.Duration(seconds * float64(time.Second))

	// Plan every slot's calls: slot j starts callDur*j/liveCalls in and
	// runs calls back to back, liveGap apart: its first call, and then
	// every call that is at least half done by the end of the window.
	type planned struct {
		id    string
		e     *entry
		start time.Duration
	}
	var plan []planned
	for j := 0; j < liveCalls; j++ {
		start := callDur * time.Duration(j) / liveCalls
		for k := 0; k == 0 || start+callDur/2 < window; k++ {
			plan = append(plan, planned{
				id:    fmt.Sprintf("lf%d-s%d-c%d", runNo, j, k),
				e:     l.pool[(j+k)%len(l.pool)],
				start: start + openLead,
			})
			start += callDur + liveGap
		}
	}

	m := startMeter()
	t0 := time.Now()
	var sweeps []interval // written by the replicator, read after replWG.Wait
	stopRepl := make(chan struct{})
	var replWG sync.WaitGroup
	replWG.Add(1)
	go func() {
		defer replWG.Done()
		t := time.NewTicker(replicateEvery)
		defer t.Stop()
		for {
			select {
			case <-stopRepl:
				return
			case <-t.C:
				sp := tr.root("fleet.Coordinator.Replicate")
				a := time.Now()
				err := l.f.coord.Replicate()
				b := time.Now()
				sp.end()
				sweeps = append(sweeps, interval{a, b})
				if err != nil {
					logStderr("perfbench: replicate: %v", err)
				}
			}
		}
	}()

	cl := l.f.client
	var evs []event
	for _, p := range plan {
		c := &callRec{unknown: p.e.unknown}
		var root *spanRef // opened by the call's first event
		spec := fleet.OpenSpec{ID: p.id, W: p.e.clip.w, H: p.e.clip.h, UnknownVB: p.e.unknown, Seed: p.e.seed}
		evs = append(evs, event{due: p.start - openLead, fn: func(time.Time) error {
			root = tr.root("loadgen.call")
			sp := root.child("fleet.Client.Open")
			err := cl.Open(spec)
			sp.end()
			if err != nil {
				c.err = err
			}
			return err
		}})
		frameGap := time.Second / liveFPS
		for i, fr := range p.e.clip.frames {
			due := p.start + time.Duration(i)*frameGap
			evs = append(evs, event{due: due, frame: true, fn: func(start time.Time) error {
				if c.first.IsZero() {
					c.first = start
				}
				c.lastSend = start
				c.fed++
				sp := root.child("fleet.Client.Feed")
				err := cl.Feed(spec.ID, fr)
				sp.end()
				c.late = append(c.late, start.Sub(t0.Add(due)))
				c.frameLat = append(c.frameLat, time.Since(t0.Add(due)))
				if err != nil {
					c.errFrames++
					c.err = err
				}
				return err
			}})
		}
		// The call ends with its last frame: runSchedule's stable sort
		// keeps this event right behind it.
		lastDue := p.start + time.Duration(len(p.e.clip.frames)-1)*frameGap
		evs = append(evs, event{due: lastDue, fn: func(time.Time) error {
			l.finish(cl, root, spec.ID, p.e.ref, t0.Add(lastDue), c)
			root.end()
			st.add(c)
			return nil
		}})
	}
	outs := runSchedule(t0, evs)
	close(stopRepl)
	replWG.Wait()
	st.cost = m.finish()

	// Split feed latencies by whether a replication sweep overlapped
	// the feed: the head-of-line blocking signal.
	for _, o := range outs {
		if !o.frame {
			continue
		}
		if fd := (interval{o.start, o.end}); overlaps(fd, sweeps) {
			st.feedIn = append(st.feedIn, fd.b.Sub(fd.a))
		} else {
			st.feedOut = append(st.feedOut, fd.b.Sub(fd.a))
		}
	}
	return st
}

// finish drains a call through the coordinator, reads its intake
// counters, compares its checkpoint with ref and closes it.
func (l *liveSys) finish(cl *fleet.Client, root *spanRef, id string, ref []byte, lastDue time.Time, c *callRec) {
	sp := root.child("fleet.Client.Drain")
	err := cl.Drain(id)
	sp.end()
	c.last = time.Now()
	c.resultLat = c.last.Sub(lastDue)
	if err == nil {
		var snap fleet.SnapInfo
		if snap, err = cl.Snapshot(id); err == nil {
			c.dropped, c.rejected = snap.Dropped, snap.Rejected
			sp = root.child("fleet.Client.Checkpoint")
			var data []byte
			data, err = cl.Checkpoint(id)
			sp.end()
			c.match = err == nil && sameBytes(data, ref)
		}
	}
	sp = root.child("fleet.Client.CloseSession")
	cerr := cl.CloseSession(id)
	sp.end()
	if err = errors.Join(err, cerr); err != nil && c.err == nil {
		c.err = err
	}
}

func (l *liveSys) decompose(tr *tracer) (map[string]float64, error) {
	return decompose(tr, l.pool, 1)
}
