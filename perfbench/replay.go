package main

import (
	"fmt"
	"time"

	"github.com/bgbuster/bgbuster/internal/session"
)

// The replay workload: one closed-loop lane replaying recorded calls
// back to back into an in-process session.Manager as FeedN batches. A
// small queue under PolicyBlock makes intake wait for the
// reconstruction instead of losing frames, so a frame's intake latency
// follows the batch service time.
//
// One lane, not one per core: with a lane per core of a 2-vCPU shared
// host the session workers, the collector and the host's other tenants
// all contend for the same two processors, and the figures measured
// that contention more than the reconstruction. With one lane the
// collector has a processor to itself, and calls run one at a time, so
// each call's wall and CPU time are its own.
const (
	replayBatch = 16
	replayQueue = 1 // batches per session queue
	// blockDeadline is far above any batch's service time: a blocked
	// feed waits, it never times out into a drop.
	blockDeadline = 30 * time.Second
	drainTimeout  = 60 * time.Second
)

type replaySys struct {
	pool []*entry
	mgr  *session.Manager
}

func prepareReplay(seed int64) (func() (system, time.Duration, error), error) {
	pool, err := callPool(seed)
	if err != nil {
		return nil, err
	}
	return func() (system, time.Duration, error) { return newReplay(pool) }, nil
}

// newReplay builds the manager and opens a session, timing until its
// first batch is accepted. The warm-up session is closed again outside
// the timing.
func newReplay(pool []*entry) (system, time.Duration, error) {
	t0 := time.Now()
	mgr := session.NewManager(session.Config{
		QueueDepth:         replayQueue,
		DefaultQueuePolicy: session.PolicyBlock,
		BlockDeadline:      blockDeadline,
	})
	r := &replaySys{pool: pool, mgr: mgr}
	e := pool[0]
	sess, err := mgr.Open("setup", e.clip.w, e.clip.h, e.opts())
	if err == nil {
		err = mgr.FeedN("setup", e.clip.frames[:replayBatch])
	}
	if err != nil {
		r.close()
		return nil, 0, err
	}
	d := time.Since(t0)
	_ = sess.Close() // warm-up session: its result is not checked
	return r, d, nil
}

func (r *replaySys) close() { _ = r.mgr.Close() }

func (r *replaySys) run(seconds float64, runNo int, tr *tracer) *runStats {
	// Warm-up: one call of each mode, untimed and left out of the
	// result, so the timed run starts with the manager's buffers in use.
	warm := &runStats{}
	for k := 0; k < 2; k++ {
		r.call(fmt.Sprintf("r%d-warm-c%d", runNo, k), r.pool[k], time.Now(), warm, nil)
	}
	st := &runStats{closed: true}
	m := startMeter()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	ready := time.Now()
	// The lane stops only after a whole known+unknown pair, so it
	// reconstructs as many frames in each mode.
	for k := 0; k%2 == 1 || time.Now().Before(deadline); k++ {
		ready = r.call(fmt.Sprintf("r%d-c%d", runNo, k), r.pool[k%len(r.pool)], ready, st, tr)
	}
	st.cost = m.finish()
	return st
}

// call replays one entry: open, feed in batches, drain, compare the
// checkpoint with the reference, close. Closed loop: each batch is due
// when the previous call into the system returned (ready), and the next
// call is due when this one has closed.
func (r *replaySys) call(id string, e *entry, ready time.Time, st *runStats, tr *tracer) time.Time {
	c := &callRec{unknown: e.unknown}
	t0, cpu0 := time.Now(), cpuTime()
	defer func() {
		c.wall, c.cpu = time.Since(t0), cpuTime()-cpu0
		st.add(c)
	}()
	root := tr.root("loadgen.call")
	defer root.end()

	sp := root.child("session.Open")
	sess, err := r.mgr.Open(id, e.clip.w, e.clip.h, e.opts())
	sp.end()
	if err != nil {
		c.err = err
		return time.Now()
	}
	frames := e.clip.frames
	var lastDue time.Time
	for off := 0; off < len(frames); off += replayBatch {
		b := frames[off:min(off+replayBatch, len(frames))]
		start := time.Now()
		if c.first.IsZero() {
			c.first = start
		}
		sp := root.child("session.FeedN")
		err := r.mgr.FeedN(id, b)
		sp.end()
		end := time.Now()
		c.late = append(c.late, start.Sub(ready))
		for range b {
			c.frameLat = append(c.frameLat, end.Sub(ready))
		}
		c.fed += len(b)
		if err != nil {
			c.errFrames += len(b)
			c.err = err
		}
		lastDue, ready = ready, end
		c.lastSend = start
	}
	finishSession(root, sess, e.ref, lastDue, c)
	sp = root.child("session.Close")
	if err := sess.Close(); err != nil && c.err == nil {
		c.err = err
	}
	sp.end()
	return time.Now()
}

// finishSession drains a session, reads its intake counters and checks
// its checkpoint bytes against ref. lastDue is when the call's last
// frame was due; the result is ready when the drain returns.
func finishSession(root *spanRef, sess *session.Session, ref []byte, lastDue time.Time, c *callRec) {
	sp := root.child("session.Drain")
	err := sess.Drain(drainTimeout)
	sp.end()
	c.last = time.Now()
	c.resultLat = c.last.Sub(lastDue)
	if err != nil {
		c.err = err
		return
	}
	snap := sess.Stats()
	c.dropped, c.rejected = snap.FramesDropped, snap.FramesRejected
	sp = root.child("checkpoint.CheckpointBytes")
	data, err := sess.CheckpointBytes()
	sp.end()
	if err != nil {
		c.err = err
		return
	}
	c.match = sameBytes(data, ref)
}

func (r *replaySys) decompose(tr *tracer) (map[string]float64, error) {
	return decompose(tr, r.pool, replayBatch)
}
