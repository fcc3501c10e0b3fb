package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"slices"
	"testing"
	"time"

	"github.com/bgbuster/bgbuster/internal/core"
	"github.com/bgbuster/bgbuster/internal/faultinject"
	"github.com/bgbuster/bgbuster/internal/fleet"
	"github.com/bgbuster/bgbuster/internal/fleet/autopilot"
	"github.com/bgbuster/bgbuster/internal/imagex"
	"github.com/bgbuster/bgbuster/internal/segment"
	"github.com/bgbuster/bgbuster/internal/session"
)

const electW, electH = 48, 36

const electTTL = 10 * time.Second

// electOptions is a deterministic profile — a two-image dictionary and
// the oracle segmenter — so any two sessions fed the same frames reach
// bit-identical checkpoints, whichever coordinator routed them.
func electOptions(spec fleet.OpenSpec) core.Options {
	o := core.DefaultOptions()
	o.KnownImages = map[string]*imagex.Image{
		"flat":  imagex.NewFilled(spec.W, spec.H, imagex.RGB{R: 20, G: 120, B: 220}),
		"other": imagex.NewFilled(spec.W, spec.H, imagex.RGB{R: 200, G: 10, B: 10}),
	}
	o.Segmenter = segment.OracleSegmenter{}
	o.ColorRefine = false
	return o
}

// electFrames is n frames of the "flat" VB with a moving leak.
func electFrames(n int) []core.Frame {
	frames := make([]core.Frame, n)
	for i := range frames {
		img := imagex.NewFilled(electW, electH, imagex.RGB{R: 20, G: 120, B: 220})
		for y := 6; y < 24; y++ {
			for x := 4 + i%8; x < 20+i%8; x++ {
				img.Set(x, y, imagex.RGB{R: 240, G: 240, B: 60})
			}
		}
		frames[i] = core.Frame{Img: img, Oracle: imagex.NewMask(electW, electH)}
	}
	return frames
}

// electShard is a live worker shard; kill closes its listener, which
// drops every connection the way a process death would.
type electShard struct {
	addr string
	ln   net.Listener
}

func (s *electShard) kill() { s.ln.Close() }

// sortedAddrs lists shard addresses in Coordinator.Members order.
func sortedAddrs(shards ...*electShard) []string {
	var out []string
	for _, s := range shards {
		out = append(out, s.addr)
	}
	slices.Sort(out)
	return out
}

func bootElectShard(t *testing.T) *electShard {
	t.Helper()
	mgr := session.NewManager(session.Config{})
	sh, err := fleet.NewShard(fleet.ShardConfig{Manager: mgr, OptionsFor: electOptions, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); sh.Serve(ln) }()
	t.Cleanup(func() { ln.Close(); <-done; mgr.Close() })
	return &electShard{addr: ln.Addr().String(), ln: ln}
}

// electStores is a 2-of-3 quorum store over in-memory replicas, and the
// replicas themselves so a test can read their raw bytes.
func electStores(t *testing.T) (*session.QuorumStore, []session.CheckpointStore) {
	t.Helper()
	reps := []session.CheckpointStore{session.NewMemStore(), session.NewMemStore(), session.NewMemStore()}
	qs, err := session.NewQuorumStore(reps, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	return qs, reps
}

// newElectCandidate builds a candidate on a fake clock with the
// synchronous (settle-free) claim, so tests step the election by Tick.
func newElectCandidate(t *testing.T, store session.CheckpointStore, clk faultinject.Clock, id string) *candidate {
	t.Helper()
	c, err := newCandidate(autopilot.ElectorConfig{Store: store, ID: id, TTL: electTTL, Settle: -1, Clock: clk, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func tick(t *testing.T, c *candidate) {
	t.Helper()
	if err := c.elector.Tick(); err != nil {
		t.Fatal(err)
	}
}

func electConfig(t *testing.T, store session.CheckpointStore, shards ...string) fleet.CoordinatorConfig {
	return fleet.CoordinatorConfig{
		Shards:   shards,
		Store:    store,
		Timeouts: fleet.Timeouts{Dial: 5 * time.Second, Read: 5 * time.Second, Write: 5 * time.Second},
		Logf:     t.Logf,
	}
}

// metaBytes is the raw MetaKey record on each replica (nil: absent).
func metaBytes(reps []session.CheckpointStore) [][]byte {
	out := make([][]byte, len(reps))
	for i, r := range reps {
		out[i], _ = r.Load(fleet.MetaKey)
	}
	return out
}

// TestElectBootstrapsFreshStore: with no fleet meta in the store, the
// elected candidate builds a fresh coordinator over -shards at the
// lease epoch — here epoch 2, because an earlier winner resigned
// before it ever coordinated.
func TestElectBootstrapsFreshStore(t *testing.T) {
	sA, sB := bootElectShard(t), bootElectShard(t)
	qs, _ := electStores(t)
	clk := faultinject.NewFakeClock(time.Unix(1_754_600_000, 0))

	first := newElectCandidate(t, qs, clk, "coord-0")
	tick(t, first)
	if err := first.resign(); err != nil {
		t.Fatal(err)
	}

	c := newElectCandidate(t, qs, clk, "coord-1")
	tick(t, c)
	coord, err := c.coordinate(electConfig(t, qs, sA.addr, sB.addr), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if l := c.elector.Lease(); l.Holder != "coord-1" || l.Epoch != 2 || coord.Epoch() != l.Epoch {
		t.Fatalf("coordinator epoch %d under lease %+v, want the lease epoch 2", coord.Epoch(), l)
	}
	if got := coord.Members(); !slices.Equal(got, sortedAddrs(sA, sB)) {
		t.Fatalf("bootstrap members = %v, want -shards", got)
	}
	if err := coord.Open(fleet.OpenSpec{ID: "call-00", W: electW, H: electH, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := fleet.TakeOver(electConfig(t, qs)); err != nil {
		t.Fatalf("the bootstrapped fleet left no meta to take over from: %v", err)
	}
}

// TestElectTakeOverFencesPredecessor is the one failover path end to
// end: c1 leads and coordinates a call, stops renewing, and a shard
// dies while it is frozen. Once the TTL passes a second candidate wins
// the lease, takes the fleet over from the stored meta (not from its
// own -shards), recovers the dead shard's session, and fences c1, whose
// next mutation fails with ErrDeposed. The call finishes bit-identical
// to a single-manager run.
func TestElectTakeOverFencesPredecessor(t *testing.T) {
	const total, failAt = 10, 4
	frames := electFrames(total)
	sA, sB := bootElectShard(t), bootElectShard(t)
	qs, _ := electStores(t)
	clk := faultinject.NewFakeClock(time.Unix(1_754_600_000, 0))

	spec := fleet.OpenSpec{W: electW, H: electH, Seed: 1}
	base := session.NewManager(session.Config{})
	defer base.Close()
	bs, err := base.Open("baseline", electW, electH, electOptions(spec))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if err := bs.Feed(f.Img, f.Oracle); err != nil {
			t.Fatal(err)
		}
	}
	if err := bs.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	want, err := bs.CheckpointBytes()
	if err != nil {
		t.Fatal(err)
	}

	cand1 := newElectCandidate(t, qs, clk, "coord-1")
	tick(t, cand1)
	c1, err := cand1.coordinate(electConfig(t, qs, sA.addr, sB.addr), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	byShard := map[string][]string{}
	var ids []string
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("call-%02d", i)
		ids = append(ids, id)
		spec.ID = id
		if err := c1.Open(spec); err != nil {
			t.Fatal(err)
		}
		if err := c1.FeedN(id, frames[:failAt]); err != nil {
			t.Fatal(err)
		}
		if err := c1.Drain(id); err != nil {
			t.Fatal(err)
		}
		byShard[c1.RouteOf(id)] = append(byShard[c1.RouteOf(id)], id)
	}
	if len(byShard[sA.addr]) == 0 || len(byShard[sB.addr]) == 0 {
		t.Fatalf("sessions did not spread over both shards: %v", byShard)
	}
	if err := c1.Replicate(); err != nil {
		t.Fatal(err)
	}

	// c1 freezes: no renewals. A shard dies in the gap, and the TTL runs
	// out.
	sA.kill()
	clk.Advance(electTTL + time.Second)
	cand2 := newElectCandidate(t, qs, clk, "coord-2")
	tick(t, cand2)
	c2, err := cand2.coordinate(electConfig(t, qs, "127.0.0.1:1"), nil)
	if err != nil {
		t.Fatalf("takeover: %v", err)
	}
	defer c2.Close()
	if l := cand2.elector.Lease(); l.Holder != "coord-2" || c2.Epoch() != l.Epoch || c2.Epoch() != 2 {
		t.Fatalf("successor epoch %d under lease %+v, want 2", c2.Epoch(), l)
	}
	if got := c2.Members(); !slices.Equal(got, sortedAddrs(sA, sB)) {
		t.Fatalf("successor members = %v, want the stored membership", got)
	}
	if resumed, _, failed := c2.Recoveries(); resumed != uint64(len(byShard[sA.addr])) || failed != 0 {
		t.Fatalf("takeover recoveries = (%d resumed, %d failed), want %d resumed", resumed, failed, len(byShard[sA.addr]))
	}

	// c1 has not ticked, so it still believes it leads; the shard fence
	// refuses it anyway.
	if err := c1.Feed(byShard[sB.addr][0], frames[failAt]); !errors.Is(err, fleet.ErrDeposed) {
		t.Fatalf("predecessor feed = %v, want ErrDeposed", err)
	}
	tick(t, cand1)
	select {
	case <-cand1.lost:
	default:
		t.Fatal("predecessor's candidate did not notice it lost the lease")
	}
	if !c1.Deposed() {
		t.Fatal("predecessor is not deposed")
	}

	for _, id := range ids {
		if err := c2.FeedN(id, frames[failAt:]); err != nil {
			t.Fatalf("successor feed %s: %v", id, err)
		}
		if err := c2.Drain(id); err != nil {
			t.Fatal(err)
		}
		got, err := c2.Checkpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("session %q diverged from the single-manager run across failover", id)
		}
	}
}

// TestElectFollowerNeverWritesMeta: a candidate that never wins the
// lease builds no coordinator, so the leader's BBFM meta stays
// byte-for-byte what the leader wrote.
func TestElectFollowerNeverWritesMeta(t *testing.T) {
	sA := bootElectShard(t)
	qs, reps := electStores(t)
	clk := faultinject.NewFakeClock(time.Unix(1_754_600_000, 0))

	leader := newElectCandidate(t, qs, clk, "coord-1")
	tick(t, leader)
	c1, err := leader.coordinate(electConfig(t, qs, sA.addr), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if err := c1.Open(fleet.OpenSpec{ID: "call-00", W: electW, H: electH, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	before := metaBytes(reps)
	if before[0] == nil {
		t.Fatal("leader wrote no meta")
	}

	follower := newElectCandidate(t, qs, clk, "coord-2")
	for i := 0; i < 3; i++ {
		clk.Advance(electTTL / 4)
		tick(t, leader)
		tick(t, follower)
	}
	if ok, _ := follower.elector.Leading(); ok {
		t.Fatal("follower took a live lease")
	}
	quit := make(chan struct{})
	close(quit)
	coord, err := follower.coordinate(electConfig(t, qs, sA.addr), quit)
	if coord != nil || err != nil {
		t.Fatalf("interrupted follower coordinate = (%v, %v), want (nil, nil)", coord, err)
	}
	for i, b := range metaBytes(reps) {
		if !bytes.Equal(b, before[i]) {
			t.Fatalf("replica %d meta changed under a follower", i)
		}
	}
}

// TestElectStaleWinnerFencesNoOne: a candidate that won the lease but
// lost it again before its takeover began must not take the fleet over
// — its TakeOver would fence the real leader out at a higher epoch.
func TestElectStaleWinnerFencesNoOne(t *testing.T) {
	sA := bootElectShard(t)
	qs, reps := electStores(t)
	clk := faultinject.NewFakeClock(time.Unix(1_754_600_000, 0))

	stale := newElectCandidate(t, qs, clk, "coord-1")
	tick(t, stale)
	clk.Advance(electTTL + time.Second)
	leader := newElectCandidate(t, qs, clk, "coord-2")
	tick(t, leader)
	c2, err := leader.coordinate(electConfig(t, qs, sA.addr), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.Open(fleet.OpenSpec{ID: "call-00", W: electW, H: electH, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	before := metaBytes(reps)

	tick(t, stale) // notices the successor's lease
	if coord, err := stale.coordinate(electConfig(t, qs, sA.addr), nil); coord != nil || !errors.Is(err, errLeaseLost) {
		t.Fatalf("stale winner coordinate = (%v, %v), want errLeaseLost", coord, err)
	}
	for i, b := range metaBytes(reps) {
		if !bytes.Equal(b, before[i]) {
			t.Fatalf("replica %d meta changed under a stale winner", i)
		}
	}
	if err := c2.Feed("call-00", electFrames(1)[0]); err != nil {
		t.Fatalf("the real leader was fenced: %v", err)
	}
}

// TestElectDeposedMidTakeOver: a candidate that loses the lease while
// its TakeOver runs (here: inside the takeover's first shard dial)
// ends up with a fenced coordinator and a closed lost channel.
func TestElectDeposedMidTakeOver(t *testing.T) {
	sA := bootElectShard(t)
	qs, _ := electStores(t)
	clk := faultinject.NewFakeClock(time.Unix(1_754_600_000, 0))

	first := newElectCandidate(t, qs, clk, "coord-0")
	tick(t, first)
	c0, err := first.coordinate(electConfig(t, qs, sA.addr), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	if err := c0.Open(fleet.OpenSpec{ID: "call-00", W: electW, H: electH, Seed: 1}); err != nil {
		t.Fatal(err)
	}

	clk.Advance(electTTL + time.Second)
	cand := newElectCandidate(t, qs, clk, "coord-1")
	tick(t, cand)
	rival := newElectCandidate(t, qs, clk, "coord-2")
	ccfg := electConfig(t, qs)
	deposed := false
	ccfg.Dial = func(addr string, lim fleet.Limits) (*fleet.Client, error) {
		if !deposed {
			deposed = true
			clk.Advance(electTTL + time.Second)
			tick(t, rival)
			tick(t, cand)
		}
		return fleet.DialTimeouts(addr, lim, ccfg.Timeouts)
	}
	coord, err := cand.coordinate(ccfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if !deposed || !coord.Deposed() {
		t.Fatalf("coordinator built under a lost lease is not fenced (dial hook ran: %v)", deposed)
	}
	select {
	case <-cand.lost:
	default:
		t.Fatal("lost not closed")
	}
}

// TestElectResignOnShutdown drives the candidate through its real loop
// on a fake clock, then resigns as a clean shutdown does: the loop
// stops first, the lease's expiry is zeroed, and the stopped loop never
// re-claims it.
func TestElectResignOnShutdown(t *testing.T) {
	qs, _ := electStores(t)
	clk := faultinject.NewFakeClock(time.Unix(1_754_600_000, 0))
	c := newElectCandidate(t, qs, clk, "coord-1")
	c.run(1)
	deadline := time.Now().Add(10 * time.Second)
	for ok, _ := c.elector.Leading(); !ok; ok, _ = c.elector.Leading() {
		if time.Now().After(deadline) {
			t.Fatal("the elector loop never won a vacant lease")
		}
		clk.Advance(time.Second)
		time.Sleep(time.Millisecond)
	}
	select {
	case epoch := <-c.elected:
		if epoch != 1 {
			t.Fatalf("elected at epoch %d, want 1", epoch)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("OnElected handed over no epoch")
	}

	if err := c.resign(); err != nil {
		t.Fatal(err)
	}
	if l := c.elector.Lease(); l.Holder != "coord-1" || l.Expires != 0 {
		t.Fatalf("lease after resign = %+v, want coord-1 with Expires 0", l)
	}
	// resign waited for the loop to exit, so nothing can tick now. The
	// pause only gives a loop that wrongly survived time to re-claim.
	clk.Advance(electTTL)
	time.Sleep(10 * time.Millisecond)
	if ok, _ := c.elector.Leading(); ok || c.elector.Lease().Expires != 0 {
		t.Fatal("the stopped loop re-claimed the released lease")
	}
	if err := c.resign(); err != nil {
		t.Fatalf("second resign: %v", err)
	}
}
