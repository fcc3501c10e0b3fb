package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/bgbuster/bgbuster"
	"github.com/bgbuster/bgbuster/internal/fleet"
	"github.com/bgbuster/bgbuster/internal/fleet/autopilot"
	"github.com/bgbuster/bgbuster/internal/session"
)

// runShard boots one worker shard: a session.Manager served over the
// fleet wire protocol. Reconstruction options are derived per session
// from the OpenSpec the coordinator sends (geometry, unknown-VB flag,
// seed), so one shard binary serves any mix of calls.
func runShard(args []string) error {
	fs := flag.NewFlagSet("shard", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:7601", "address to serve the fleet wire protocol on")
	ckptDir := fs.String("checkpoint-dir", "", "durable checkpoint directory (empty: none)")
	ckptEvery := fs.Duration("checkpoint-every", 30*time.Second, "periodic checkpoint interval (with -checkpoint-dir)")
	restart := fs.Bool("restart", true, "auto-restart failed sessions from their last-good checkpoint")
	maxRestarts := fs.Int("max-restarts", 5, "circuit breaker: restarts per session per minute")
	maxSessions := fs.Int("max-sessions", 0, "admission control: max open sessions (0: unlimited)")
	memBudget := fs.Int64("mem-budget", 0, "admission control: max summed stream footprint in bytes (0: unlimited)")
	join := fs.String("join", "", "coordinator address to join on startup (empty: wait to be listed)")
	advertise := fs.String("advertise", "", "address announced to the coordinator (default: the bound -listen address)")
	drainOnSigterm := fs.Bool("drain-on-sigterm", false, "ask the -join coordinator to migrate sessions off this shard before exiting")
	weight := fs.Int("weight", 0, "capacity weight announced to the -join coordinator (0: leave at 1; vnode multiplier, bigger = more sessions)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *drainOnSigterm && *join == "" {
		return fmt.Errorf("shard: -drain-on-sigterm requires -join (who would we ask?)")
	}
	if *weight != 0 && *join == "" {
		return fmt.Errorf("shard: -weight requires -join (the coordinator holds the weights)")
	}

	cfg := session.Config{
		MaxSessions: *maxSessions,
		MemBudget:   *memBudget,
		AutoRestart: *restart,
		MaxRestarts: *maxRestarts,
		Logf:        func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) },
	}
	if *ckptDir != "" {
		store, err := session.NewDirStore(*ckptDir)
		if err != nil {
			return err
		}
		cfg.Checkpoints = store
		cfg.CheckpointInterval = *ckptEvery
	}
	mgr := session.NewManager(cfg)
	defer mgr.Close()

	sh, err := fleet.NewShard(fleet.ShardConfig{
		Manager: mgr,
		OptionsFor: func(spec fleet.OpenSpec) bgbuster.ReconstructOptions {
			return bgbuster.StreamAttackOptions(spec.W, spec.H, spec.UnknownVB, spec.Seed)
		},
		Logf: cfg.Logf,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	fmt.Printf("shard: serving sessions on %s\n", ln.Addr())

	// Elastic membership: announce ourselves to a running coordinator
	// (which migrates the sessions whose arcs now map here), and on
	// SIGTERM optionally ask it to migrate them off again before we go.
	announced := *advertise
	if announced == "" {
		announced = ln.Addr().String()
	}
	if *join != "" {
		cl, jerr := fleet.Dial(*join, fleet.Limits{})
		if jerr == nil {
			jerr = cl.Join(announced)
			if jerr == nil && *weight != 0 {
				jerr = cl.SetWeight(announced, *weight)
			}
			cl.Close()
		}
		if jerr != nil {
			ln.Close()
			return fmt.Errorf("shard: join via %s: %w", *join, jerr)
		}
		if *weight != 0 {
			fmt.Printf("shard: joined fleet via %s as %s (weight %d)\n", *join, announced, *weight)
		} else {
			fmt.Printf("shard: joined fleet via %s as %s\n", *join, announced)
		}
	}
	onSignal := func() {}
	if *drainOnSigterm {
		onSignal = func() {
			cl, derr := fleet.Dial(*join, fleet.Limits{})
			if derr == nil {
				derr = cl.DrainShard(announced)
				cl.Close()
			}
			if derr != nil {
				fmt.Fprintf(os.Stderr, "shard: drain on sigterm: %v\n", derr)
				return
			}
			fmt.Printf("shard: drained %s out of the fleet\n", announced)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return serveUntil(ln, func() error { return sh.Serve(ln) }, ctx.Done(), nil, onSignal)
}

// runServe boots the fleet coordinator: consistent-hash routing of
// session ids over worker shards, quorum checkpoint replication,
// health-probed routing and shard-loss recovery onto the survivors.
// With -elect it is a candidate for the coordinator lease instead, and
// coordinates only once it wins (see candidate).
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:7600", "address to serve the fleet wire protocol on")
	shards := fs.String("shards", "", "comma-separated worker shard addresses (the bootstrap membership; a takeover adopts the stored one)")
	vnodes := fs.Int("vnodes", 0, "virtual nodes per shard on the hash ring (0: default 64)")
	ckptDir := fs.String("checkpoint-dir", "", "replicated checkpoint directories, comma-separated for multiple replicas (empty: in-memory)")
	replicas := fs.Int("replicas", 0, "replica factor N: stores written per checkpoint (0: all listed)")
	writeQuorum := fs.Int("write-quorum", 0, "write quorum W: successful replica writes required (0: majority of N)")
	replicate := fs.Duration("replicate-every", 15*time.Second, "checkpoint replication interval (0: on demand only)")
	probeEvery := fs.Duration("probe-every", 5*time.Second, "shard health probe interval (0: probes off)")
	autopilotOn := fs.Bool("autopilot", false, "run the hands-off control plane: load-aware rebalancing, auto re-admission, checkpoint scrubbing")
	rebalThresh := fs.Float64("rebalance-threshold", 0, "imbalance score that triggers rebalancing (0: default 0.25)")
	planEvery := fs.Duration("plan-every", 0, "rebalancing pass cadence (0: default 15s)")
	readmitAfter := fs.Int("readmit-after", 0, "consecutive healthy probes before a down shard is re-admitted (0: default 3)")
	quarantine := fs.Duration("quarantine", 0, "probation window between re-admission and full promotion (0: default 60s)")
	scrubEvery := fs.Duration("scrub-every", 0, "checkpoint scrub cadence (0: default 60s)")
	elect := fs.Bool("elect", false, "contend for the coordinator lease in the checkpoint store; coordinate (taking the fleet over) only after winning it")
	candidateID := fs.String("candidate-id", "", "this candidate's name in the lease record (default: host:listen)")
	leaseTTL := fs.Duration("lease-ttl", 0, "coordinator lease duration (0: default 15s)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	addrs := strings.Split(*shards, ",")
	clean := addrs[:0]
	for _, a := range addrs {
		if a = strings.TrimSpace(a); a != "" {
			clean = append(clean, a)
		}
	}
	if len(clean) == 0 {
		return fmt.Errorf("serve: -shards is required (comma-separated addresses)")
	}

	ccfg := fleet.CoordinatorConfig{
		Shards: clean,
		Vnodes: *vnodes,
		Health: fleet.HealthConfig{ProbeInterval: *probeEvery},
		Logf:   func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) },
	}
	var stores []session.CheckpointStore
	for _, dir := range strings.Split(*ckptDir, ",") {
		if dir = strings.TrimSpace(dir); dir == "" {
			continue
		}
		store, err := session.NewDirStore(dir)
		if err != nil {
			return err
		}
		stores = append(stores, store)
	}
	switch {
	case len(stores) == 1 && *replicas == 0 && *writeQuorum == 0:
		ccfg.Store = stores[0]
	case len(stores) > 0:
		qs, err := session.NewQuorumStore(stores, *replicas, *writeQuorum)
		if err != nil {
			return err
		}
		ccfg.Store = qs
	}
	if *elect && ccfg.Store == nil {
		return fmt.Errorf("serve: -elect requires -checkpoint-dir (the stores holding the lease and the fleet meta)")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var coord *fleet.Coordinator
	var cand *candidate
	var err error
	if *elect {
		id := *candidateID
		if id == "" {
			host, _ := os.Hostname()
			id = host + "/" + *listen
		}
		cand, err = newCandidate(autopilot.ElectorConfig{Store: ccfg.Store, ID: id, TTL: *leaseTTL, Logf: ccfg.Logf})
		if err != nil {
			return err
		}
		cand.run(time.Now().UnixNano())
		defer cand.resign()
		fmt.Printf("serve: %s waiting for the coordinator lease\n", id)
		if coord, err = cand.coordinate(ccfg, ctx.Done()); err != nil || coord == nil {
			return err
		}
		fmt.Printf("serve: %s holds the coordinator lease (epoch %d)\n", id, coord.Epoch())
	} else if coord, err = fleet.NewCoordinator(ccfg); err != nil {
		return err
	}
	defer coord.Close()

	stopRepl := make(chan struct{})
	defer close(stopRepl)
	if *replicate > 0 {
		go func() {
			// Jittered cadence (±25%) so many coordinators sharing a
			// replica backend don't slam it in lockstep.
			rng := rand.New(rand.NewSource(time.Now().UnixNano()))
			for {
				d := *replicate
				if q := d / 4; q > 0 {
					d = d - q + time.Duration(rng.Int63n(int64(2*q)+1))
				}
				select {
				case <-stopRepl:
					return
				case <-time.After(d):
					if err := coord.Replicate(); err != nil {
						fmt.Fprintf(os.Stderr, "serve: replicate: %v\n", err)
					}
				}
			}
		}()
	}

	if *autopilotOn {
		apCfg := autopilot.Config{
			Coordinator:  coord,
			Rebalance:    autopilot.RebalanceConfig{HighWater: *rebalThresh},
			PlanEvery:    *planEvery,
			ReadmitAfter: *readmitAfter,
			Quarantine:   *quarantine,
			ScrubEvery:   *scrubEvery,
			Seed:         time.Now().UnixNano(),
			Logf:         ccfg.Logf,
		}
		if cand != nil {
			apCfg.Elector = cand.elector
		}
		ap, aerr := autopilot.New(apCfg)
		if aerr != nil {
			return aerr
		}
		ap.Start()
		defer ap.Close()
		fmt.Printf("serve: autopilot engaged (threshold %.2f, elect %v)\n", ap.Status().Threshold, *elect)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	fmt.Printf("serve: coordinating %d shards on %s\n", len(coord.Members()), ln.Addr())
	serve := func() error { return fleet.Serve(ln, coord, fleet.Limits{}, ccfg.Logf) }
	if cand == nil {
		return serveUntil(ln, serve, ctx.Done(), nil, func() {})
	}
	return serveUntil(ln, serve, ctx.Done(), cand.lost, func() {
		if err := cand.resign(); err != nil {
			fmt.Fprintf(os.Stderr, "serve: resign lease: %v\n", err)
		}
	})
}

// candidate is one `serve -elect` process, and the fleet's one
// coordinator failover path (DESIGN.md §17–18): an elector contends
// for the coordinator lease in the shared checkpoint store, and only
// the winner builds a coordinator — by TakeOver at the lease epoch,
// which fences its predecessor at every shard. A lone candidate is a
// warm spare; a loser never touches the fleet meta.
type candidate struct {
	elector  *autopilot.Elector
	elected  chan uint64   // the won lease epoch
	lost     chan struct{} // closed once a held lease is lost
	lostOnce sync.Once

	mu    sync.Mutex
	coord *fleet.Coordinator // nil until coordinate builds it

	stop     chan struct{} // stops the elector loop
	stopOnce sync.Once
	loop     sync.WaitGroup
}

// newCandidate builds the elector; ecfg's callbacks are the
// candidate's own.
func newCandidate(ecfg autopilot.ElectorConfig) (*candidate, error) {
	c := &candidate{elected: make(chan uint64, 1), lost: make(chan struct{}), stop: make(chan struct{})}
	ecfg.OnElected = func(_, epoch uint64) {
		// This runs on the elector loop: hand the epoch over and
		// return, so a long takeover never misses a renewal.
		select {
		case c.elected <- epoch:
		default:
		}
	}
	ecfg.OnDeposed = c.depose
	var err error
	if c.elector, err = autopilot.NewElector(ecfg); err != nil {
		return nil, err
	}
	return c, nil
}

// depose self-fences the coordinator, if one is built yet — mutations
// refuse with ErrDeposed from here on — and closes lost.
func (c *candidate) depose() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.coord != nil {
		c.coord.Depose()
	}
	c.lostOnce.Do(func() { close(c.lost) })
}

// run starts the elector's one loop.
func (c *candidate) run(seed int64) {
	c.loop.Add(1)
	go func() {
		defer c.loop.Done()
		c.elector.Run(c.stop, seed)
	}()
}

// coordinate blocks until the candidate wins the lease, then takes the
// fleet over at the lease epoch (TakeOver raises it above the stored
// meta's when needed). A store with no fleet meta (ErrNoMeta) is the
// bootstrap case: a fresh coordinator over ccfg.Shards at the lease
// epoch. If quit closes before the win it returns nil, nil; a lease
// lost before the takeover begins returns errLeaseLost.
func (c *candidate) coordinate(ccfg fleet.CoordinatorConfig, quit <-chan struct{}) (*fleet.Coordinator, error) {
	select {
	case <-quit:
		return nil, nil
	case ccfg.Epoch = <-c.elected:
	}
	if ok, _ := c.elector.Leading(); !ok {
		return nil, errLeaseLost // deposed before the takeover began: fence no one
	}
	coord, err := fleet.TakeOver(ccfg)
	if errors.Is(err, fleet.ErrNoMeta) {
		coord, err = fleet.NewCoordinator(ccfg)
	}
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.coord = coord
	if ok, _ := c.elector.Leading(); !ok {
		coord.Depose() // deposed mid-takeover, before depose could see coord
	}
	return coord, nil
}

// resign stops the elector loop, then releases a held lease by zeroing
// its expiry so the next candidate need not wait out the TTL. The loop
// stops first so it cannot re-claim the lease it just released.
func (c *candidate) resign() error {
	c.stopOnce.Do(func() { close(c.stop) })
	c.loop.Wait()
	return c.elector.Resign()
}

// runStats dials a running coordinator and prints its aggregate fleet
// stats, per-shard load/health table, and — when the autopilot is
// engaged — its policy counters and lease, so an operator can watch a
// rebalance, re-admission, or election converge. Per-shard sample
// failures degrade to a DOWN/? placeholder row; they never fail the
// whole command.
func runStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7600", "coordinator address")
	verbose := fs.Bool("v", false, "also list open session ids")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cl, err := fleet.Dial(*addr, fleet.Limits{})
	if err != nil {
		return err
	}
	defer cl.Close()
	st, err := cl.Stats()
	if err != nil {
		return err
	}
	hi, err := cl.Health()
	if err != nil {
		return err
	}
	fmt.Printf("fleet %s  epoch %d\n", *addr, hi.Epoch)
	fmt.Printf("sessions open %d  opened %d  restores %d  restarts %d  migrations %d\n",
		st.Open, st.Opened, st.Restores, st.Restarts, st.Migrations)

	if ai, aerr := cl.AutopilotStatus(); aerr == nil && ai.Enabled {
		fmt.Printf("autopilot: imbalance %.3f (threshold %.2f)  passes %d  moves %d  readmitted %d  promoted %d  probation %d\n",
			ai.Imbalance, ai.Threshold, ai.Passes, ai.Moves, ai.Readmitted, ai.Promoted, ai.Probation)
		fmt.Printf("scrub: checked %d  repaired %d  swept %d  stuck %d  orphaned-deletes %d\n",
			ai.ScrubChecked, ai.ScrubRepairs, ai.ScrubSwept, ai.ScrubStuck, ai.OrphanDels)
		if ai.LeaseHolder != "" {
			held := "follower"
			if ai.LeaseHeld {
				held = "leader"
			}
			fmt.Printf("lease: %s  held-by %s  term %d  epoch %d  expires %s\n",
				held, ai.LeaseHolder, ai.LeaseTerm, ai.LeaseEpoch,
				time.Unix(0, ai.LeaseExpires).UTC().Format(time.RFC3339))
		}
	}

	// Health rows are authoritative for membership; load rows (which
	// degrade per shard) fill in the capacity columns when available.
	loads := map[string]fleet.ShardLoad{}
	if rows, lerr := cl.Load(); lerr == nil {
		for _, r := range rows {
			loads[r.Addr] = r
		}
	}
	fmt.Printf("%-28s %-8s %3s %5s %9s %8s %s\n", "SHARD", "HEALTH", "WT", "SESS", "MEM", "FEED-us", "FAILS")
	for _, s := range hi.Shards {
		state := fleet.HealthState(s.State).String()
		row, ok := loads[s.Addr]
		if !ok || row.Err != "" {
			// Placeholder row: the shard could not be sampled.
			if row.Err != "" {
				state = "DOWN"
			}
			fmt.Printf("%-28s %-8s %3s %5s %9s %8s %d\n", s.Addr, state, "?", "?", "?", "?", s.Fails)
			continue
		}
		fmt.Printf("%-28s %-8s %3d %5d %9s %8d %d\n",
			s.Addr, state, row.Weight, len(row.Sess), fmtBytes(row.Mem), row.FeedMicros, s.Fails)
	}
	if *verbose {
		for _, id := range st.IDs {
			fmt.Printf("session %s\n", id)
		}
	}
	return nil
}

// errLeaseLost ends a candidate whose lease another candidate took.
var errLeaseLost = errors.New("serve: lost the coordinator lease (restart to stand again)")

// serveUntil runs serve until quit or lost closes, then closes the
// listener. On quit, onSignal runs first (draining this shard out of
// the fleet, resigning the coordinator lease) and the resulting accept
// error reads as a clean exit. A closed lost means another candidate
// took the lease: the coordinator is fenced and can only refuse.
func serveUntil(ln net.Listener, serve func() error, quit, lost <-chan struct{}, onSignal func()) error {
	done := make(chan error, 1)
	go func() { done <- serve() }()
	select {
	case <-quit:
		onSignal()
		ln.Close()
		<-done
		return nil
	case <-lost:
		ln.Close()
		<-done
		return errLeaseLost
	case err := <-done:
		return err
	}
}
