package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"github.com/bgbuster/bgbuster"
	"github.com/bgbuster/bgbuster/internal/core"
	"github.com/bgbuster/bgbuster/internal/fleet"
	"github.com/bgbuster/bgbuster/internal/gallery"
	"github.com/bgbuster/bgbuster/internal/imagex"
	"github.com/bgbuster/bgbuster/internal/segment"
	"github.com/bgbuster/bgbuster/internal/session"
	"github.com/bgbuster/bgbuster/internal/vidstream"
)

// The decomposition pass times the layers' public functions one call at
// a time on the workload's own frames, on one goroutine (the sweep
// split alone needs a second, to overlap a replication sweep with
// feeds). Each reported time is a median over the calls.
const (
	decWarm    = 60 // frames fed before steady-state timing
	decFrames  = 60 // frames timed per step
	decRepeats = 5  // repeats of whole-object calls (open, checkpoint)
)

type decomposer struct {
	root    *spanRef
	out     map[string]float64
	unknown *core.StreamReconstructor // steady-state unknown-VB stream
}

// decompose runs the pass. pool[0] and pool[1] are the known-VB and
// unknown-VB entries of one clip. batch is the workload's session intake unit (1: Feed, else FeedN).
func decompose(tr *tracer, pool []*entry, batch int) (map[string]float64, error) {
	d := &decomposer{out: map[string]float64{}}
	known, unknown := pool[0], pool[1]
	steps := []struct {
		name string
		fn   func() error
	}{
		{"core", func() error { return d.core(known, unknown) }},
		{"kernels", func() error { return d.kernels(known) }},
		{"session", func() error { return d.session(known, batch) }},
		{"wire", func() error { return d.wire(known) }},
		{"fleet", func() error { return d.fleet(known) }},
		{"gallery", func() error { return d.gallery(pool) }},
	}
	for _, s := range steps {
		d.root = tr.root("decompose." + s.name)
		err := s.fn()
		d.root.end()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return d.out, nil
}

// timeCall times fn inside a span called name; the span is recorded
// outside the timed interval.
func (d *decomposer) timeCall(name string, fn func() error) (time.Duration, error) {
	sp := d.root.child(name)
	t := time.Now()
	err := fn()
	el := time.Since(t)
	sp.end()
	return el, err
}

// frameAt cycles through a clip's frames.
func frameAt(c *clip, i int) core.Frame { return c.frames[i%len(c.frames)] }

// memDelta runs fn n times and returns heap allocations and KiB per run.
func memDelta(n int, fn func(i int) error) (allocs, kib float64, err error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / 1024 / float64(n), nil
}

func (d *decomposer) core(known, unknown *entry) error {
	c := known.clip
	var opens []time.Duration
	for i := 0; i < decRepeats; i++ {
		el, err := d.timeCall("core.NewStream", func() error {
			_, err := core.NewStream(c.w, c.h, bgbuster.StreamAttackOptions(c.w, c.h, false, known.seed))
			return err
		})
		if err != nil {
			return err
		}
		opens = append(opens, el)
	}
	d.out["core.open_ms"] = median(durMs(opens))

	for _, e := range []*entry{known, unknown} {
		s, err := core.NewStream(c.w, c.h, e.opts())
		if err != nil {
			return err
		}
		for i := 0; i < decWarm; i++ {
			f := frameAt(c, i)
			if err := s.Feed(f.Img, f.Oracle); err != nil {
				return err
			}
		}
		var feeds []time.Duration
		for i := decWarm; i < decWarm+decFrames; i++ {
			f := frameAt(c, i)
			el, err := d.timeCall("core.Feed", func() error { return s.Feed(f.Img, f.Oracle) })
			if err != nil {
				return err
			}
			feeds = append(feeds, el)
		}
		if e.unknown {
			d.out["core.feed_unknown_ms"] = median(durMs(feeds))
			d.unknown = s
			continue
		}
		d.out["core.feed_known_ms"] = median(durMs(feeds))
		allocs, kib, err := memDelta(decFrames, func(i int) error {
			f := frameAt(c, decWarm+decFrames+i)
			return s.Feed(f.Img, f.Oracle)
		})
		if err != nil {
			return err
		}
		d.out["core.allocs_per_frame"] = allocs
		d.out["core.alloc_kb_per_frame"] = kib
		d.out["core.session_mb"] = float64(s.MemFootprint()) / (1 << 20)
	}
	return nil
}

// kernels times the per-frame stages of core Feed as their public
// functions: VB colour match against the known image and against the
// unknown-VB derivation, segmentation, dilation at φ and residue.
func (d *decomposer) kernels(known *entry) error {
	c := known.clip
	vb := bgbuster.BuiltinVirtualImage(c.vb, c.w, c.h)
	tol := core.DefaultOptions().MatchTol
	seg := segment.NewOfflineSegmenter(rand.New(rand.NewSource(known.seed)))
	recovered, coverage := imagex.New(c.w, c.h), imagex.NewMask(c.w, c.h)
	bbm, lb := imagex.NewMask(c.w, c.h), imagex.NewMask(c.w, c.h)
	var tKnown, tDerived, tSeg, tDil, tRes []time.Duration
	for i := decWarm; i < decWarm+decFrames; i++ {
		f := frameAt(c, i)
		var vbm, vcm *imagex.Mask
		el, _ := d.timeCall("core.VBMaskKnown", func() error { vbm = core.VBMaskKnown(f.Img, vb, tol); return nil })
		tKnown = append(tKnown, el)
		el, _ = d.timeCall("core.VBMaskDerived", func() error { core.VBMaskDerived(f.Img, d.unknown.Derived(), tol); return nil })
		tDerived = append(tDerived, el)
		el, _ = d.timeCall("segment.Segment", func() error { vcm = seg.Segment(f.Img, f.Oracle); return nil })
		tSeg = append(tSeg, el)
		el, _ = d.timeCall("imagex.DilateInto", func() error { bbm = vbm.DilateInto(bbm, core.DefaultPhi); return nil })
		tDil = append(tDil, el)
		if err := lb.ComplementOfUnion(bbm, vcm, 0, nil); err != nil {
			return err
		}
		el, err := d.timeCall("imagex.ApplyResidue", func() error {
			_, err := imagex.ApplyResidue(lb, f.Img, recovered, coverage, 0, nil, nil)
			return err
		})
		if err != nil {
			return err
		}
		tRes = append(tRes, el)
	}
	d.out["core.vbmask_known_ms"] = median(durMs(tKnown))
	d.out["core.vbmask_derived_ms"] = median(durMs(tDerived))
	d.out["segment.segment_ms"] = median(durMs(tSeg))
	d.out["imagex.dilate_ms"] = median(durMs(tDil))
	d.out["imagex.residue_ms"] = median(durMs(tRes))
	return nil
}

// session times intake calls on a queue deep enough never to block,
// the drain of the resulting backlog and the checkpoint encode of the
// finished call.
func (d *decomposer) session(known *entry, batch int) error {
	c := known.clip
	mgr := session.NewManager(session.Config{
		QueueDepth:         len(c.frames) + 1,
		DefaultQueuePolicy: session.PolicyBlock,
		BlockDeadline:      blockDeadline,
	})
	defer mgr.Close()
	const id = "decompose"
	sess, err := mgr.Open(id, c.w, c.h, known.opts())
	if err != nil {
		return err
	}
	var enq []time.Duration
	for off := 0; off < len(c.frames); off += batch {
		b := c.frames[off:min(off+batch, len(c.frames))]
		name, fn := "session.FeedN", func() error { return mgr.FeedN(id, b) }
		if batch == 1 {
			name, fn = "session.Feed", func() error { return mgr.Feed(id, b[0].Img, b[0].Oracle) }
		}
		el, err := d.timeCall(name, fn)
		if err != nil {
			return err
		}
		enq = append(enq, el)
	}
	d.out["session.enqueue_us"] = median(durMs(enq)) * 1000
	el, err := d.timeCall("session.Drain", func() error { return sess.Drain(drainTimeout) })
	if err != nil {
		return err
	}
	d.out["session.drain_ms"] = ms(el)
	var encs []time.Duration
	var data []byte
	for i := 0; i < decRepeats; i++ {
		el, err := d.timeCall("checkpoint.CheckpointBytes", func() (err error) {
			data, err = sess.CheckpointBytes()
			return err
		})
		if err != nil {
			return err
		}
		encs = append(encs, el)
	}
	d.out["checkpoint.encode_ms"] = median(durMs(encs))
	d.out["checkpoint.kb"] = float64(len(data)) / 1024
	return sess.Close()
}

// wire times the BBFL codec on MsgFeed messages carrying workload frames.
func (d *decomposer) wire(known *entry) error {
	c := known.clip
	msgFor := func(i int) *fleet.Message {
		return &fleet.Message{Type: fleet.MsgFeed, Spec: fleet.OpenSpec{ID: "decompose"}, Frames: []core.Frame{frameAt(c, i)}}
	}
	var tEnc, tDec []time.Duration
	var size int
	for i := 0; i < decFrames; i++ {
		msg := msgFor(i)
		var data []byte
		el, err := d.timeCall("fleet.Encode", func() (err error) { data, err = fleet.Encode(msg); return err })
		if err != nil {
			return err
		}
		tEnc = append(tEnc, el)
		size = len(data)
		el, err = d.timeCall("fleet.Decode", func() error { _, err := fleet.Decode(data); return err })
		if err != nil {
			return err
		}
		tDec = append(tDec, el)
	}
	_, kib, err := memDelta(decFrames, func(i int) error { _, err := fleet.Encode(msgFor(i)); return err })
	if err != nil {
		return err
	}
	d.out["fleet.encode_ms"] = median(durMs(tEnc))
	d.out["fleet.decode_ms"] = median(durMs(tDec))
	d.out["fleet.encode_alloc_kb"] = kib
	d.out["fleet.feed_msg_kb"] = float64(size) / 1024
	return nil
}

// fleet times unloaded feeds straight to a shard and through the
// coordinator, and the fleet's whole-session calls, on a fresh loopback
// fleet. The sweep split feeds through the coordinator back to back
// while a second goroutine replicates.
func (d *decomposer) fleet(known *entry) error {
	c := known.clip
	f, err := buildFleet()
	if err != nil {
		return err
	}
	defer f.close()
	shardCl, err := fleet.Dial(f.addrs[0], fleet.Limits{})
	if err != nil {
		return err
	}
	defer shardCl.Close()
	cl := f.client
	spec := func(id string) fleet.OpenSpec {
		return fleet.OpenSpec{ID: id, W: c.w, H: c.h, UnknownVB: known.unknown, Seed: known.seed}
	}
	timeAll := func(name string, n int, fn func(i int) error) ([]time.Duration, error) {
		var out []time.Duration
		for i := 0; i < n; i++ {
			el, err := d.timeCall(name, func() error { return fn(i) })
			if err != nil {
				return nil, err
			}
			out = append(out, el)
		}
		return out, nil
	}
	ids := []string{"decompose-0", "decompose-1", "decompose-2"}
	opens, err := timeAll("fleet.Client.Open", len(ids), func(i int) error { return cl.Open(spec(ids[i])) })
	if err != nil {
		return err
	}
	if err := shardCl.Open(spec("direct")); err != nil {
		return err
	}
	const feeds = decFrames / 2
	direct, err := timeAll("fleet.Client.Feed.shard", feeds, func(i int) error { return shardCl.Feed("direct", frameAt(c, i)) })
	if err != nil {
		return err
	}
	routed, err := timeAll("fleet.Client.Feed", feeds, func(i int) error { return cl.Feed(ids[i%len(ids)], frameAt(c, i)) })
	if err != nil {
		return err
	}
	drains, err := timeAll("fleet.Client.Drain", len(ids), func(i int) error { return cl.Drain(ids[i]) })
	if err != nil {
		return err
	}
	ckpts, err := timeAll("fleet.Client.Checkpoint", len(ids), func(i int) error { _, err := cl.Checkpoint(ids[i]); return err })
	if err != nil {
		return err
	}
	repls, err := timeAll("fleet.Coordinator.Replicate", decRepeats, func(int) error { return f.coord.Replicate() })
	if err != nil {
		return err
	}
	d.out["fleet.open_ms"] = median(durMs(opens))
	d.out["fleet.shard_feed_ms"] = median(durMs(direct))
	d.out["fleet.coord_feed_ms"] = median(durMs(routed))
	d.out["fleet.drain_ms"] = median(durMs(drains))
	d.out["fleet.checkpoint_ms"] = median(durMs(ckpts))
	d.out["fleet.replicate_ms"] = median(durMs(repls))

	// Sweep split: feed back to back for sweepFor while another
	// goroutine replicates every sweepGap.
	const sweepGap, sweepFor = 100 * time.Millisecond, 2 * time.Second
	var sweeps, fds []interval
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(sweepGap):
			}
			a := time.Now()
			_ = f.coord.Replicate() // a failed sweep still occupied the connections
			sweeps = append(sweeps, interval{a, time.Now()})
		}
	}()
	var ferr error
	for i, t0 := 0, time.Now(); time.Since(t0) < sweepFor; i++ {
		a := time.Now()
		if ferr = cl.Feed(ids[0], frameAt(c, i)); ferr != nil {
			break
		}
		fds = append(fds, interval{a, time.Now()})
	}
	close(stop)
	wg.Wait()
	if ferr != nil {
		return ferr
	}
	var in, out []time.Duration
	for _, fd := range fds {
		if overlaps(fd, sweeps) {
			in = append(in, fd.b.Sub(fd.a))
		} else {
			out = append(out, fd.b.Sub(fd.a))
		}
	}
	d.out["fleet.feed_p99_in_sweep_ms"] = percentile(durMs(in), 99)
	d.out["fleet.feed_p99_out_sweep_ms"] = percentile(durMs(out), 99)
	return nil
}

// overlaps reports whether fd intersects any of the intervals.
func overlaps(fd interval, ivs []interval) bool {
	for _, iv := range ivs {
		if fd.a.Before(iv.b) && iv.a.Before(fd.b) {
			return true
		}
	}
	return false
}

// gallery times the demuxer alone and the whole FeedComposite on the
// same composites, a 2-tile gallery of the pool's frames; the
// difference is the session fan-out.
func (d *decomposer) gallery(pool []*entry) error {
	known := pool[0]
	var parts []gallery.Participant
	for _, e := range []*entry{pool[0], pool[len(pool)-1]} {
		v := vidstream.New(callFPS)
		for i := 0; i < decFrames; i++ {
			if err := v.Append(frameAt(e.clip, i).Img); err != nil {
				return err
			}
		}
		parts = append(parts, gallery.Participant{Frames: v})
	}
	res, err := gallery.Compose(parts, gallery.Spec{Seed: known.seed})
	if err != nil {
		return err
	}
	composites := res.Video.Frames

	dm := gallery.NewDemuxer(galleryDemux)
	mgr := session.NewManager(session.Config{
		QueueDepth:         len(composites) + 1,
		DefaultQueuePolicy: session.PolicyBlock,
		BlockDeadline:      blockDeadline,
		Gallery: &session.GalleryConfig{
			Demux: galleryDemux,
			OptionsFor: func(id string, w, h int) core.Options {
				return bgbuster.StreamAttackOptions(w, h, false, known.seed)
			},
		},
	})
	defer mgr.Close()
	// Each composite goes to the lone demuxer and to the manager, whose
	// demuxer is in the same state, so each pair differs by the fan-out
	// alone; the median of the pairwise differences is reported. The
	// order alternates, so the call that finds the composite in cache is
	// the demuxer's as often as the manager's.
	var tDemux, fanout []time.Duration
	for i, f := range composites {
		var el, comp time.Duration
		demux := func() (err error) {
			el, err = d.timeCall("gallery.Demuxer.Feed", func() error { _, err := dm.Feed(f); return err })
			return err
		}
		feed := func() (err error) {
			comp, err = d.timeCall("session.FeedComposite", func() error { _, err := mgr.FeedComposite(f); return err })
			return err
		}
		first, second := demux, feed
		if i%2 == 1 {
			first, second = feed, demux
		}
		if err := errors.Join(first(), second()); err != nil {
			return err
		}
		tDemux = append(tDemux, el)
		fanout = append(fanout, comp-el)
	}
	d.out["gallery.demux_us"] = median(durMs(tDemux)) * 1000
	d.out["session.fanout_us"] = median(durMs(fanout)) * 1000
	return nil
}

var galleryDemux = gallery.Config{Rejoin: true}
