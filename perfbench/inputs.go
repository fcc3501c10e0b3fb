package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"syscall"
	"unsafe"

	"github.com/bgbuster/bgbuster"
	"github.com/bgbuster/bgbuster/internal/core"
	"github.com/bgbuster/bgbuster/internal/dataset"
	"github.com/bgbuster/bgbuster/internal/imagex"
)

// clip is one recorded call as the attacker receives it: E2 frames
// composited with the Zoom profile over a built-in virtual background,
// each with the caller silhouette the simulated segmenter reads.
type clip struct {
	w, h   int
	vb     string
	frames []core.Frame
}

// entry is one (clip, mode, option seed) a workload replays, with the
// checkpoint bytes a single-threaded reconstructor ends on after being
// fed the same frames under the same options.
type entry struct {
	clip    *clip
	unknown bool
	seed    int64
	ref     []byte
}

func (e *entry) opts() core.Options {
	return bgbuster.StreamAttackOptions(e.clip.w, e.clip.h, e.unknown, e.seed)
}

// renderClip renders an E2 call and composites it over a built-in VB.
func renderClip(call *dataset.Call, vb string, seed int64) (*clip, error) {
	r, err := call.Render()
	if err != nil {
		return nil, err
	}
	w, h := r.Raw.Size()
	comp, err := bgbuster.Compose(r.Raw, r.Silhouettes, bgbuster.ZoomProfile(),
		bgbuster.StaticImage{Img: bgbuster.BuiltinVirtualImage(vb, w, h)}, nil, seed)
	if err != nil {
		return nil, fmt.Errorf("compose %s: %w", call.ID, err)
	}
	imgs, err := offHeap(comp.Blended.Frames)
	if err != nil {
		return nil, err
	}
	c := &clip{w: w, h: h, vb: vb}
	for i, img := range imgs {
		c.frames = append(c.frames, core.Frame{Img: img, Oracle: r.Silhouettes[i]})
	}
	return c, nil
}

// offHeap copies the frames' pixels into one read-only anonymous
// mapping outside the Go heap. The pool's pixels are a few hundred MiB,
// far more than a serving process holds; on the heap they would raise
// the GC goal by as much and postpone the program's own collections. A
// write into an input frame faults. The mapping lives as long as the
// process, like the pool.
func offHeap(frames []*imagex.Image) ([]*imagex.Image, error) {
	n := 0
	for _, f := range frames {
		n += len(f.Pix)
	}
	size := n * int(unsafe.Sizeof(imagex.RGB{}))
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map input frames: %w", err)
	}
	pix := unsafe.Slice((*imagex.RGB)(unsafe.Pointer(unsafe.SliceData(mem))), n)
	out := make([]*imagex.Image, len(frames))
	for i, f := range frames {
		k := copy(pix, f.Pix)
		out[i] = &imagex.Image{W: f.W, H: f.H, Pix: pix[:k:k]}
		pix = pix[k:]
	}
	if err := syscall.Mprotect(mem, syscall.PROT_READ); err != nil {
		return nil, fmt.Errorf("protect input frames: %w", err)
	}
	return out, nil
}

// reference feeds frames to a fresh single-threaded reconstructor and
// returns its checkpoint bytes.
func reference(w, h int, frames []core.Frame, opts core.Options) ([]byte, error) {
	s, err := core.NewStream(w, h, opts)
	if err != nil {
		return nil, err
	}
	if _, rej, err := s.FeedN(frames); err != nil || rej != 0 {
		return nil, fmt.Errorf("reference feed: %d rejected, err %v", rej, err)
	}
	return s.Checkpoint()
}

// parallel runs fns on at most two goroutines and returns the first
// error.
func parallel(fns []func() error) error {
	sem := make(chan struct{}, 2)
	errs := make([]error, len(fns))
	var wg sync.WaitGroup
	for i, fn := range fns {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = fn()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Sizes of the replay and live-fleet calls.
const (
	callW, callH = 640, 360
	callFrames   = 150
	poolClips    = 2
	callFPS      = 30
)

// callPool renders poolClips distinct E2 calls picked by seed, each
// over a seed-picked built-in VB, and pairs each with both attack
// modes. Entries alternate known-VB and unknown-VB.
func callPool(seed int64) ([]*entry, error) {
	rng := rand.New(rand.NewSource(seed))
	cfg := dataset.DefaultConfig()
	cfg.W, cfg.H, cfg.E2Frames = callW, callH, callFrames
	calls := dataset.E2(cfg)
	names := bgbuster.BuiltinVirtualImageNames()
	picks := rng.Perm(len(calls))[:poolClips]
	clips := make([]*clip, poolClips)
	var fns []func() error
	for i, ci := range picks {
		vb := names[rng.Intn(len(names))]
		fns = append(fns, func() (err error) {
			clips[i], err = renderClip(calls[ci], vb, seed+int64(i))
			return err
		})
	}
	if err := parallel(fns); err != nil {
		return nil, err
	}
	var pool []*entry
	for i, c := range clips {
		for _, unknown := range []bool{false, true} {
			pool = append(pool, &entry{clip: c, unknown: unknown, seed: seed*16 + int64(2*i)})
		}
	}
	fns = fns[:0]
	for _, e := range pool {
		fns = append(fns, func() (err error) {
			e.ref, err = reference(e.clip.w, e.clip.h, e.clip.frames, e.opts())
			return err
		})
	}
	return pool, parallel(fns)
}

// sameBytes reports whether got equals the reference.
func sameBytes(got, want []byte) bool { return len(want) > 0 && bytes.Equal(got, want) }
