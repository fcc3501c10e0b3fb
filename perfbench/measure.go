package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, which it does not modify. An empty input yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// midMean is the interquartile mean: the mean of the middle half of
// xs, at least one value. It moves smoothly with the sample, unlike a
// median, and ignores the few extreme samples a mean would follow.
func midMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo, hi := len(s)/4, len(s)-len(s)/4
	var sum float64
	for _, x := range s[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

// durMs converts durations to float milliseconds.
func durMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapCounters returns the cumulative heap bytes allocated, the heap
// marked live by the most recent GC and the number of GC cycles so far,
// read without stopping the world.
func heapCounters() (allocated, live, cycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/live:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()
}

// meter measures one run's process cost: CPU, bytes allocated and the
// live heap above the heap present when it started (the input pool and
// references stay out of the figure). It never forces a collection
// during the run: the program's own GCs set the pace, and the sampler
// records the live heap each of them marked. The inputs' pixels are
// held outside the Go heap (see offHeap), so they do not postpone those
// collections. The reported peak is the 90th percentile of the samples:
// the heap the system holds for at least a tenth of its collections.
// The strict maximum is set by whichever transient (a checkpoint
// buffer, an open building its VB dictionary) a collection happens to
// land on.
type meter struct {
	cpu0   time.Duration
	alloc0 uint64
	base   uint64
	cycles uint64
	stop   chan struct{}
	done   sync.WaitGroup
	heaps  []float64 // live heap above base, bytes, one per GC; written by the sampler only
}

// heapPollEvery is how often the sampler looks for a finished GC. A
// cycle that ends between two polls behind another is not sampled.
const heapPollEvery = 10 * time.Millisecond

// startMeter collects the garbage the set-up left, so that the run
// starts from the same heap each time, and starts the sampler.
func startMeter() *meter {
	runtime.GC()
	m := &meter{stop: make(chan struct{})}
	m.alloc0, m.base, m.cycles = heapCounters()
	m.cpu0 = cpuTime()
	m.done.Add(1)
	go func() {
		defer m.done.Done()
		t := time.NewTicker(heapPollEvery)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				m.sampleHeap()
			}
		}
	}()
	return m
}

// sampleHeap records the live heap if a GC ended since the last sample.
func (m *meter) sampleHeap() {
	_, live, cycles := heapCounters()
	if cycles == m.cycles {
		return
	}
	m.cycles = cycles
	var above float64
	if live > m.base {
		above = float64(live - m.base)
	}
	m.heaps = append(m.heaps, above)
}

// cost is what a run spent.
type cost struct {
	CPU         time.Duration
	AllocBytes  uint64
	PeakHeap    float64 // bytes
	HeapSamples int
}

// finish stops the sampler and returns the run's cost.
func (m *meter) finish() cost {
	close(m.stop)
	m.done.Wait()
	c := cost{CPU: cpuTime() - m.cpu0}
	a, _, _ := heapCounters()
	c.AllocBytes = a - m.alloc0
	c.PeakHeap, c.HeapSamples = percentile(m.heaps, 90), len(m.heaps)
	return c
}
