package session

import (
	"errors"
	"testing"
	"time"

	"github.com/bgbuster/bgbuster/internal/core"
)

// TestSessionFeedNMatchesFeed: batch intake must leave the same
// reconstruction as frame-at-a-time intake, with frame-accurate
// counters (fed and processed count frames, not batches).
func TestSessionFeedNMatchesFeed(t *testing.T) {
	frames, sils := testFrames(24)

	mgr := NewManager(Config{})
	defer mgr.Close()
	one, err := mgr.Open("one", testW, testH, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	batch, err := mgr.Open("batch", testW, testH, testOpts())
	if err != nil {
		t.Fatal(err)
	}

	var fs []core.Frame
	for i := range frames {
		if err := one.Feed(frames[i], sils[i]); err != nil {
			t.Fatal(err)
		}
		fs = append(fs, core.Frame{Img: frames[i], Oracle: sils[i]})
	}
	for i := 0; i < len(fs); i += 7 {
		j := i + 7
		if j > len(fs) {
			j = len(fs)
		}
		if err := mgr.FeedN("batch", fs[i:j]); err != nil {
			t.Fatal(err)
		}
	}
	if err := one.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := batch.Finalize(); err != nil {
		t.Fatal(err)
	}

	so, sb := one.Stats(), batch.Stats()
	if sb.FramesFed != uint64(len(fs)) || sb.FramesProcessed != uint64(len(fs)) {
		t.Fatalf("batch counters fed=%d processed=%d, want %d frames", sb.FramesFed, sb.FramesProcessed, len(fs))
	}
	if so.FramesProcessed != sb.FramesProcessed {
		t.Fatalf("processed: feed=%d batch=%d", so.FramesProcessed, sb.FramesProcessed)
	}
	ro, rb := one.Snapshot(), batch.Snapshot()
	if !ro.Recovered.Equal(rb.Recovered) || !ro.Coverage.Equal(rb.Coverage) {
		t.Fatal("batch-fed reconstruction differs from frame-at-a-time")
	}
	if sb.MemBytes == 0 || so.MemBytes != sb.MemBytes {
		t.Fatalf("MemBytes: feed=%d batch=%d", so.MemBytes, sb.MemBytes)
	}
}

// TestSessionFeedNRecoverableFaults: malformed frames inside a batch
// are counted as rejected without failing the session.
func TestSessionFeedNRecoverableFaults(t *testing.T) {
	frames, sils := testFrames(4)
	mgr := NewManager(Config{})
	defer mgr.Close()
	s, err := mgr.Open("s", testW, testH, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	fs := []core.Frame{
		{Img: frames[0], Oracle: sils[0]},
		{Img: nil, Oracle: sils[1]}, // recoverable at the reconstructor
		{Img: frames[2], Oracle: nil},
		{Img: frames[3], Oracle: sils[3]},
	}
	if err := s.FeedN(fs); err != nil {
		t.Fatal(err)
	}
	if err := s.FeedN(nil); err != nil {
		t.Fatal("empty batch must be a no-op")
	}
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.FramesFed != 4 || st.FramesProcessed != 2 || st.FramesRejected != 2 {
		t.Fatalf("fed=%d processed=%d rejected=%d, want 4/2/2",
			st.FramesFed, st.FramesProcessed, st.FramesRejected)
	}
}

// TestSessionFeedNQueuePolicies: a batch occupies one queue slot; under
// PolicyReject a full queue refuses it and counts every frame dropped.
func TestSessionFeedNQueuePolicies(t *testing.T) {
	frames, sils := testFrames(8)
	opts := testOpts()
	opts.Segmenter = slowSegmenter{d: 50 * 1e6} // 50ms: hold the worker busy
	mgr := NewManager(Config{QueueDepth: 1, DefaultQueuePolicy: PolicyReject})
	defer mgr.Close()
	s, err := mgr.Open("s", testW, testH, opts)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(i, j int) []core.Frame {
		var fs []core.Frame
		for ; i < j; i++ {
			fs = append(fs, core.Frame{Img: frames[i], Oracle: sils[i]})
		}
		return fs
	}
	// Fill the worker and the single queue slot, then overflow.
	_ = s.FeedN(mk(0, 2))
	_ = s.FeedN(mk(2, 4))
	var rejected bool
	for try := 0; try < 3; try++ {
		if err := s.FeedN(mk(4, 8)); errors.Is(err, ErrQueueFull) {
			rejected = true
			break
		}
	}
	if !rejected {
		t.Fatal("full queue never rejected a batch under PolicyReject")
	}
	st := s.Stats()
	if st.FramesDropped < 4 {
		t.Fatalf("dropped=%d, want the whole rejected batch (≥4) counted", st.FramesDropped)
	}
}

// TestFeedNPanicReleasesStreamLock: a FeedN batch whose segmenter
// panics must not leave the stream lock held. Without AutoRestart the
// failed session stays readable, so every observer that takes the lock
// (Snapshot, Stats, CheckpointBytes) has to keep answering.
func TestFeedNPanicReleasesStreamLock(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	bad := testOpts()
	bad.Segmenter = panicSegmenter{}
	s, err := m.Open("poisoned", testW, testH, bad)
	if err != nil {
		t.Fatal(err)
	}
	frames, sils := testFrames(12) // past the identification window, so the segmenter runs
	var fs []core.Frame
	for i := range frames {
		fs = append(fs, core.Frame{Img: frames[i], Oracle: sils[i]})
	}
	if err := s.FeedN(fs); err != nil {
		t.Fatal(err)
	}
	if err := s.Finalize(); !errors.Is(err, ErrFailed) {
		t.Fatalf("Finalize = %v, want ErrFailed", err)
	}
	for name, read := range map[string]func(){
		"Snapshot":        func() { s.Snapshot() },
		"Stats":           func() { s.Stats() },
		"CheckpointBytes": func() { _, _ = s.CheckpointBytes() },
	} {
		done := make(chan struct{})
		go func() {
			defer close(done)
			read()
		}()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("%s blocked for 2s after a panicking batch: stream lock still held", name)
		}
	}
}
