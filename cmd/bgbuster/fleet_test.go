package main

import (
	"net"
	"strings"
	"testing"

	"github.com/bgbuster/bgbuster"
	"github.com/bgbuster/bgbuster/internal/imagex"
)

func TestFleetSubcommandFlagValidation(t *testing.T) {
	if err := run([]string{"serve"}); err == nil || !strings.Contains(err.Error(), "-shards is required") {
		t.Fatalf("serve without shards: %v", err)
	}
	if err := run([]string{"serve", "-shards", " , "}); err == nil || !strings.Contains(err.Error(), "-shards is required") {
		t.Fatalf("serve with blank shards: %v", err)
	}
	if err := run([]string{"shard", "-bogus"}); err == nil {
		t.Fatal("shard with unknown flag succeeded")
	}
	if err := run([]string{"serve", "-shards", "127.0.0.1:1", "-checkpoint-dir", "/dev/null/x"}); err == nil {
		t.Fatal("serve with unusable checkpoint dir succeeded")
	}
	if err := run([]string{"serve", "-shards", "127.0.0.1:1", "-elect"}); err == nil || !strings.Contains(err.Error(), "-elect requires -checkpoint-dir") {
		t.Fatalf("serve -elect without -checkpoint-dir: %v", err)
	}
	if err := run([]string{"serve", "-shards", "127.0.0.1:1", "-standby"}); err == nil || !strings.Contains(err.Error(), "not defined: -standby") {
		t.Fatalf("serve -standby: %v, want an unknown-flag error", err)
	}
	if err := run([]string{"shard", "-weight", "4"}); err == nil || !strings.Contains(err.Error(), "-weight requires -join") {
		t.Fatalf("shard -weight without -join: %v", err)
	}
}

// TestFleetFacadeEndToEnd drives the exact topology the shard
// subcommand assembles — a SessionManager served over the fleet wire
// protocol with StreamAttackOptions as the per-spec options hook —
// through the public facade: open, feed, snapshot, checkpoint.
func TestFleetFacadeEndToEnd(t *testing.T) {
	const w, h = 48, 36
	mgr := bgbuster.NewSessionManager(bgbuster.SessionConfig{})
	defer mgr.Close()
	sh, err := bgbuster.NewFleetShard(bgbuster.FleetShardConfig{
		Manager: mgr,
		OptionsFor: func(spec bgbuster.FleetOpenSpec) bgbuster.ReconstructOptions {
			return bgbuster.StreamAttackOptions(spec.W, spec.H, spec.UnknownVB, spec.Seed)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); sh.Serve(ln) }()
	t.Cleanup(func() { ln.Close(); <-done })

	cl, err := bgbuster.DialFleet(ln.Addr().String(), bgbuster.FleetLimits{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	spec := bgbuster.FleetOpenSpec{ID: liveCallID(0), W: w, H: h, Seed: liveCallSeed(1, liveCallID(0))}
	if err := cl.Open(spec); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		img := imagex.NewFilled(w, h, imagex.RGB{R: uint8(40 + i*10), G: 90, B: 160})
		if err := cl.Feed(spec.ID, bgbuster.Frame{Img: img, Oracle: imagex.NewMask(w, h)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Drain(spec.ID); err != nil {
		t.Fatal(err)
	}
	snap, err := cl.Snapshot(spec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Fed != 12 || snap.StreamFrames != 12 {
		t.Fatalf("snapshot: %+v", snap)
	}
	ckpt, err := cl.Checkpoint(spec.ID)
	if err != nil {
		t.Fatal(err)
	}
	// The exported bytes are a genuine .bbck: the facade can resume them
	// locally under the same StreamAttackOptions.
	stream, err := bgbuster.ResumeStream(ckpt, bgbuster.StreamAttackOptions(w, h, false, spec.Seed))
	if err != nil {
		t.Fatalf("shard-exported checkpoint did not resume through the facade: %v", err)
	}
	if stream.Frames() != 12 {
		t.Fatalf("resumed stream at %d frames, want 12", stream.Frames())
	}
	if err := cl.CloseSession(spec.ID); err != nil {
		t.Fatal(err)
	}
}
