// Package fleet shards the live-call session layer across processes: a
// stdlib-only wire protocol (net + the repo's binary codecs) carries
// frame ingest, snapshot queries and checkpoint transfer between a
// coordinator and worker shards, and checkpoint-based live migration
// moves a running session between shards without losing a bit — the
// .bbck bit-identical resume guarantee (DESIGN.md §11) makes the
// migration lossless, and the same transfer path re-resumes every
// session of a lost shard on the survivors (DESIGN.md §15).
package fleet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"github.com/bgbuster/bgbuster/internal/binx"
	"github.com/bgbuster/bgbuster/internal/core"
	"github.com/bgbuster/bgbuster/internal/imagex"
)

// Magic opens every wire message; Version is the protocol revision.
const (
	Magic   = "BBFL"
	Version = 1
)

// headerLen is the fixed message prelude: magic(4) version(2) type(1)
// reserved(1) bodyLen(4).
const headerLen = 12

// ErrBadMessage is wrapped by every structural decode rejection:
// wrong magic, unknown type, truncated or oversized sections, trailing
// bytes, non-canonical flags. A decoder never panics and never
// allocates more than the advertised (and budget-checked) sizes.
var ErrBadMessage = errors.New("fleet: bad message")

// ErrEncode is wrapped by every Encode refusal: a message with no
// canonical encoding (a string, dimension or count over its u16 field,
// a frame count its type does not allow, an unknown type). The request,
// not the connection, is at fault, so a Client returns it without
// touching the connection and a Coordinator never reads it as shard
// loss.
var ErrEncode = errors.New("fleet: message cannot be encoded")

// ErrVersion rejects messages from an incompatible protocol revision.
var ErrVersion = errors.New("fleet: unsupported protocol version")

// MsgType discriminates wire messages. Requests are < 0x40, responses
// >= 0x40.
type MsgType uint8

const (
	// MsgOpen opens a fresh session from an OpenSpec.
	MsgOpen MsgType = 0x01
	// MsgFeed delivers one frame (Frames[0]) to a session.
	MsgFeed MsgType = 0x02
	// MsgFeedBatch delivers an ordered frame batch as one intake unit.
	MsgFeedBatch MsgType = 0x03
	// MsgSnapshot asks for a session's observability snapshot.
	MsgSnapshot MsgType = 0x04
	// MsgCheckpoint asks for a session's current canonical .bbck bytes
	// (the session keeps running) — the replication primitive.
	MsgCheckpoint MsgType = 0x05
	// MsgResume registers a session from checkpoint bytes under the
	// spec's id — the receiving half of migration and shard recovery.
	MsgResume MsgType = 0x06
	// MsgClose finalizes and unregisters a session.
	MsgClose MsgType = 0x07
	// MsgDetach drains and removes a session WITHOUT finalizing,
	// returning its .bbck bytes — the sending half of live migration.
	MsgDetach MsgType = 0x08
	// MsgStats asks for the fleet-level counter snapshot and session ids.
	MsgStats MsgType = 0x09
	// MsgDrain blocks until every fed frame of a session is processed —
	// the quiesce barrier a migration or parity check runs behind.
	MsgDrain MsgType = 0x0A
	// MsgPing is the lightweight liveness probe health-probed routing
	// runs on: empty body, answered by MsgOK. Cheap enough to send every
	// probe interval to every shard.
	MsgPing MsgType = 0x0B
	// MsgFence declares the sender's coordinator epoch for this
	// connection. A shard remembers the highest epoch it has ever seen;
	// state-changing requests on a connection fenced at a lower epoch
	// are rejected with CodeFenced — how a deposed coordinator's stale
	// migrations die instead of corrupting the fleet.
	MsgFence MsgType = 0x0C
	// MsgJoin asks the coordinator to add the shard at Addr to the live
	// ring, migrating only the sessions whose arcs move onto it.
	MsgJoin MsgType = 0x0D
	// MsgDrainShard asks the coordinator to migrate every session off
	// the shard at Addr and remove it from the ring (graceful exit).
	MsgDrainShard MsgType = 0x0E
	// MsgHealth asks the coordinator for its epoch and per-shard health
	// states.
	MsgHealth MsgType = 0x0F
	// MsgLoad asks for a load sample. A shard answers with one row
	// (its own sessions, mem footprint, feed latency); a coordinator
	// answers with one row per member — including placeholder rows for
	// members it could not sample, so one dead shard never fails the
	// whole query. This is the rebalancer's planning input.
	MsgLoad MsgType = 0x10
	// MsgSetWeight asks the coordinator to set the capacity weight of
	// the shard at Addr — weighted vnodes for heterogeneous fleets. The
	// ring is rebuilt and only the sessions whose arcs move migrate.
	MsgSetWeight MsgType = 0x11
	// MsgAutopilotStatus asks the coordinator for its autopilot policy
	// state: imbalance score, rebalance/readmission/scrub counters and
	// the current coordination lease.
	MsgAutopilotStatus MsgType = 0x12

	// MsgOK acknowledges a request with no payload.
	MsgOK MsgType = 0x40
	// MsgErr reports a failed request (Code + Text).
	MsgErr MsgType = 0x41
	// MsgSnapResp answers MsgSnapshot.
	MsgSnapResp MsgType = 0x42
	// MsgCkptResp answers MsgCheckpoint/MsgDetach with .bbck bytes.
	MsgCkptResp MsgType = 0x43
	// MsgStatsResp answers MsgStats.
	MsgStatsResp MsgType = 0x44
	// MsgHealthResp answers MsgHealth.
	MsgHealthResp MsgType = 0x45
	// MsgLoadResp answers MsgLoad.
	MsgLoadResp MsgType = 0x46
	// MsgAutopilotResp answers MsgAutopilotStatus.
	MsgAutopilotResp MsgType = 0x47
)

// Error codes carried by MsgErr, mirroring the session layer's typed
// rejections so a remote caller can branch the same way a local one
// does.
const (
	CodeInternal  uint16 = 1 // unclassified server-side failure
	CodeNoSession uint16 = 2 // session.ErrNoSession
	CodeExists    uint16 = 3 // session.ErrExists
	CodeAdmission uint16 = 4 // ErrFleetFull / ErrMemoryBudget
	CodeBadReq    uint16 = 5 // malformed or unroutable request
	CodeFenced    uint16 = 6 // request from a deposed coordinator epoch
)

// OpenSpec describes a session to open (or resume): everything a shard
// needs to derive the reconstruction options through its injected
// OptionsFor hook. The coordinator keeps the spec so a lost shard's
// sessions can be re-opened elsewhere.
type OpenSpec struct {
	ID        string
	W, H      int
	UnknownVB bool
	Seed      int64
}

// SnapInfo is the wire projection of session.Snapshot — the counters a
// remote operator routes and load-balances on.
type SnapInfo struct {
	ID                              string
	Health                          uint8
	Identified, Restored, Finalized bool
	Fed, Dropped, Rejected          uint64
	Processed, StreamFrames         uint64
	Coverage                        float64 // fraction in [0,1]
	VBName                          string
}

// StatsInfo is the wire projection of a manager-level snapshot plus
// the open session ids (what a recovering coordinator enumerates).
type StatsInfo struct {
	Open                       uint32
	Opened, Restores, Restarts uint64
	Migrations                 uint64
	IDs                        []string
}

// ShardHealthInfo is one shard's routing health on the wire: the
// health-state-machine value (HealthState) and the consecutive probe
// or op failures counted against it.
type ShardHealthInfo struct {
	Addr  string
	State uint8
	Fails uint32
}

// HealthInfo is the wire projection of the coordinator's routing
// health: its fencing epoch and every member shard's state.
type HealthInfo struct {
	Epoch  uint64
	Shards []ShardHealthInfo
}

// SessionLoad is one session's placement cost on the wire — what the
// rebalancer ranks when picking the cheapest sessions to move off a
// hot shard.
type SessionLoad struct {
	ID     string
	Mem    uint64 // admission-time stream footprint in bytes
	Frames uint64 // stream frames processed so far
}

// ShardLoad is one shard's load sample on the wire (MsgLoadResp). A
// row with a non-empty Err is a placeholder: the shard could not be
// sampled (down, timed out) and every other field except Addr/State is
// unset — the graceful-degradation row `bgbuster stats` renders as
// DOWN/? instead of failing the whole command.
type ShardLoad struct {
	Addr       string
	State      uint8  // HealthState at sample time
	Weight     uint16 // capacity weight (vnode multiplier), 0 on shard-local rows
	Mem        uint64 // summed session stream footprint in bytes
	FeedMicros uint64 // mean worker time per processed frame over open sessions, microseconds (display only)
	Sess       []SessionLoad
	Err        string // non-empty: sample failed; row is a placeholder
}

// AutopilotInfo is the autopilot policy state on the wire
// (MsgAutopilotResp): the latest imbalance score against its
// threshold, cumulative rebalance/readmission/scrub counters, and the
// coordination lease (when election is running).
type AutopilotInfo struct {
	Enabled      bool
	Imbalance    float64 // latest planner score
	Threshold    float64 // high-water score that triggers rebalancing
	Passes       uint64  // planner passes run
	Moves        uint64  // sessions migrated by the rebalancer
	Readmitted   uint64  // shards auto re-admitted after down
	Promoted     uint64  // shards promoted out of probation
	Probation    uint32  // shards currently in probation
	ScrubChecked uint64
	ScrubRepairs uint64
	ScrubSwept   uint64
	ScrubStuck   uint64 // live ids with no valid replica anywhere
	OrphanDels   uint64 // deletes that left orphaned replicas behind
	LeaseHeld    bool
	LeaseHolder  string
	LeaseTerm    uint64
	LeaseEpoch   uint64
	LeaseExpires int64 // unix nanoseconds; 0 = no lease observed
}

// Message is one decoded wire message. Only the fields its Type uses
// are meaningful; Encode writes exactly those, so
// Encode(Decode(b)) == b for every accepted b (the canonical-encoding
// invariant the fuzz harness enforces).
type Message struct {
	Type   MsgType
	Spec   OpenSpec      // Open, Resume; Spec.ID alone for id-bearing requests
	Frames []core.Frame  // Feed (exactly 1), FeedBatch (1..MaxBatch)
	Ckpt   []byte        // Resume, CkptResp
	Code   uint16        // Err
	Text   string        // Err
	Snap   SnapInfo      // SnapResp
	Stats  StatsInfo     // StatsResp
	Addr   string        // Join, DrainShard, SetWeight
	Epoch  uint64        // Fence
	Health HealthInfo    // HealthResp
	Weight uint16        // SetWeight
	Loads  []ShardLoad   // LoadResp
	Auto   AutopilotInfo // AutopilotResp
}

// Limits bounds what a decoder will allocate for one message — the
// DecodeLimits discipline from the vidstream and checkpoint codecs: a
// malicious peer must never be able to force a large allocation with a
// small crafted header. The zero value takes every default.
type Limits struct {
	// MaxBody caps one message's body length (default 64 MiB).
	MaxBody int64
	// MaxDim caps frame width and height (default 8192).
	MaxDim int
	// MaxBatch caps frames per MsgFeedBatch (default 1024).
	MaxBatch int
	// MaxIDLen caps session-id byte length (default 256).
	MaxIDLen int
	// MaxCkpt caps embedded checkpoint payloads (default 64 MiB).
	MaxCkpt int64
	// MaxIDs caps the id list in MsgStatsResp (default 1 << 16).
	MaxIDs int
	// MaxText caps MsgErr/VBName strings (default 4096).
	MaxText int
}

// DefaultLimits returns the default decode budgets.
func DefaultLimits() Limits { return Limits{}.withDefaults() }

func (l Limits) withDefaults() Limits {
	if l.MaxBody <= 0 {
		l.MaxBody = 64 << 20
	}
	if l.MaxDim <= 0 {
		l.MaxDim = 8192
	}
	if l.MaxBatch <= 0 {
		l.MaxBatch = 1024
	}
	if l.MaxIDLen <= 0 {
		l.MaxIDLen = 256
	}
	if l.MaxCkpt <= 0 {
		l.MaxCkpt = 64 << 20
	}
	if l.MaxIDs <= 0 {
		l.MaxIDs = 1 << 16
	}
	if l.MaxText <= 0 {
		l.MaxText = 4096
	}
	return l
}

// Encode serialises a message to its canonical wire bytes. It fails on
// any string, dimension or count that does not fit its u16 field rather
// than truncating it into a different message; every failure wraps
// ErrEncode.
func Encode(m *Message) ([]byte, error) {
	buf := make([]byte, 0, encodedSizeHint(m))
	buf = append(buf, Magic...)
	buf = binary.LittleEndian.AppendUint16(buf, Version)
	buf = append(buf, byte(m.Type), 0)
	buf = binary.LittleEndian.AppendUint32(buf, 0) // body length, patched below
	buf, err := appendBody(buf, m)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrEncode, err)
	}
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(buf)-headerLen))
	return buf, nil
}

// encodedSizeHint sizes the encode buffer so a frame-carrying message
// is written with one allocation.
func encodedSizeHint(m *Message) int {
	n := headerLen + 64 + len(m.Spec.ID) + len(m.Ckpt)
	for _, f := range m.Frames {
		n += 6 + 3*len(f.Img.Pix)
		if f.Oracle != nil {
			n += f.Oracle.WordBytes()
		}
	}
	return n
}

func appendBody(buf []byte, m *Message) ([]byte, error) {
	le := binary.LittleEndian
	var a binx.Appender
	switch m.Type {
	case MsgOpen, MsgResume:
		buf = a.Str(buf, m.Spec.ID)
		buf = a.Len16(buf, m.Spec.W)
		buf = a.Len16(buf, m.Spec.H)
		buf = append(buf, b2u8(m.Spec.UnknownVB))
		buf = le.AppendUint64(buf, uint64(m.Spec.Seed))
		if m.Type == MsgResume {
			buf = le.AppendUint32(buf, uint32(len(m.Ckpt)))
			buf = append(buf, m.Ckpt...)
		}
	case MsgFeed:
		if len(m.Frames) != 1 {
			return nil, fmt.Errorf("fleet: MsgFeed carries %d frames, want 1", len(m.Frames))
		}
		buf = a.Str(buf, m.Spec.ID)
		buf = appendFrame(&a, buf, m.Frames[0])
	case MsgFeedBatch:
		if len(m.Frames) == 0 {
			return nil, errors.New("fleet: empty MsgFeedBatch")
		}
		buf = a.Str(buf, m.Spec.ID)
		buf = a.Len16(buf, len(m.Frames))
		for _, f := range m.Frames {
			buf = appendFrame(&a, buf, f)
		}
	case MsgSnapshot, MsgCheckpoint, MsgClose, MsgDetach, MsgDrain:
		buf = a.Str(buf, m.Spec.ID)
	case MsgStats, MsgOK, MsgPing, MsgHealth, MsgLoad, MsgAutopilotStatus:
		// empty body
	case MsgFence:
		buf = le.AppendUint64(buf, m.Epoch)
	case MsgJoin, MsgDrainShard:
		buf = a.Str(buf, m.Addr)
	case MsgSetWeight:
		buf = a.Str(buf, m.Addr)
		buf = le.AppendUint16(buf, m.Weight)
	case MsgLoadResp:
		buf = a.Len16(buf, len(m.Loads))
		for _, row := range m.Loads {
			buf = a.Str(buf, row.Addr)
			buf = append(buf, row.State)
			buf = le.AppendUint16(buf, row.Weight)
			buf = le.AppendUint64(buf, row.Mem)
			buf = le.AppendUint64(buf, row.FeedMicros)
			buf = a.Str(buf, row.Err)
			buf = a.Len16(buf, len(row.Sess))
			for _, s := range row.Sess {
				buf = a.Str(buf, s.ID)
				buf = le.AppendUint64(buf, s.Mem)
				buf = le.AppendUint64(buf, s.Frames)
			}
		}
	case MsgAutopilotResp:
		au := m.Auto
		buf = append(buf, b2u8(au.Enabled)|b2u8(au.LeaseHeld)<<1)
		buf = le.AppendUint64(buf, math.Float64bits(au.Imbalance))
		buf = le.AppendUint64(buf, math.Float64bits(au.Threshold))
		for _, v := range []uint64{au.Passes, au.Moves, au.Readmitted, au.Promoted} {
			buf = le.AppendUint64(buf, v)
		}
		buf = le.AppendUint32(buf, au.Probation)
		for _, v := range []uint64{au.ScrubChecked, au.ScrubRepairs, au.ScrubSwept, au.ScrubStuck, au.OrphanDels} {
			buf = le.AppendUint64(buf, v)
		}
		buf = a.Str(buf, au.LeaseHolder)
		buf = le.AppendUint64(buf, au.LeaseTerm)
		buf = le.AppendUint64(buf, au.LeaseEpoch)
		buf = le.AppendUint64(buf, uint64(au.LeaseExpires))
	case MsgHealthResp:
		buf = le.AppendUint64(buf, m.Health.Epoch)
		buf = a.Len16(buf, len(m.Health.Shards))
		for _, s := range m.Health.Shards {
			buf = a.Str(buf, s.Addr)
			buf = append(buf, s.State)
			buf = le.AppendUint32(buf, s.Fails)
		}
	case MsgErr:
		buf = le.AppendUint16(buf, m.Code)
		buf = a.Str(buf, m.Text)
	case MsgSnapResp:
		s := m.Snap
		buf = a.Str(buf, s.ID)
		buf = append(buf, s.Health)
		buf = append(buf, b2u8(s.Identified)|b2u8(s.Restored)<<1|b2u8(s.Finalized)<<2)
		for _, v := range []uint64{s.Fed, s.Dropped, s.Rejected, s.Processed, s.StreamFrames} {
			buf = le.AppendUint64(buf, v)
		}
		buf = le.AppendUint64(buf, math.Float64bits(s.Coverage))
		buf = a.Str(buf, s.VBName)
	case MsgCkptResp:
		buf = le.AppendUint32(buf, uint32(len(m.Ckpt)))
		buf = append(buf, m.Ckpt...)
	case MsgStatsResp:
		st := m.Stats
		buf = le.AppendUint32(buf, st.Open)
		for _, v := range []uint64{st.Opened, st.Restores, st.Restarts, st.Migrations} {
			buf = le.AppendUint64(buf, v)
		}
		buf = le.AppendUint32(buf, uint32(len(st.IDs)))
		for _, id := range st.IDs {
			buf = a.Str(buf, id)
		}
	default:
		return nil, fmt.Errorf("fleet: encode: unknown message type 0x%02x", byte(m.Type))
	}
	if err := a.Err(); err != nil {
		return nil, fmt.Errorf("fleet: encode message type 0x%02x: %w", byte(m.Type), err)
	}
	return buf, nil
}

// appendFrame writes one frame: geometry, raw RGB raster, and the
// packed-word oracle mask (flag 0 when absent).
func appendFrame(a *binx.Appender, buf []byte, f core.Frame) []byte {
	buf = a.Len16(buf, f.Img.W)
	buf = a.Len16(buf, f.Img.H)
	buf = f.Img.AppendRGB(buf)
	if f.Oracle == nil {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	return f.Oracle.AppendWords(buf)
}

// Decode parses one complete message under the default budgets.
func Decode(data []byte) (*Message, error) {
	return DecodeWithLimits(data, DefaultLimits())
}

// DecodeWithLimits parses one complete message — header and body —
// rejecting anything structurally invalid, over budget, or
// non-canonical (trailing bytes, nonzero reserved byte, padding-bit
// violations in masks). It never panics on crafted input and never
// allocates beyond the budgets in lim.
func DecodeWithLimits(data []byte, lim Limits) (*Message, error) {
	lim = lim.withDefaults()
	if len(data) < headerLen {
		return nil, fmt.Errorf("fleet: %d-byte message shorter than header: %w", len(data), ErrBadMessage)
	}
	bodyLen, err := checkHeader(data[:headerLen], lim)
	if err != nil {
		return nil, err
	}
	if int64(len(data)-headerLen) != bodyLen {
		return nil, fmt.Errorf("fleet: advertised body %d bytes, have %d: %w", bodyLen, len(data)-headerLen, ErrBadMessage)
	}
	m := &Message{Type: MsgType(data[6])}
	r := binx.NewReader(data[headerLen:], "fleet", ErrBadMessage)
	if err := decodeBody(r, m, lim); err != nil {
		return nil, err
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

// checkHeader validates the 12-byte prelude against the protocol and
// the body budget, returning the advertised body length.
func checkHeader(hdr []byte, lim Limits) (int64, error) {
	if string(hdr[:4]) != Magic {
		return 0, fmt.Errorf("fleet: bad magic %q: %w", hdr[:4], ErrBadMessage)
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != Version {
		return 0, fmt.Errorf("fleet: version %d: %w", v, ErrVersion)
	}
	if hdr[7] != 0 {
		return 0, fmt.Errorf("fleet: nonzero reserved byte: %w", ErrBadMessage)
	}
	bodyLen := int64(binary.LittleEndian.Uint32(hdr[8:12]))
	if bodyLen > lim.MaxBody {
		return 0, fmt.Errorf("fleet: %d-byte body exceeds budget %d: %w", bodyLen, lim.MaxBody, ErrBadMessage)
	}
	return bodyLen, nil
}

func decodeBody(r *binx.Reader, m *Message, lim Limits) error {
	switch m.Type {
	case MsgOpen, MsgResume:
		if err := readSpec(r, &m.Spec, lim); err != nil {
			return err
		}
		if m.Type == MsgResume {
			ckpt, err := r.Blob(lim.MaxCkpt)
			if err != nil {
				return err
			}
			m.Ckpt = ckpt
		}
	case MsgFeed:
		id, err := r.Str(lim.MaxIDLen)
		if err != nil {
			return err
		}
		m.Spec.ID = id
		f, err := readFrame(r, lim)
		if err != nil {
			return err
		}
		m.Frames = []core.Frame{f}
	case MsgFeedBatch:
		id, err := r.Str(lim.MaxIDLen)
		if err != nil {
			return err
		}
		m.Spec.ID = id
		n, err := r.U16()
		if err != nil {
			return err
		}
		if n == 0 || int(n) > lim.MaxBatch {
			return r.Errorf("batch of %d frames outside [1,%d]", n, lim.MaxBatch)
		}
		// Frames are decoded one at a time: each frame's own geometry
		// check bounds its allocation, so no up-front n×frame reserve is
		// needed (or made).
		m.Frames = make([]core.Frame, 0, min(int(n), 64))
		for i := 0; i < int(n); i++ {
			f, err := readFrame(r, lim)
			if err != nil {
				return err
			}
			m.Frames = append(m.Frames, f)
		}
	case MsgSnapshot, MsgCheckpoint, MsgClose, MsgDetach, MsgDrain:
		id, err := r.Str(lim.MaxIDLen)
		if err != nil {
			return err
		}
		m.Spec.ID = id
	case MsgStats, MsgOK, MsgPing, MsgHealth, MsgLoad, MsgAutopilotStatus:
		// empty body
	case MsgFence:
		epoch, err := r.U64()
		if err != nil {
			return err
		}
		m.Epoch = epoch
	case MsgJoin, MsgDrainShard:
		addr, err := r.Str(lim.MaxIDLen)
		if err != nil {
			return err
		}
		m.Addr = addr
	case MsgSetWeight:
		addr, err := r.Str(lim.MaxIDLen)
		if err != nil {
			return err
		}
		m.Addr = addr
		if m.Weight, err = r.U16(); err != nil {
			return err
		}
	case MsgLoadResp:
		n, err := r.U16()
		if err != nil {
			return err
		}
		if int(n) > lim.MaxIDs {
			return r.Errorf("%d load rows exceed budget %d", n, lim.MaxIDs)
		}
		// Each row costs >= 25 bytes (2 addr len + 1 state + 2 weight +
		// 8 mem + 8 latency + 2 err len + 2 session count), so the
		// advertised count is verified against what is present before any
		// reserve.
		if err := r.Need(25 * int64(n)); err != nil {
			return err
		}
		if n > 0 {
			m.Loads = make([]ShardLoad, 0, n)
		}
		for i := 0; i < int(n); i++ {
			var row ShardLoad
			if row.Addr, err = r.Str(lim.MaxIDLen); err != nil {
				return err
			}
			if row.State, err = r.U8(); err != nil {
				return err
			}
			if row.Weight, err = r.U16(); err != nil {
				return err
			}
			if row.Mem, err = r.U64(); err != nil {
				return err
			}
			if row.FeedMicros, err = r.U64(); err != nil {
				return err
			}
			if row.Err, err = r.Str(lim.MaxText); err != nil {
				return err
			}
			ns, err := r.U16()
			if err != nil {
				return err
			}
			if int(ns) > lim.MaxIDs {
				return r.Errorf("%d session loads exceed budget %d", ns, lim.MaxIDs)
			}
			// Each session entry costs >= 18 bytes (2 id len + 8 mem +
			// 8 frames).
			if err := r.Need(18 * int64(ns)); err != nil {
				return err
			}
			if ns > 0 {
				row.Sess = make([]SessionLoad, 0, ns)
			}
			for j := 0; j < int(ns); j++ {
				var s SessionLoad
				if s.ID, err = r.Str(lim.MaxIDLen); err != nil {
					return err
				}
				if s.Mem, err = r.U64(); err != nil {
					return err
				}
				if s.Frames, err = r.U64(); err != nil {
					return err
				}
				row.Sess = append(row.Sess, s)
			}
			m.Loads = append(m.Loads, row)
		}
	case MsgAutopilotResp:
		a := &m.Auto
		flags, err := r.U8()
		if err != nil {
			return err
		}
		if flags&^0x03 != 0 {
			return r.Errorf("nonzero autopilot flag padding")
		}
		a.Enabled, a.LeaseHeld = flags&1 != 0, flags&2 != 0
		bits, err := r.U64()
		if err != nil {
			return err
		}
		a.Imbalance = math.Float64frombits(bits)
		if bits, err = r.U64(); err != nil {
			return err
		}
		a.Threshold = math.Float64frombits(bits)
		for _, dst := range []*uint64{&a.Passes, &a.Moves, &a.Readmitted, &a.Promoted} {
			if *dst, err = r.U64(); err != nil {
				return err
			}
		}
		if a.Probation, err = r.U32(); err != nil {
			return err
		}
		for _, dst := range []*uint64{&a.ScrubChecked, &a.ScrubRepairs, &a.ScrubSwept, &a.ScrubStuck, &a.OrphanDels} {
			if *dst, err = r.U64(); err != nil {
				return err
			}
		}
		if a.LeaseHolder, err = r.Str(lim.MaxIDLen); err != nil {
			return err
		}
		if a.LeaseTerm, err = r.U64(); err != nil {
			return err
		}
		if a.LeaseEpoch, err = r.U64(); err != nil {
			return err
		}
		expires, err := r.U64()
		if err != nil {
			return err
		}
		a.LeaseExpires = int64(expires)
	case MsgHealthResp:
		var err error
		if m.Health.Epoch, err = r.U64(); err != nil {
			return err
		}
		n, err := r.U16()
		if err != nil {
			return err
		}
		if int(n) > lim.MaxIDs {
			return r.Errorf("%d shard healths exceed budget %d", n, lim.MaxIDs)
		}
		// Each entry costs >= 7 bytes (2 len + 1 state + 4 fails), so the
		// advertised count is verified against what is present before any
		// reserve.
		if err := r.Need(7 * int64(n)); err != nil {
			return err
		}
		if n > 0 {
			m.Health.Shards = make([]ShardHealthInfo, 0, n)
		}
		for i := 0; i < int(n); i++ {
			var s ShardHealthInfo
			if s.Addr, err = r.Str(lim.MaxIDLen); err != nil {
				return err
			}
			if s.State, err = r.U8(); err != nil {
				return err
			}
			if s.Fails, err = r.U32(); err != nil {
				return err
			}
			m.Health.Shards = append(m.Health.Shards, s)
		}
	case MsgErr:
		code, err := r.U16()
		if err != nil {
			return err
		}
		text, err := r.Str(lim.MaxText)
		if err != nil {
			return err
		}
		m.Code, m.Text = code, text
	case MsgSnapResp:
		s := &m.Snap
		var err error
		if s.ID, err = r.Str(lim.MaxIDLen); err != nil {
			return err
		}
		if s.Health, err = r.U8(); err != nil {
			return err
		}
		flags, err := r.U8()
		if err != nil {
			return err
		}
		if flags&^0x07 != 0 {
			return r.Errorf("nonzero snapshot flag padding")
		}
		s.Identified, s.Restored, s.Finalized = flags&1 != 0, flags&2 != 0, flags&4 != 0
		for _, dst := range []*uint64{&s.Fed, &s.Dropped, &s.Rejected, &s.Processed, &s.StreamFrames} {
			if *dst, err = r.U64(); err != nil {
				return err
			}
		}
		bits, err := r.U64()
		if err != nil {
			return err
		}
		s.Coverage = math.Float64frombits(bits)
		if s.VBName, err = r.Str(lim.MaxText); err != nil {
			return err
		}
	case MsgCkptResp:
		ckpt, err := r.Blob(lim.MaxCkpt)
		if err != nil {
			return err
		}
		m.Ckpt = ckpt
	case MsgStatsResp:
		st := &m.Stats
		var err error
		if st.Open, err = r.U32(); err != nil {
			return err
		}
		for _, dst := range []*uint64{&st.Opened, &st.Restores, &st.Restarts, &st.Migrations} {
			if *dst, err = r.U64(); err != nil {
				return err
			}
		}
		n, err := r.U32()
		if err != nil {
			return err
		}
		if int64(n) > int64(lim.MaxIDs) {
			return r.Errorf("%d ids exceed budget %d", n, lim.MaxIDs)
		}
		// Each id costs >= 2 bytes on the wire, so the advertised count
		// is cheap to sanity-check against what is actually present
		// before reserving anything.
		if err := r.Need(2 * int64(n)); err != nil {
			return err
		}
		if n > 0 {
			st.IDs = make([]string, 0, n)
		}
		for i := uint32(0); i < n; i++ {
			id, err := r.Str(lim.MaxIDLen)
			if err != nil {
				return err
			}
			st.IDs = append(st.IDs, id)
		}
	default:
		return r.Errorf("unknown message type 0x%02x", byte(m.Type))
	}
	return nil
}

// WriteMessage frames and writes one message to w.
func WriteMessage(w io.Writer, m *Message) error {
	buf, err := Encode(m)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// ReadMessage reads exactly one length-prefixed message from r under
// the given budgets. The header is read first and validated, so at
// most lim.MaxBody bytes are ever buffered for one message.
func ReadMessage(r io.Reader, lim Limits) (*Message, error) {
	lim = lim.withDefaults()
	hdr := make([]byte, headerLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	bodyLen, err := checkHeader(hdr, lim)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, headerLen+int(bodyLen))
	copy(buf, hdr)
	if _, err := io.ReadFull(r, buf[headerLen:]); err != nil {
		return nil, err
	}
	return DecodeWithLimits(buf, lim)
}

// readSpec reads an OpenSpec, bounding geometry by lim.MaxDim.
func readSpec(r *binx.Reader, s *OpenSpec, lim Limits) error {
	id, err := r.Str(lim.MaxIDLen)
	if err != nil {
		return err
	}
	w, err := r.U16()
	if err != nil {
		return err
	}
	h, err := r.U16()
	if err != nil {
		return err
	}
	if int(w) > lim.MaxDim || int(h) > lim.MaxDim || w == 0 || h == 0 {
		return r.Errorf("%dx%d spec outside [1,%d]", w, h, lim.MaxDim)
	}
	uvb, err := r.U8()
	if err != nil {
		return err
	}
	if uvb > 1 {
		return r.Errorf("non-boolean unknown-vb flag %d", uvb)
	}
	seed, err := r.U64()
	if err != nil {
		return err
	}
	s.ID, s.W, s.H, s.UnknownVB, s.Seed = id, int(w), int(h), uvb == 1, int64(seed)
	return nil
}

// readFrame reads one frame: the geometry is budget-checked and the
// full raster size Need()-verified before the image allocation, so a
// crafted header cannot force a large allocation.
func readFrame(r *binx.Reader, lim Limits) (core.Frame, error) {
	w16, err := r.U16()
	if err != nil {
		return core.Frame{}, err
	}
	h16, err := r.U16()
	if err != nil {
		return core.Frame{}, err
	}
	w, h := int(w16), int(h16)
	if w == 0 || h == 0 || w > lim.MaxDim || h > lim.MaxDim {
		return core.Frame{}, r.Errorf("%dx%d frame outside [1,%d]", w, h, lim.MaxDim)
	}
	if err := r.Need(int64(3*w*h) + 1); err != nil {
		return core.Frame{}, err
	}
	b, _ := r.Bytes(3 * w * h) // length checked above
	img := imagex.New(w, h)
	img.LoadRGB(b)
	hasOracle, _ := r.U8()
	switch hasOracle {
	case 0:
		return core.Frame{Img: img}, nil
	case 1:
		wb, err := r.Bytes(imagex.MaskWordBytes(w, h))
		if err != nil {
			return core.Frame{}, err
		}
		m := imagex.NewMask(w, h)
		if err := m.LoadWords(wb); err != nil {
			return core.Frame{}, r.Errorf("%w", err)
		}
		return core.Frame{Img: img, Oracle: m}, nil
	default:
		return core.Frame{}, r.Errorf("non-boolean oracle flag %d", hasOracle)
	}
}

func b2u8(b bool) byte {
	if b {
		return 1
	}
	return 0
}
