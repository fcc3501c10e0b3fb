package fleet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"

	"github.com/bgbuster/bgbuster/internal/binx"
)

// Coordinator failover (DESIGN.md §17). The active coordinator
// persists a small BBFM meta blob — fencing epoch, ring membership,
// open-session specs, CRC-sealed — into the (ideally quorum-
// replicated) checkpoint store alongside the .bbck checkpoints.
// The candidate that wins the coordinator lease calls TakeOver at the
// lease epoch: it reads the blob from any surviving replica, fences
// every shard at an epoch above the blob's (deposing the old
// coordinator — shards reject its mutations with CodeFenced from that
// moment), rebuilds routing from live shard stats, and recovers any
// session found on no shard from its replicated checkpoint.

// ErrDeposed is returned by every coordinator operation after a peer
// reported a higher fencing epoch: a successor has taken over and this
// coordinator must stop mutating the fleet.
var ErrDeposed = errors.New("fleet: coordinator deposed by a higher epoch")

// ErrNoMeta is returned by TakeOver when the store holds no fleet
// metadata — there is nothing to take over from.
var ErrNoMeta = errors.New("fleet: no fleet metadata in checkpoint store")

// MetaKey is the reserved checkpoint-store id under which the
// coordinator persists its BBFM meta blob. Session ids may not use it.
const MetaKey = "__fleet_meta__"

var metaMagic = [4]byte{'B', 'B', 'F', 'M'}

const (
	// metaVersion 2 added a u16 capacity weight after each member
	// address; version-1 blobs (implicit weight 1) still decode.
	metaVersion     = 2
	metaMaxMembers  = 4096
	metaMaxSpecs    = 1 << 20
	metaMaxStrBytes = 1024
)

// fleetMeta is the decoded BBFM blob.
type fleetMeta struct {
	Epoch   uint64
	Vnodes  int
	Members []string
	Weights map[string]int
	Specs   []OpenSpec
}

// encodeMeta serialises the blob: magic, u16 version, u64 epoch,
// u32 vnodes, u16 member count + per-member (length-prefixed addr,
// u16 weight), u32 spec count + per-spec (id, u16 W, u16 H, u8 flags,
// u64 seed), all little-endian, sealed with a trailing CRC32-IEEE of
// everything before it.
func encodeMeta(m fleetMeta) ([]byte, error) {
	if len(m.Members) > metaMaxMembers {
		return nil, fmt.Errorf("fleet: %d members exceed the meta budget %d", len(m.Members), metaMaxMembers)
	}
	if len(m.Specs) > metaMaxSpecs {
		return nil, fmt.Errorf("fleet: %d specs exceed the meta budget %d", len(m.Specs), metaMaxSpecs)
	}
	le := binary.LittleEndian
	var a binx.Appender
	b := append([]byte(nil), metaMagic[:]...)
	b = le.AppendUint16(b, metaVersion)
	b = le.AppendUint64(b, m.Epoch)
	b = le.AppendUint32(b, uint32(m.Vnodes))
	b = a.Len16(b, len(m.Members))
	for _, addr := range m.Members {
		if len(addr) > metaMaxStrBytes {
			return nil, fmt.Errorf("fleet: member address %d bytes long", len(addr))
		}
		b = a.Str(b, addr)
		b = le.AppendUint16(b, uint16(clampWeight(m.Weights[addr])))
	}
	b = le.AppendUint32(b, uint32(len(m.Specs)))
	for _, s := range m.Specs {
		if len(s.ID) > metaMaxStrBytes {
			return nil, fmt.Errorf("fleet: session id %d bytes long", len(s.ID))
		}
		b = a.Str(b, s.ID)
		b = a.Len16(b, s.W)
		b = a.Len16(b, s.H)
		b = append(b, b2u8(s.UnknownVB))
		b = le.AppendUint64(b, uint64(s.Seed))
	}
	if err := a.Err(); err != nil {
		return nil, fmt.Errorf("fleet: encode meta: %w", err)
	}
	return le.AppendUint32(b, crc32.ChecksumIEEE(b)), nil
}

// decodeMeta parses and CRC-verifies a BBFM blob.
func decodeMeta(b []byte) (fleetMeta, error) {
	var m fleetMeta
	if len(b) < len(metaMagic)+2+4 {
		return m, fmt.Errorf("fleet: meta blob of %d bytes too short: %w", len(b), ErrBadMessage)
	}
	if string(b[:4]) != string(metaMagic[:]) {
		return m, fmt.Errorf("fleet: bad meta magic %q: %w", b[:4], ErrBadMessage)
	}
	body, crc := b[:len(b)-4], binary.LittleEndian.Uint32(b[len(b)-4:])
	if got := crc32.ChecksumIEEE(body); got != crc {
		return m, fmt.Errorf("fleet: meta CRC mismatch (stored %08x, computed %08x): %w", crc, got, ErrBadMessage)
	}
	r := binx.NewReader(body[4:], "fleet: meta", ErrBadMessage)
	ver, err := r.U16()
	if err != nil {
		return m, err
	}
	if ver != 1 && ver != metaVersion {
		return m, fmt.Errorf("fleet: meta version %d: %w", ver, ErrVersion)
	}
	if m.Epoch, err = r.U64(); err != nil {
		return m, err
	}
	vnodes, err := r.U32()
	if err != nil {
		return m, err
	}
	m.Vnodes = int(vnodes)
	nm, err := r.U16()
	if err != nil {
		return m, err
	}
	if int(nm) > metaMaxMembers {
		return m, r.Errorf("%d members exceed budget", nm)
	}
	for i := 0; i < int(nm); i++ {
		addr, err := r.Str(metaMaxStrBytes)
		if err != nil {
			return m, err
		}
		// A repeated address would collapse in Weights, and no
		// coordinator accepts one (NewCoordinator rejects it).
		if slices.Contains(m.Members, addr) {
			return m, r.Errorf("duplicate member %q", addr)
		}
		m.Members = append(m.Members, addr)
		if ver >= 2 {
			w, err := r.U16()
			if err != nil {
				return m, err
			}
			if w == 0 || int(w) > maxWeight {
				return m, r.Errorf("weight %d out of range", w)
			}
			if w != 1 {
				if m.Weights == nil {
					m.Weights = map[string]int{}
				}
				m.Weights[addr] = int(w)
			}
		}
	}
	ns, err := r.U32()
	if err != nil {
		return m, err
	}
	if int64(ns) > metaMaxSpecs {
		return m, r.Errorf("%d specs exceed budget", ns)
	}
	// Each spec costs >= 15 bytes; verify the advertised count against
	// the bytes actually present before reserving anything.
	if err := r.Need(15 * int64(ns)); err != nil {
		return m, err
	}
	for i := uint32(0); i < ns; i++ {
		var s OpenSpec
		if s.ID, err = r.Str(metaMaxStrBytes); err != nil {
			return m, err
		}
		w, err := r.U16()
		if err != nil {
			return m, err
		}
		h, err := r.U16()
		if err != nil {
			return m, err
		}
		s.W, s.H = int(w), int(h)
		flags, err := r.U8()
		if err != nil {
			return m, err
		}
		if flags&^0x01 != 0 {
			return m, r.Errorf("nonzero spec flag padding")
		}
		s.UnknownVB = flags&1 != 0
		seed, err := r.U64()
		if err != nil {
			return m, err
		}
		s.Seed = int64(seed)
		m.Specs = append(m.Specs, s)
	}
	return m, r.Done()
}

// VerifyMeta parses and CRC-verifies a BBFM meta blob without acting
// on it — the scrubber's integrity hook for the reserved meta record.
func VerifyMeta(b []byte) error {
	_, err := decodeMeta(b)
	return err
}

// saveMeta persists the coordinator's current epoch, membership, and
// session specs into the store — the breadcrumb an elected successor
// takes over from. Best-effort: a failed write is logged, not fatal
// (the next state change retries it).
func (c *Coordinator) saveMeta() {
	c.mu.Lock()
	m := fleetMeta{Epoch: c.epoch, Vnodes: c.cfg.Vnodes, Members: append([]string(nil), c.members...)}
	for a, w := range c.weights {
		if clampWeight(w) != 1 {
			if m.Weights == nil {
				m.Weights = map[string]int{}
			}
			m.Weights[a] = clampWeight(w)
		}
	}
	ids := make([]string, 0, len(c.specs))
	for id := range c.specs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		m.Specs = append(m.Specs, c.specs[id])
	}
	c.mu.Unlock()
	blob, err := encodeMeta(m)
	if err == nil {
		err = c.cfg.Store.Save(MetaKey, blob)
	}
	if err != nil {
		c.logf("fleet: persist meta: %v", err)
	}
}

// TakeOver makes the caller — the candidate that just won the
// coordinator lease — the active coordinator. cfg.Shards is ignored:
// membership comes from the persisted meta blob. cfg.Store must point
// at (a surviving replica of) the deposed coordinator's store, and
// cfg.Epoch is the lease epoch. The successor:
//
//  1. loads and verifies the BBFM blob,
//  2. assumes cfg.Epoch, raised to the blob's epoch+1 when not already
//     above it, and fences every member shard with it — from that
//     instant the old coordinator's mutations die with CodeFenced,
//  3. rebuilds routing from live shard stats (reality wins over any
//     stale record of placement),
//  4. re-resumes every session found on no shard from its replicated
//     checkpoint.
//
// Unreachable shards are marked down exactly as if they had failed
// under the old coordinator.
func TakeOver(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Store == nil {
		return nil, errors.New("fleet: takeover requires a checkpoint store")
	}
	blob, err := cfg.Store.Load(MetaKey)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoMeta, err)
	}
	m, err := decodeMeta(blob)
	if err != nil {
		return nil, fmt.Errorf("fleet: takeover: %w", err)
	}
	if len(m.Members) == 0 {
		return nil, errors.New("fleet: takeover: meta blob lists no members")
	}
	cfg.Shards = m.Members
	if cfg.Vnodes == 0 {
		cfg.Vnodes = m.Vnodes
	}
	if cfg.Weights == nil {
		cfg.Weights = m.Weights
	}
	if cfg.Epoch <= m.Epoch {
		cfg.Epoch = m.Epoch + 1
	}
	c, err := NewCoordinator(cfg)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	for _, s := range m.Specs {
		c.specs[s.ID] = s
	}
	c.mu.Unlock()

	// Fence every shard at the new epoch and learn what actually lives
	// where. Dialing fences (clientLocked); stats enumerate placement.
	located := map[string]bool{}
	for _, addr := range m.Members {
		c.mu.Lock()
		cl, cerr := c.clientLocked(addr)
		c.mu.Unlock()
		var st StatsInfo
		if cerr == nil {
			st, cerr = cl.Stats()
		}
		if cerr != nil {
			if errors.Is(cerr, ErrDeposed) {
				c.Close()
				return nil, fmt.Errorf("fleet: takeover raced a higher epoch: %w", cerr)
			}
			c.logf("fleet: takeover: shard %s unreachable (%v); marking down", addr, cerr)
			c.mu.Lock()
			c.down[addr] = true
			if h := c.health[addr]; h != nil {
				h.state = HealthDown
			}
			c.dropClientLocked(addr)
			c.mu.Unlock()
			continue
		}
		c.mu.Lock()
		for _, id := range st.IDs {
			if located[id] {
				c.logf("fleet: takeover: session %q found on %s and %s; keeping the first", id, c.routes[id], addr)
				continue
			}
			located[id] = true
			c.routes[id] = addr
		}
		c.mu.Unlock()
	}

	// Recover every recorded session found on no live shard.
	var orphans []string
	c.mu.Lock()
	for id := range c.specs {
		if !located[id] {
			orphans = append(orphans, id)
		}
	}
	c.mu.Unlock()
	sort.Strings(orphans)
	for _, id := range orphans {
		if err := c.recoverSession(id); err != nil {
			c.recoverFail.Add(1)
			c.logf("fleet: takeover: recover %q: %v", id, err)
		}
	}
	c.saveMeta()
	c.logf("fleet: takeover complete: epoch %d, %d members, %d sessions (%d recovered)",
		c.epoch, len(m.Members), len(m.Specs), len(orphans))
	return c, nil
}
