package fleet

import (
	"sort"
)

// Load sampling (DESIGN.md §18). Per-shard load rows — session count,
// summed stream footprint, mean worker time per processed frame — are
// gathered here. The rebalancer plans on the footprint and session
// count only; the worker time reaches just the FEED-us column of
// `bgbuster stats`. Sampling is deliberately passive: it uses short
// dedicated connections bounded by LoadTimeout, and a shard that fails
// to answer costs one placeholder row (Err set), never a shard-loss
// recovery or a hung stats command. Health transitions stay the
// prober's and the request path's job.

// Loads samples every member shard's load, one row per member in
// address order. Down members and members that fail to answer within
// LoadTimeout get placeholder rows with Err set and no session detail
// — the graceful-degradation contract `bgbuster stats` renders as
// DOWN/? rows.
func (c *Coordinator) Loads() []ShardLoad {
	c.mu.Lock()
	members := append([]string(nil), c.members...)
	down := make(map[string]bool, len(c.down))
	for a := range c.down {
		down[a] = true
	}
	states := make(map[string]uint8, len(members))
	for _, a := range members {
		st := HealthDown
		if h, ok := c.health[a]; ok && !c.down[a] {
			st = h.state
		}
		states[a] = uint8(st)
	}
	weights := make(map[string]int, len(c.weights))
	for a, w := range c.weights {
		weights[a] = w
	}
	c.mu.Unlock()
	sort.Strings(members)

	rows := make([]ShardLoad, 0, len(members))
	for _, addr := range members {
		row := ShardLoad{Addr: addr, State: states[addr], Weight: uint16(clampWeight(weights[addr]))}
		if down[addr] {
			row.Err = "down"
			rows = append(rows, row)
			continue
		}
		sample, err := c.sampleShard(addr)
		if err != nil {
			row.Err = err.Error()
			rows = append(rows, row)
			continue
		}
		row.Mem = sample.Mem
		row.FeedMicros = sample.FeedMicros
		row.Sess = sample.Sess
		rows = append(rows, row)
	}
	return rows
}

// sampleShard fetches one shard's self-reported load row over a short
// dedicated connection. The LoadTimeout deadline is what keeps one
// slow shard from stalling the whole sample.
func (c *Coordinator) sampleShard(addr string) (ShardLoad, error) {
	t := Timeouts{Dial: c.cfg.LoadTimeout, Read: c.cfg.LoadTimeout, Write: c.cfg.LoadTimeout}
	cl, err := DialTimeouts(addr, c.cfg.Limits, t)
	if err != nil {
		return ShardLoad{}, err
	}
	defer cl.Close()
	rows, err := cl.Load()
	if err != nil {
		return ShardLoad{}, err
	}
	if len(rows) != 1 {
		return ShardLoad{}, ErrBadMessage
	}
	return rows[0], nil
}
