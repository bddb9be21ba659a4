package service

import (
	"sync"
	"time"

	"accrual/internal/core"
)

// This file holds the registry's two slab iterators — every full-fleet
// read or sweep in the package is a thin user of one of them — and the
// single-flight coalescer: two consumers at the same instant want the
// same scan, so one pass can feed both.

// walkSpan captures the shard's slab extent for iteration without the
// shard lock: the chunk table and the high-water slot count. The shard
// lock is held only for the two-field copy — chunks are append-only and
// never moved, so the captured prefix stays valid for the monitor's
// lifetime; slots bound after the capture are simply not visited this
// pass.
func (sh *shard) walkSpan() ([][]entry, uint32) {
	sh.mu.RLock()
	chunks, n := sh.slab.chunks, sh.slab.next
	sh.mu.RUnlock()
	return chunks, n
}

// eachEval is the lock-free iterator: it calls fn for every bound slot
// of the shard with the binding's identity, its level evaluated at now
// from the published snapshot, and its last-arrival UnixNano. It runs
// straight off the slab arrays — no shard lock beyond the span capture,
// no entry locks, no detector calls, no allocations — and each slot is
// one seqlock read (loadEval), so fn never sees one binding's identity
// paired with another's parameters: a slot rebound mid-walk is skipped
// or attributed to exactly one binding.
func (sh *shard) eachEval(now time.Time, fn func(meta *entryMeta, lvl core.Level, last int64)) {
	chunks, n := sh.walkSpan()
	remaining := int(n)
	for _, chunk := range chunks {
		if remaining < len(chunk) {
			chunk = chunk[:remaining] // the last chunk is in use only up to the high-water mark
		}
		for j := range chunk {
			if meta, snap, last, ok := chunk[j].loadEval(); ok {
				fn(meta, snap.Level(now), last)
			}
		}
		remaining -= len(chunk)
	}
}

// eachLocked is the locked iterator, for sweeps that read or mutate
// live detector state the snapshots do not carry (tuning, state
// export). It calls fn for every bound slot of the shard with the entry
// lock held and the binding re-checked under it, so fn owns e.det for
// the duration of the call and a slot deregistered since the scan is
// skipped. No shard lock is held beyond the span capture. A mutating fn
// must e.publishEval before returning.
func (sh *shard) eachLocked(fn func(e *entry, meta *entryMeta)) {
	chunks, n := sh.walkSpan()
	remaining := int(n)
	for _, chunk := range chunks {
		if remaining < len(chunk) {
			chunk = chunk[:remaining]
		}
		for j := range chunk {
			e := &chunk[j]
			meta := e.meta.Load()
			if meta == nil {
				continue // free slot
			}
			e.mu.Lock()
			if e.meta.Load() == meta {
				fn(e, meta)
			}
			e.mu.Unlock()
		}
		remaining -= len(chunk)
	}
}

// walk runs eachEval over every shard at one clock reading and counts
// the pass (accrual_walk_runs_total).
func (m *Monitor) walk(fn func(meta *entryMeta, lvl core.Level, last int64)) {
	now := m.clk.Now()
	for i := range m.shards {
		m.shards[i].eachEval(now, fn)
	}
	if m.tel != nil {
		m.tel.Walks.Run()
	}
}

// sweep runs eachLocked over every shard.
func (m *Monitor) sweep(fn func(e *entry, meta *entryMeta)) {
	for i := range m.shards {
		m.shards[i].eachLocked(fn)
	}
}

// walkCoalescer single-flights full-registry walks: while one consumer's
// pass is in flight, later consumers queue their callbacks instead of
// starting their own O(N) scans, and the in-flight leader runs one more
// pass that feeds the whole batch. Consumers still block until their
// callback has seen every process, so the contract ("fn saw the fleet at
// one clock reading") is unchanged — the reading is just the batch's
// rather than each caller's own, which is the staleness the coalescing
// tick trades for doing one walk instead of k (documented in
// docs/TUNING.md "Read-path scaling").
type walkCoalescer struct {
	mu      sync.Mutex
	running bool
	queue   []*walkJoin // consumers waiting for the next batch pass
	batch   []*walkJoin // the pass currently being fed (leader-owned)
	fanFn   func(info ProcessInfo)
}

// walkJoin is one queued consumer: exactly one of fn / levelFn is set.
// Joins are pooled; the done channel is allocated once per pooled
// object.
type walkJoin struct {
	fn      func(info ProcessInfo)
	levelFn func(id string, lvl core.Level)
	done    chan struct{}
}

var joinPool = sync.Pool{
	New: func() any { return &walkJoin{done: make(chan struct{}, 1)} },
}

// EachInfoShared is EachInfo through the coalescer: same-instant
// consumers (scrape + gossip + QoS sampler firing together) share one
// walk's output instead of each paying for their own.
//
// A joined consumer's fn may execute on the leader's goroutine. It must
// therefore not acquire any lock the *other* shared-walk consumers hold
// while joined (the QoS estimator lock, the federation mutex); holding
// one's own lock across the join is fine — mutual exclusion is
// preserved because the joiner stays blocked until its callback is done.
func (m *Monitor) EachInfoShared(fn func(info ProcessInfo)) {
	m.sharedWalk(fn, nil)
}

// EachLevelShared is EachLevel through the coalescer; see EachInfoShared
// for the callback constraints.
func (m *Monitor) EachLevelShared(fn func(id string, lvl core.Level)) {
	m.sharedWalk(nil, fn)
}

func (m *Monitor) sharedWalk(infoFn func(info ProcessInfo), levelFn func(id string, lvl core.Level)) {
	c := &m.coal
	c.mu.Lock()
	if c.running {
		// Join the in-flight leader's next batch pass.
		j := joinPool.Get().(*walkJoin)
		j.fn, j.levelFn = infoFn, levelFn
		c.queue = append(c.queue, j)
		c.mu.Unlock()
		<-j.done
		j.fn, j.levelFn = nil, nil
		joinPool.Put(j)
		if m.tel != nil {
			m.tel.Walks.Coalesced(1)
		}
		return
	}
	// Leader: run own pass, then serve whoever queued meanwhile.
	c.running = true
	if c.fanFn == nil {
		c.fanFn = c.fanout
	}
	c.mu.Unlock()
	if infoFn != nil {
		m.EachInfo(infoFn)
	} else {
		m.EachLevel(levelFn)
	}
	for {
		c.mu.Lock()
		if len(c.queue) == 0 {
			c.running = false
			c.mu.Unlock()
			return
		}
		c.queue, c.batch = c.batch[:0], c.queue
		c.mu.Unlock()
		m.EachInfo(c.fanFn)
		for i, j := range c.batch {
			c.batch[i] = nil
			j.done <- struct{}{}
		}
	}
}

// fanout feeds one walked process to every consumer of the current
// batch. Bound to fanFn once so the batch pass allocates no closure.
func (c *walkCoalescer) fanout(info ProcessInfo) {
	for _, j := range c.batch {
		if j.fn != nil {
			j.fn(info)
		} else {
			j.levelFn(info.ID, info.Level)
		}
	}
}

// AppendShardInfos appends the ProcessInfo of every process currently
// bound in shard s (0 <= s < ShardCount), evaluated at now, to dst and
// returns the extended slice (unsorted). It is the paged counterpart of
// EachInfo — the /v1/metrics scrape walks shards [cursor, cursor+k) per
// page — and reads entirely from published snapshots: no shard lock
// beyond the two-field span capture, no entry locks, no allocations
// beyond dst growth. It deliberately does not go through the coalescer:
// scrape pages interleave per-process reads of the QoS estimator, whose
// lock a coalesced QoS sampling round holds while joined.
func (m *Monitor) AppendShardInfos(s int, now time.Time, dst []ProcessInfo) []ProcessInfo {
	if s < 0 || s >= len(m.shards) {
		return dst
	}
	m.shards[s].eachEval(now, func(meta *entryMeta, lvl core.Level, last int64) {
		dst = append(dst, ProcessInfo{ID: meta.id, Group: meta.group, Level: lvl, LastArrival: time.Unix(0, last)})
	})
	return dst
}
