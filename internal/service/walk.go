package service

import (
	"slices"
	"strings"
	"sync"
	"time"

	"accrual/internal/core"
	"accrual/internal/telemetry"
)

// This file holds the registry's two slab iterators — every full-fleet
// read or sweep in the package is a thin user of one of them — and the
// id-ordered walk the /v1/metrics scrape runs.

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
// of the shard, in slot order, with the slot's index, the binding's
// identity, its published evaluation snapshot, and its last-arrival
// UnixNano. Callers evaluate snap.Level(now) themselves, at their one
// clock reading — or, like TopK, first decide from the snapshot whether
// the level is needed at all. It runs straight off the slab arrays — no
// shard lock beyond the span capture, no entry locks, no detector
// calls, no allocations — and each slot is one seqlock read (loadEval),
// so fn never sees one binding's identity paired with another's
// parameters: a slot rebound mid-walk is skipped or attributed to
// exactly one binding.
func (sh *shard) eachEval(fn func(slot uint32, meta *entryMeta, snap core.EvalSnapshot, last int64)) {
	chunks, n := sh.walkSpan()
	remaining := int(n)
	for c, chunk := range chunks {
		if remaining < len(chunk) {
			chunk = chunk[:remaining] // the last chunk is in use only up to the high-water mark
		}
		base := uint32(c) << slabChunkBits
		for j := range chunk {
			if meta, snap, last, ok := chunk[j].loadEval(); ok {
				fn(base|uint32(j), meta, snap, last)
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

// walk runs eachEval over every shard and counts the pass
// (accrual_walk_runs_total).
func (m *Monitor) walk(fn func(slot uint32, meta *entryMeta, snap core.EvalSnapshot, last int64)) {
	for i := range m.shards {
		m.shards[i].eachEval(fn)
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

// sortedOrder is a shard's bound slots in ascending id order, cached
// against the membership epoch: only a bind or unbind can change which
// ids the shard holds or where, so the order is rebuilt lazily — by the
// first ordered walk after such a change — and a scrape of an unchanged
// shard sorts nothing. mu serialises ordered walks of one shard and is
// taken before sh.mu, never under it.
type sortedOrder struct {
	mu    sync.Mutex
	epoch uint64 // shard epoch slots was built at; both start at 0, empty
	slots []orderedSlot
}

// orderedSlot is one bound slot as of the order's epoch. The binding is
// recorded with the index so a slot rebound since — by a membership
// change the walk in progress has not caught up with — is recognised and
// skipped instead of surfacing a different id out of order.
type orderedSlot struct {
	meta *entryMeta
	idx  uint32
}

// eachSorted is eachEval in ascending id order, for the one reader whose
// output order is a contract (the /v1/metrics scrape). Levels are still
// one seqlock read per slot straight off the slab with no shard or entry
// lock held; only the order comes from the cache. It reports whether the
// order had to be rebuilt.
func (sh *shard) eachSorted(now time.Time, fn func(meta *entryMeta, lvl core.Level)) (rebuilt bool) {
	o := &sh.order
	o.mu.Lock()
	defer o.mu.Unlock()
	sh.mu.RLock()
	chunks := sh.slab.chunks
	if rebuilt = o.epoch != sh.epoch; rebuilt {
		clear(o.slots) // drop the previous epoch's bindings, unbound ones included
		o.slots = o.slots[:0]
		// Membership is frozen under the shard lock, so every indexed
		// slot is bound and its identity is stable.
		sh.index.eachSlot(func(idx uint32) {
			o.slots = append(o.slots, orderedSlot{meta: sh.slab.at(idx).meta.Load(), idx: idx})
		})
		o.epoch = sh.epoch
	}
	sh.mu.RUnlock()
	if rebuilt {
		slices.SortFunc(o.slots, func(a, b orderedSlot) int { return strings.Compare(a.meta.id, b.meta.id) })
	}
	slots := o.slots
	for i, s := range slots {
		// Software pipeline over the random slab order: row i+D's slot
		// and identity are requested from addresses the cached order
		// already holds, and row i+D/2's label bytes once its identity
		// line has had D/2 rows to arrive.
		if j := i + scrapeLookahead; j < len(slots) {
			ahead := slots[j]
			prefetchEntry(&chunks[ahead.idx>>slabChunkBits][ahead.idx&slabChunkMask])
			prefetchMeta(ahead.meta)
		}
		if j := i + scrapeLookahead/2; j < len(slots) {
			slots[j].meta.series.PrefetchLabels()
		}
		e := &chunks[s.idx>>slabChunkBits][s.idx&slabChunkMask]
		if meta, snap, _, ok := e.loadEval(); ok && meta == s.meta {
			fn(meta, snap.Level(now))
		}
	}
	return rebuilt
}

// scrapeLookahead is how many rows ahead eachSorted prefetches: enough
// rows of walk and render to cover a DRAM miss, few enough that the
// lines are still cached when their row comes up.
const scrapeLookahead = 16

// AppendShardSeries appends one row per process bound in shard s
// (0 <= s < ShardCount) to dst, in ascending id order, and returns the
// extended slice: the process's id, its exposition series (label block
// rendered at bind) and its level evaluated at now from the published
// snapshot. It is what the /v1/metrics scrape walks, shards
// [cursor, cursor+k) per page, and allocates nothing beyond dst growth;
// on a shard whose membership has not changed since the last call it
// sorts nothing either (see sortedOrder).
func (m *Monitor) AppendShardSeries(s int, now time.Time, dst []telemetry.ProcRow) []telemetry.ProcRow {
	if s < 0 || s >= len(m.shards) {
		return dst
	}
	if m.shards[s].eachSorted(now, func(meta *entryMeta, lvl core.Level) {
		dst = append(dst, telemetry.ProcRow{ID: meta.id, Series: &meta.series, Level: lvl})
	}) {
		m.orderRebuilds.Add(1)
	}
	return dst
}

// ShardOrderRebuilds counts how often AppendShardSeries had to re-sort
// a shard because its membership had changed. It moves with
// registration churn, never with scrapes alone — the invariant the
// scrape tests pin.
func (m *Monitor) ShardOrderRebuilds() uint64 { return m.orderRebuilds.Load() }
