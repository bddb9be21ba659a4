package service

import (
	"fmt"
	"slices"
	"sync"

	"accrual/internal/core"
	"accrual/internal/transport/intern"
)

// batchRef is one heartbeat of a run with its precomputed id hash and,
// once resolved, its registry slot handle (entry + binding generation).
// Hashing up front means the sort comparator and the shard grouping
// never re-hash, and the resolved handle lets one registry probe serve
// both the report and the telemetry stripe.
type batchRef struct {
	h   uint32
	gen uint64
	e   *entry
	hb  core.Heartbeat
}

var batchRefPool = sync.Pool{
	New: func() any {
		s := make([]batchRef, 0, 256)
		return &s
	},
}

// Heartbeat routes a heartbeat to the detector of its sender,
// registering the sender first when auto-registration is on. It is the
// one-beat case of HeartbeatBatch — the same shard run, with its one ref
// on the stack and nothing to sort — and returns ErrUnknownProcess where
// HeartbeatBatch counts a beat rejected. A process auto-registered by a
// heartbeat is stamped with the heartbeat's arrival time when it carries
// one, so replayed or simulated streams do not skew the first
// inter-arrival sample with the ingestion-time clock reading.
func (m *Monitor) Heartbeat(hb core.Heartbeat) error {
	ref := [1]batchRef{{h: intern.Hash(hb.From), hb: hb}}
	if _, rejected := m.ingestShardRun(ref[0].h&m.shardMask, ref[:]); rejected > 0 {
		return fmt.Errorf("%w: %q", ErrUnknownProcess, hb.From)
	}
	return nil
}

// HeartbeatBatch ingests a batch of heartbeats, acquiring each registry
// shard lock once per batch instead of once per beat: the beats are
// stably sorted by shard (stable, so one process's beats keep their
// arrival order) and each run of same-shard beats is resolved under a
// single read-lock acquisition. Auto-registration of unseen senders
// costs that shard one extra write acquisition for the whole run — still
// O(shards touched), never O(beats).
//
// It returns how many beats were accepted and how many rejected
// (unknown process with auto-registration off); a rejection does not
// abort the rest of the batch. A stale beat is accepted — the registry
// took it — and counted stale (see entry.report). The steady-state path
// (all senders known) performs zero allocations.
func (m *Monitor) HeartbeatBatch(beats []core.Heartbeat) (accepted, rejected int) {
	if len(beats) == 0 {
		return 0, 0
	}
	refsP := batchRefPool.Get().(*[]batchRef)
	refs := (*refsP)[:0]
	for _, hb := range beats {
		refs = append(refs, batchRef{h: intern.Hash(hb.From), hb: hb})
	}
	mask := m.shardMask
	slices.SortStableFunc(refs, func(a, b batchRef) int {
		return int(a.h&mask) - int(b.h&mask)
	})
	for start := 0; start < len(refs); {
		end := start + 1
		si := refs[start].h & mask
		for end < len(refs) && refs[end].h&mask == si {
			end++
		}
		acc, rej := m.ingestShardRun(si, refs[start:end])
		accepted += acc
		rejected += rej
		start = end
	}
	clear(refs) // drop entry and heartbeat references before pooling
	*refsP = refs[:0]
	batchRefPool.Put(refsP)
	return accepted, rejected
}

// ingestShardRun ingests one same-shard run of heartbeats — the one
// ingest path every heartbeat takes, alone or in a batch. Entry
// resolution takes the shard read lock exactly once; only a run
// containing unseen senders pays one additional write acquisition to
// register them all.
func (m *Monitor) ingestShardRun(si uint32, refs []batchRef) (accepted, rejected int) {
	sh := &m.shards[si]
	m.noteShardLock(si, false)
	sh.mu.RLock()
	missing := 0
	for i := range refs {
		if refs[i].e, refs[i].gen = sh.get(refs[i].hb.From); refs[i].e == nil {
			missing++
		}
	}
	sh.mu.RUnlock()
	if missing > 0 && m.autoRegister {
		m.noteShardLock(si, true)
		sh.mu.Lock()
		for i := range refs {
			if refs[i].e != nil {
				continue
			}
			e, gen := sh.get(refs[i].hb.From)
			if e == nil {
				start := refs[i].hb.Arrived
				if start.IsZero() {
					start = m.clk.Now()
				}
				id := m.ids.InternString(refs[i].hb.From)
				e, gen = sh.bind(id, m.factory(id, start), m.groupOf(id), start)
				if m.tel != nil {
					m.tel.Counters.Registered(refs[i].h)
				}
			}
			// Resolve every later beat of the same (newly present) id so
			// the loop registers each unseen sender once.
			id := refs[i].hb.From
			for j := i; j < len(refs); j++ {
				if refs[j].e == nil && refs[j].hb.From == id {
					refs[j].e, refs[j].gen = e, gen
				}
			}
		}
		sh.mu.Unlock()
	}
	for i := range refs {
		if refs[i].e == nil {
			rejected++
			continue
		}
		// A generation mismatch (process deregistered after resolution)
		// drops the beat but still counts it accepted: the registry took
		// it, its target vanished — the same outcome the pre-slab
		// registry gave a racing orphaned entry.
		fresh, ok := refs[i].e.report(refs[i].gen, refs[i].hb)
		if ok && m.tel != nil {
			m.tel.Counters.Heartbeat(refs[i].h, !fresh)
		}
		accepted++
	}
	return accepted, rejected
}

// noteShardLock is the test seam for the lock-amortisation contract:
// tests install onShardLock to count how often a batch touches each
// shard lock. It is nil outside tests and costs one predictable branch.
func (m *Monitor) noteShardLock(si uint32, write bool) {
	if m.onShardLock != nil {
		m.onShardLock(si, write)
	}
}
