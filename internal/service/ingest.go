package service

import (
	"fmt"
	"time"

	"accrual/internal/core"
	"accrual/internal/transport/intern"
)

// Heartbeat routes a heartbeat to the detector of its sender,
// registering the sender first when auto-registration is on, and
// returns ErrUnknownProcess where HeartbeatBatch counts a beat rejected.
// A process auto-registered by a heartbeat is stamped with the
// heartbeat's arrival time when it carries one, so replayed or simulated
// streams do not skew the first inter-arrival sample with the
// ingestion-time clock reading.
func (m *Monitor) Heartbeat(hb core.Heartbeat) error {
	if !m.ingest(hb) {
		return fmt.Errorf("%w: %q", ErrUnknownProcess, hb.From)
	}
	return nil
}

// HeartbeatBatch ingests beats in order, each on Heartbeat's path, and
// returns how many were accepted and how many rejected (unknown process
// with auto-registration off); a rejection does not abort the rest of
// the batch. A stale beat is accepted — the registry took it — and
// counted stale (see entry.report). The steady-state path (all senders
// known) performs zero allocations.
func (m *Monitor) HeartbeatBatch(beats []core.Heartbeat) (accepted, rejected int) {
	for i := range beats {
		if m.ingest(beats[i]) {
			accepted++
		} else {
			rejected++
		}
	}
	return accepted, rejected
}

// HeartbeatID is the steady-state half of Heartbeat for a sender id
// still held as raw bytes — the UDP read loop's decoded record, whose id
// aliases the datagram. hb.From is ignored. When the registry holds id
// the beat is reported in place, resolved by probing the registry with
// the bytes themselves, and HeartbeatID returns true. Otherwise it does
// nothing and returns false: the caller canonicalises the id and hands
// the beat to Heartbeat, which registers the sender.
func (m *Monitor) HeartbeatID(id []byte, hb core.Heartbeat) (known bool) {
	return reportKnown(m, id, hb)
}

// ingest is Heartbeat's path: the beat of a known sender is reported in
// place; an unknown sender is bound on first contact (auto-registration
// on) and then reported, or the beat is rejected.
func (m *Monitor) ingest(hb core.Heartbeat) bool {
	if reportKnown(m, hb.From, hb) {
		return true
	}
	if !m.autoRegister {
		return false
	}
	id := m.ids.InternString(hb.From)
	h := intern.Hash(id)
	e, gen, _ := m.bindOnce(h, id, hb.Arrived)
	m.deliver(h, e, gen, hb)
	return true
}

// reportKnown is the path every heartbeat of a registered process takes:
// one intern.Hash of the id, one probe of its shard's map under the read
// lock, and the report under the entry lock. It returns false, having
// done nothing, when the registry does not hold id.
func reportKnown[T ~string | ~[]byte](m *Monitor, id T, hb core.Heartbeat) bool {
	h := intern.Hash(id)
	sh := m.shardAt(h)
	sh.mu.RLock()
	e, gen := get(sh, id)
	sh.mu.RUnlock()
	if e == nil {
		return false
	}
	m.deliver(h, e, gen, hb)
	return true
}

// deliver reports hb to the binding (e, gen) of the id hashing to h and
// counts it. A generation mismatch (process deregistered after
// resolution) drops the beat but still counts it accepted: the registry
// took it, its target vanished.
func (m *Monitor) deliver(h uint32, e *entry, gen uint64, hb core.Heartbeat) {
	if fresh, ok := e.report(gen, hb); ok && m.tel != nil {
		m.tel.Counters.Heartbeat(h, !fresh)
	}
}

// bindOnce is the one registration path — Register, first contact and
// state import. It binds id (canonical, hashing to h) unless the shard
// already holds it, re-probing under the write lock so of two racing
// first contacts one binds and the other finds that binding. start
// stamps the new binding; zero means the monitor's clock. bound reports
// whether this call created the binding.
func (m *Monitor) bindOnce(h uint32, id string, start time.Time) (e *entry, gen uint64, bound bool) {
	sh := m.shardAt(h)
	sh.mu.Lock()
	if e, gen = get(sh, id); e == nil {
		if start.IsZero() {
			start = m.clk.Now()
		}
		e, gen = sh.bind(id, m.factory(id, start), m.groupOf(id), start)
		bound = true
	}
	sh.mu.Unlock()
	if bound && m.tel != nil {
		m.tel.Counters.Registered(h)
	}
	return e, gen, bound
}
