package service

import (
	"fmt"
	"math/bits"
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
	if accepted, _ := m.HeartbeatBatch([]core.Heartbeat{hb}); accepted == 0 {
		return fmt.Errorf("%w: %q", ErrUnknownProcess, hb.From)
	}
	return nil
}

// HeartbeatBatch ingests beats and returns how many were accepted and
// how many rejected (unknown process with auto-registration off); a
// rejection does not abort the rest of the batch. A stale beat is
// accepted — the registry took it — and counted stale (see
// entry.report). Beats are resolved in groups (see resolveGroup): a
// group's beats of known senders are reported in order, then its
// first-contact beats are bound and reported in registry-shard order,
// keeping their order within a shard and so each sender's own. The
// steady-state path (all senders known) performs zero allocations.
func (m *Monitor) HeartbeatBatch(beats []core.Heartbeat) (accepted, rejected int) {
	if len(beats) == 1 {
		var p [1]probe
		var s [1]uint16
		return m.heartbeatBatch(&group{p[:], s[:]}, beats)
	}
	var p [groupSize]probe
	var s [groupSize]uint16
	return m.heartbeatBatch(&group{p[:], s[:]}, beats)
}

func (m *Monitor) heartbeatBatch(g *group, beats []core.Heartbeat) (accepted, rejected int) {
	for lo := 0; lo < len(beats); lo += groupSize {
		part := beats[lo:min(lo+groupSize, len(beats))]
		known := resolveGroup(m, g, func(i int) string { return part[i].From }, part)
		accepted += known
		if known < len(part) {
			a, r := m.firstContact(g, part)
			accepted += a
			rejected += r
		}
	}
	return accepted, rejected
}

// HeartbeatIDs is the steady-state half of HeartbeatBatch for sender ids
// still held as raw bytes — the UDP read loop's decoded frame, whose ids
// alias the datagram. beats[i] is the beat of ids[i]; its From is
// ignored. Each beat whose id the registry holds is reported in place,
// resolved with the bytes themselves, and known[i] is set true; for the
// others known[i] is set false and nothing is done: the caller converts
// those ids to strings and hands their beats to HeartbeatBatch, which
// registers the senders. known must be at least len(ids) long. It
// returns how many beats were reported, and allocates nothing.
func (m *Monitor) HeartbeatIDs(ids [][]byte, beats []core.Heartbeat, known []bool) int {
	if len(ids) == 1 {
		var p [1]probe
		var s [1]uint16
		return m.heartbeatIDs(&group{p[:], s[:]}, ids, beats, known)
	}
	var p [groupSize]probe
	var s [groupSize]uint16
	return m.heartbeatIDs(&group{p[:], s[:]}, ids, beats, known)
}

func (m *Monitor) heartbeatIDs(g *group, ids [][]byte, beats []core.Heartbeat, known []bool) int {
	reported := 0
	for lo := 0; lo < len(ids); lo += groupSize {
		hi := min(lo+groupSize, len(ids))
		part := ids[lo:hi]
		reported += resolveGroup(m, g, func(i int) []byte { return part[i] }, beats[lo:hi])
		for i := range part {
			known[lo+i] = g.probes[i].e != nil
		}
	}
	return reported
}

// groupSize bounds the beats resolved together: enough that a group's
// misses overlap, few enough that its scratch stays on the stack.
const groupSize = 64

// group is resolveGroup's scratch, on the caller's stack. A one-beat
// call (an AFD1 datagram, Heartbeat) gets one-slot arrays: zeroing a
// whole group's 1.6 KB measured tens of nanoseconds a call, the order of
// resolving its beat.
type group struct {
	probes []probe  // by the beat's position in its group
	shards []uint16 // the group's distinct shard indices, ascending
}

// probe is one beat's resolution state.
type probe struct {
	// e is the resolved entry, nil while unresolved and for an id the
	// registry does not hold.
	e *entry
	// word is the home index word once loaded, then the first word of
	// the chain tagged h, 0 when the chain ends without one, or offLine.
	word uint64
	// h is the id's intern.Hash: its shard (low bits) and index tag.
	h uint32
}

// offLine marks a beat whose chain leaves its home index line without a
// decision; find resolves it. No used index word has a zero low half.
const offLine = uint64(1) << 32

// findFallback, when non-nil, is called each time resolveGroup resolves
// a beat with find instead of its one-line probe. Tests set it.
var findFallback func()

// resolveGroup is the one path every heartbeat takes to its registry
// slot. It resolves beats (at most groupSize) whose ids are id(0..n-1)
// and reports those of registered senders, in order, returning how
// many. On return g.probes[i].e is nil exactly for the beats not
// reported, and g.probes[i].h holds every id's hash.
//
// A beat's resolution is a chain of dependent loads — index word, slot,
// id bytes, detector — each a cache miss once the registry is beyond
// cache. Taken one beat at a time behind locked instructions nothing
// overlaps; here each step is taken for the whole group before the next,
// with no lock acquired between a stage's loads, so a stage's misses are
// in flight together:
//
//  1. hash every id; read-lock the group's distinct shards, ascending;
//  2. load each home index word;
//  3. walk each chain, within the home word's cache line, to its first
//     tag hit, and prefetch that slot's lines;
//  4. compare the ids; a tag collision, or a chain that leaves its line,
//     is resolved by find;
//  5. prefetch each detector's first lines;
//  6. under each beat's entry lock in turn, have its detector prefetch
//     the memory its Report touches beyond itself (core.Detector's
//     Prefetch: a sample window's next slot, the miss stage 5 cannot
//     reach without knowing the detector's layout);
//  7. report each beat in order under its entry lock, one at a time;
//  8. release the shard locks.
//
// A one-beat group skips stage 6: with nothing to overlap its miss with,
// the extra lock round trip is pure cost.
//
// Stage 6 takes the entry lock because a detector's window is not
// immutable under the shard read lock alone: a retune resizes it, and a
// state import restores it, under the entry lock.
//
// Only bind and unbind write the index, e.id and e.det, and they hold
// the shard write lock, so every load above is race-free under the read
// locks. Shard read locks are taken in ascending index, and an entry lock
// only while they are held, never the reverse: with writers queued on
// several shards, two groups locking in different orders could deadlock.
func resolveGroup[T ~string | ~[]byte](m *Monitor, g *group, id func(int) T, beats []core.Heartbeat) (reported int) {
	ps := g.probes[:len(beats)]
	for i := range ps {
		ps[i].h = intern.Hash(id(i))
	}
	ns := g.distinctShards(ps, m.shardMask)
	for _, s := range g.shards[:ns] {
		m.shards[s].mu.RLock()
	}

	for i := range ps {
		p := &ps[i]
		x := &m.shardAt(p.h).index
		p.word = 0
		if len(x.words) != 0 {
			p.word = x.words[x.home(p.h)]
		}
	}

	for i := range ps {
		p := &ps[i]
		sh := m.shardAt(p.h)
		if p.word != 0 && wordTag(p.word) != p.h {
			p.word = sh.index.probeLine(p.h)
		}
		p.e = nil
		if p.word != 0 && p.word != offLine {
			p.e = sh.slab.at(wordSlot(p.word))
			prefetchEntry(p.e)
		}
	}

	for i := range ps {
		p := &ps[i]
		if p.e != nil && p.e.id == string(id(i)) {
			continue
		}
		if p.e == nil && p.word != offLine {
			continue // the chain ended: not registered
		}
		if findFallback != nil {
			findFallback()
		}
		_, p.e = find(m.shardAt(p.h), p.h, id(i))
	}

	for i := range ps {
		if e := ps[i].e; e != nil {
			prefetchDetector(e.det)
		}
	}

	if len(ps) > 1 {
		for i := range ps {
			if e := ps[i].e; e != nil {
				e.mu.Lock()
				e.det.Prefetch()
				e.mu.Unlock()
			}
		}
	}

	for i := range ps {
		if p := &ps[i]; p.e != nil {
			m.deliver(p.h, p.e, p.e.gen.Load(), beats[i])
			reported++
		}
	}

	for _, s := range g.shards[:ns] {
		m.shards[s].mu.RUnlock()
	}
	return reported
}

// distinctShards writes the distinct shards of the probes' hashes to
// g.shards in ascending index and returns how many there are. Up to 64
// shards (the default count) one bitmap word sorts them; past that an
// insertion sort does, whose data-dependent branches cost tens of
// nanoseconds a beat.
func (g *group) distinctShards(ps []probe, mask uint32) int {
	n := 0
	if mask < 64 {
		var set uint64
		for i := range ps {
			set |= 1 << (ps[i].h & mask)
		}
		for ; set != 0; set &= set - 1 {
			g.shards[n] = uint16(bits.TrailingZeros64(set))
			n++
		}
		return n
	}
	for i := range ps {
		s := uint16(ps[i].h & mask)
		j := n
		for j > 0 && g.shards[j-1] > s {
			j--
		}
		if j > 0 && g.shards[j-1] == s {
			continue
		}
		copy(g.shards[j+1:n+1], g.shards[j:n])
		g.shards[j] = s
		n++
	}
	return n
}

// firstContact finishes a group resolveGroup left: the beats it did not
// report are of unregistered senders. With auto-registration on each is
// bound on first contact and reported, in registry-shard order, stably;
// otherwise each is rejected. Walks (scrape, top-k, sampling, digests)
// visit the registry shard by shard, and a binding's per-process objects
// are allocated when it is bound, so a burst bound in shard order is laid
// out in the order the walks read it; bound in arrival order, a fleet
// registering in bulk made the read-heavy benchmark's top-k and scrape
// walks ~20% dearer. The sort reads the hashes resolveGroup kept: it
// hashes nothing itself.
func (m *Monitor) firstContact(g *group, beats []core.Heartbeat) (accepted, rejected int) {
	var fresh [groupSize]uint8
	nf := 0
	for i := range beats {
		if g.probes[i].e == nil {
			fresh[nf] = uint8(i)
			nf++
		}
	}
	if !m.autoRegister {
		return 0, nf
	}
	// Insertion sort: stable, and nf is at most groupSize.
	for k := 1; k < nf; k++ {
		for j := k; j > 0 && g.probes[fresh[j]].h&m.shardMask < g.probes[fresh[j-1]].h&m.shardMask; j-- {
			fresh[j], fresh[j-1] = fresh[j-1], fresh[j]
		}
	}
	for _, i := range fresh[:nf] {
		hb, h := beats[i], g.probes[i].h
		e, gen, _ := m.bindOnce(h, hb.From, hb.Arrived)
		m.deliver(h, e, gen, hb)
	}
	return nf, 0
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
	if e, gen = get(sh, h, id); e == nil {
		if start.IsZero() {
			start = m.clk.Now()
		}
		e, gen = sh.bind(h, id, m.factory(id, start), m.groupOf(id), start)
		bound = true
	}
	sh.mu.Unlock()
	if bound && m.tel != nil {
		m.tel.Counters.Registered(h)
	}
	return e, gen, bound
}
