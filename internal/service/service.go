// Package service implements the failure-detection service architecture
// of the paper (Figure 2 and §1.5): a single Monitor per host performs
// the monitoring task — ingesting heartbeats and maintaining one accrual
// detector per monitored process — while any number of application-side
// interpreters (App) consume the suspicion levels through their own
// thresholds and policies.
//
// This is the decoupling the paper argues for: the monitor outputs raw
// suspicion levels; interpretation (conservative vs aggressive, one
// threshold or several) lives with each application, not inside the
// shared service. A library can still hand applications a binary
// interface — that is exactly what App does — but there is one
// interpretation module per application rather than one per host.
//
// # Concurrency
//
// The Monitor is the hot path of the whole service: every heartbeat from
// every monitored process and every suspicion query from every
// application lands on it. Its registry is therefore sharded — process
// ids are FNV-1a-hashed onto a fixed power-of-two number of shards, each
// with its own RWMutex-protected id index — and each registered process
// carries its own small mutex around its detector. Heartbeats and
// queries for different processes never contend: they take a read lock
// on (usually different) shards plus the per-process lock. Registration
// and deregistration take one shard's write lock and never pause the
// other shards. Snapshot and Ranked walk the shards one at a time, so a
// full-registry read never stops the world either.
//
// Lock ordering is shard lock → entry lock; no code path acquires a
// shard lock while holding an entry lock, and no code path holds two
// entry locks at once. Heartbeat ingest resolves a frame's beats in
// groups and holds the read locks of a group's distinct shards together,
// taken in ascending shard index, then takes its beats' entry locks one
// at a time; every other path holds at most one shard lock. A
// registration or deregistration waits out the groups reading its shard.
//
// # Memory layout
//
// Entries live in per-shard slabs: chunked arrays addressed by a small
// integer index, with a free list so deregistration returns the slot for
// reuse instead of leaving a dead heap object behind. The shard's index
// only carries hash tag → slot index, 8 bytes a word, and the slot holds
// the id itself (see idIndex); at a million processes that replaces a
// million individually heap-allocated entries (each its own GC object,
// scattered across the heap) with a few thousand contiguous chunks the
// collector scans in bulk. Slots are guarded by a generation counter —
// odd while bound, even while free, bumped on every transition — so a
// handle resolved before a deregistration can never read or write the
// *next* process bound into the same slot: every detector access
// revalidates the generation under the entry lock and drops the
// operation on mismatch.
package service

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"accrual/internal/clock"
	"accrual/internal/core"
	"accrual/internal/telemetry"
	"accrual/internal/transport/intern"
)

// Factory builds a fresh accrual detector for a newly registered process.
// start is the registration time according to the monitor's clock, or the
// arrival timestamp of the registering heartbeat when auto-registration
// triggered the creation.
type Factory func(id string, start time.Time) core.Detector

// Errors returned by the monitor.
var (
	// ErrUnknownProcess is returned for operations on a process that is
	// not registered (and auto-registration is off).
	ErrUnknownProcess = errors.New("service: unknown process")
	// ErrAlreadyRegistered is returned by Register for a duplicate id.
	ErrAlreadyRegistered = errors.New("service: process already registered")
)

// defaultShardCount is the registry shard count used unless overridden
// with WithShardCount. 64 shards keep the collision probability low into
// the tens of thousands of processes while costing ~6 KiB per idle
// Monitor.
const defaultShardCount = 64

// entry is one monitored process: its detector plus the small mutex that
// serialises access to it. Detectors are not required to be safe for
// concurrent use (see core.Detector), so every detector call goes
// through e.mu — but only heartbeats and sweeps touching the *same*
// process ever meet on it; level reads do not take it at all (see "The
// eval cell" below).
//
// Entries are slab slots, not individually allocated objects: they must
// never be copied (the mutex) and are reused across register/deregister
// cycles. gen distinguishes bindings: odd while a process is bound to
// the slot, even while free, bumped under e.mu on every bind and unbind.
// A caller that resolved (entry, gen) under a shard lock passes the gen
// back into report, which verifies it under e.mu and refuses the
// operation if the slot was rebound in between.
//
// # The eval cell
//
// Read paths never take e.mu in steady state. Each write that changes
// what a reader could observe — bind, unbind, an accepted heartbeat, a
// retune, a state restore — republishes the entry's evaluation state
// into a seqlock cell of plain atomics: the process identity (meta),
// the frozen core.EvalSnapshot parameters and the last-arrival stamp
// (evalLast, the only copy of it).
// The writer (always under e.mu, so writers never interleave) bumps
// evalSeq odd, stores the fields, bumps it even; a reader snapshots the
// fields between two equal even reads of evalSeq and otherwise retries.
// Every field is individually atomic, so the protocol is race-detector
// clean, and a reader can never pair one binding's id with another's
// parameters. Full-registry walks evaluate levels from the captured
// snapshot alone — zero locks, zero detector calls.
//
// # The per-beat footprint
//
// A heartbeat of a known process reads one line of its shard's id index,
// then the slot, the id's bytes (the index's tag hit is verified against
// id), its detector and one line of the detector's sample buffer, and
// nothing else. With a registry far beyond cache each object is a
// dependent miss per beat. resolveGroup overlaps each link of the chain
// across a frame's beats — the last, the sample line, through the
// detector's Prefetch — but not one beat's links with each other, so
// what the write path needs stays inline: the canonical id it compares
// and stamps on hb.From is the slot's own copy (id), not entryMeta's,
// and the last-arrival stamp lives only in the eval cell (evalLast).
type entry struct {
	mu  sync.Mutex
	gen atomic.Uint64
	det core.Detector
	// id is the binding's canonical id, the same string as meta.id, set
	// at bind and cleared at unbind under mu and the shard write lock;
	// the index probe compares it under the shard read lock, and report
	// stamps it on every beat as hb.From.
	id string

	// meta is the binding's identity (id and group tag), nil while the
	// slot is free. It is stored inside the seqlock window at bind and
	// unbind, so one consistent read of the cell pairs the right identity
	// with the right parameters even across a rebind.
	meta atomic.Pointer[entryMeta]

	// The seqlock cell proper. evalKind/evalRef/evalP1/evalP2/evalEps
	// mirror core.EvalSnapshot (floats as Float64bits); evalLast is the
	// UnixNano arrival time of the newest heartbeat (the bind time until
	// one arrives), written only under mu, so a writer reads it with a
	// plain Load; evalAux boxes the snapshot's EvalAux hook,
	// re-boxed only when its identity changes (for the in-tree detectors
	// that is once per binding, so steady-state publication allocates
	// nothing).
	evalSeq  atomic.Uint32
	evalKind atomic.Uint32
	evalRef  atomic.Int64
	evalLast atomic.Int64
	evalP1   atomic.Uint64
	evalP2   atomic.Uint64
	evalEps  atomic.Uint64
	evalAux  atomic.Pointer[evalAuxBox]
}

// entryMeta is a binding's immutable identity, shared with lock-free
// readers by pointer, plus what the telemetry layer keeps per binding
// (series: the label block rendered once at bind, and the binding's QoS
// estimator). The telemetry part sits behind the identity so id and
// group stay at the front of the object.
type entryMeta struct {
	id     string
	group  string
	series telemetry.ProcSeries
}

// evalAuxBox wraps the snapshot's EvalAux hook so the two-word interface
// value can be published through a single atomic pointer.
type evalAuxBox struct{ aux core.EvalAux }

// publishEval recomputes the detector's eval snapshot and writes it —
// with last, the last-arrival stamp, and, when setMeta is true, a new
// identity — into the seqlock cell. Caller holds e.mu; every mutation of
// detector-observable state must call this before unlocking, so readers
// are never more than one heartbeat behind the locked truth. evalKind
// and evalEps are stored only when they change: they are constant per
// binding in steady state, and every atomic store is a locked
// instruction.
func (e *entry) publishEval(meta *entryMeta, setMeta bool, last int64) {
	var snap core.EvalSnapshot
	if e.det != nil { // nil while unbinding: the cell is cleared
		snap = e.det.EvalSnapshot()
	}
	e.evalSeq.Add(1) // even → odd: readers retry
	if setMeta {
		e.meta.Store(meta)
	}
	if k := uint32(snap.Kind); e.evalKind.Load() != k {
		e.evalKind.Store(k)
	}
	e.evalRef.Store(snap.Ref)
	e.evalLast.Store(last)
	e.evalP1.Store(math.Float64bits(snap.P1))
	e.evalP2.Store(math.Float64bits(snap.P2))
	if eps := math.Float64bits(float64(snap.Eps)); e.evalEps.Load() != eps {
		e.evalEps.Store(eps)
	}
	if snap.Aux != nil {
		if box := e.evalAux.Load(); box == nil || box.aux != snap.Aux {
			e.evalAux.Store(&evalAuxBox{aux: snap.Aux})
		}
	} else if e.evalAux.Load() != nil {
		e.evalAux.Store(nil)
	}
	e.evalSeq.Add(1) // odd → even: cell stable
}

// evalSpinLimit bounds the seqlock retry loop; past it the reader falls
// back to a locked read rather than spinning against a write storm.
const evalSpinLimit = 64

// loadEval performs one lock-free read of the entry's eval cell. ok is
// false when the slot is free; otherwise meta, snap and last (the
// last-arrival UnixNano) form one consistent published state.
func (e *entry) loadEval() (meta *entryMeta, snap core.EvalSnapshot, last int64, ok bool) {
	for spin := 0; spin < evalSpinLimit; spin++ {
		s1 := e.evalSeq.Load()
		if s1&1 != 0 {
			continue // publication in flight
		}
		meta = e.meta.Load()
		if meta == nil {
			if e.evalSeq.Load() == s1 {
				return nil, core.EvalSnapshot{}, 0, false // stably free
			}
			continue // observed mid-(un)bind; retry
		}
		snap.Kind = core.EvalKind(e.evalKind.Load())
		snap.Ref = e.evalRef.Load()
		last = e.evalLast.Load()
		snap.P1 = math.Float64frombits(e.evalP1.Load())
		snap.P2 = math.Float64frombits(e.evalP2.Load())
		snap.Eps = core.Level(math.Float64frombits(e.evalEps.Load()))
		if box := e.evalAux.Load(); box != nil {
			snap.Aux = box.aux
		} else {
			snap.Aux = nil
		}
		if e.evalSeq.Load() == s1 {
			return meta, snap, last, true
		}
	}
	// Writer storm on this entry: read the cell under its lock instead.
	e.mu.Lock()
	meta = e.meta.Load()
	if meta == nil {
		e.mu.Unlock()
		return nil, core.EvalSnapshot{}, 0, false
	}
	snap = e.det.EvalSnapshot()
	last = e.evalLast.Load()
	e.mu.Unlock()
	return meta, snap, last, true
}

// report feeds one heartbeat to the detector, with hb.From set to the
// binding's canonical id, and reports whether the detector accepted it.
// The detector's sequence guard is the only one (core.Detector.Report):
// a beat it refuses — a duplicate, a reordered or replayed number, Seq
// 0 — is no evidence of liveness now, so it moves no part of the eval
// cell, evalLast included, and the caller counts it stale. ok is false
// when the slot's generation no longer matches gen (the process was
// deregistered after the caller resolved the handle); the heartbeat is
// then dropped.
func (e *entry) report(gen uint64, hb core.Heartbeat) (accepted, ok bool) {
	e.mu.Lock()
	if e.gen.Load() != gen {
		e.mu.Unlock()
		return false, false
	}
	hb.From = e.id
	if accepted = e.det.Report(hb); accepted {
		// An accepted number can still carry an older arrival stamp (a
		// replayed trace): the stamp digests are built from only moves
		// forward.
		last := e.evalLast.Load()
		if a := hb.Arrived.UnixNano(); a > last {
			last = a
		}
		e.publishEval(nil, false, last)
	}
	e.mu.Unlock()
	return accepted, true
}

const (
	// slabChunkBits sizes slab chunks at 512 entries (~20 KiB): large
	// enough that a million-process shard is a few dozen GC objects,
	// small enough that a mostly-empty shard wastes little.
	slabChunkBits = 9
	slabChunkSize = 1 << slabChunkBits
	slabChunkMask = slabChunkSize - 1
)

// slab is a chunked entry arena. Chunks are never moved or freed once
// allocated (entries contain a mutex and are referenced by raw pointer
// while shard locks are *not* held), so &chunks[c][i] is stable for the
// monitor's lifetime. Freed slots go on the free list and are handed
// back out before the arena grows — a register/deregister storm cycles
// through the same slots instead of growing the heap.
type slab struct {
	chunks [][]entry
	free   []uint32
	next   uint32
}

func (s *slab) at(idx uint32) *entry {
	return &s.chunks[idx>>slabChunkBits][idx&slabChunkMask]
}

// alloc returns a free slot, reusing the free list before extending the
// arena by one chunk. Caller holds the shard write lock.
func (s *slab) alloc() (uint32, *entry) {
	if n := len(s.free); n > 0 {
		idx := s.free[n-1]
		s.free = s.free[:n-1]
		return idx, s.at(idx)
	}
	if int(s.next)>>slabChunkBits == len(s.chunks) {
		s.chunks = append(s.chunks, make([]entry, slabChunkSize))
	}
	idx := s.next
	s.next++
	return idx, s.at(idx)
}

// shard is one slice of the registry with its own lock: an id → slot
// index plus the entry slab the indices address. The per-beat footprint
// in the index is one probe — usually one cache line, the home word —
// and the id compare on the slot the beat is about to lock anyway; the
// index holds no id and no pointer, so the collector never scans it.
type shard struct {
	mu    sync.RWMutex
	index idIndex
	slab  slab
	// epoch counts the shard's membership changes: bind and unbind bump
	// it under the write lock, nothing else does. Whatever is a function
	// of the membership alone — which ids are bound, into which slots —
	// may be cached against it; see sortedOrder.
	epoch uint64
	order sortedOrder
}

// get is find returning the entry with its current generation: the
// binding observed under the caller's shard lock, which stays verifiable
// after the lock is released.
func get[T ~string | ~[]byte](sh *shard, h uint32, id T) (*entry, uint64) {
	_, e := find(sh, h, id)
	if e == nil {
		return nil, 0
	}
	return e, e.gen.Load()
}

// bind allocates a slot for id, which hashes to h, and installs det,
// tagged with the process's group and stamped with its start time
// (evalLast until the first heartbeat arrives). Caller holds the shard
// write lock; id must not be present.
func (sh *shard) bind(h uint32, id string, det core.Detector, group string, start time.Time) (*entry, uint64) {
	idx, e := sh.slab.alloc()
	e.mu.Lock()
	e.det = det
	e.id = id
	e.gen.Add(1) // even → odd: bound
	gen := e.gen.Load()
	// Publish the identity and the detector's initial snapshot in one
	// seqlock window: lock-free walks see the process from this instant,
	// never with a predecessor's parameters.
	meta := &entryMeta{id: id, group: group}
	meta.series.Init(id)
	e.publishEval(meta, true, start.UnixNano())
	e.mu.Unlock()
	sh.index.insert(h, idx)
	sh.epoch++
	return e, gen
}

// unbind removes id, which hashes to h, invalidates outstanding handles
// to its slot and returns the slot to the free list. The detector
// reference is cleared immediately — deregistration releases the
// per-process state to the collector right away rather than when the
// slot is next reused, so churn cannot pin memory. It returns the
// binding's identity, nil when id was not bound. Caller holds the shard
// write lock.
func (sh *shard) unbind(h uint32, id string) *entryMeta {
	idx, e := find(sh, h, id)
	if e == nil {
		return nil
	}
	meta := e.meta.Load()
	sh.index.remove(h, idx)
	sh.epoch++
	e.mu.Lock()
	e.gen.Add(1) // odd → even: free
	e.det = nil
	e.id = ""
	// Clear the eval cell inside one seqlock window; concurrent walks
	// observe the slot as stably free and skip it.
	e.publishEval(nil, true, 0)
	e.mu.Unlock()
	sh.slab.free = append(sh.slab.free, idx)
	return meta
}

// Monitor is the per-host monitoring component: it owns one accrual
// failure detector per monitored process. Monitor is safe for concurrent
// use; see the package comment for the sharded locking design.
type Monitor struct {
	clk          clock.Clock
	factory      Factory
	autoRegister bool

	shardMask uint32
	shardReq  int // WithShardCount request; 0 = the default
	shards    []shard

	// groupFn, when non-nil, tags each process with a group name at
	// registration (WithGroupFn). Groups drive the per-group accrual
	// rollups federation digests carry.
	groupFn func(id string) string

	// tel is the optional telemetry hub. The hot paths reuse the shard
	// hash to pick a counter stripe, so instrumentation costs one
	// uncontended atomic add and zero allocations per operation.
	tel *telemetry.Hub

	// orderRebuilds backs ShardOrderRebuilds.
	orderRebuilds atomic.Uint64
}

// MonitorOption configures a Monitor.
type MonitorOption func(*Monitor)

// WithoutAutoRegister makes Heartbeat reject heartbeats from unregistered
// processes instead of registering them on first contact.
func WithoutAutoRegister() MonitorOption {
	return func(m *Monitor) { m.autoRegister = false }
}

// WithShardCount fixes the registry shard count (rounded up to the next
// power of two, clamped above at 65536). More shards reduce registration
// contention for very large memberships; fewer shrink the idle footprint
// for tiny ones. The default of 64 is right for almost everyone; counts
// below one fall back to that default rather than degenerating to a
// single shard.
func WithShardCount(n int) MonitorOption {
	return func(m *Monitor) { m.shardReq = n }
}

// WithGroupFn tags every process registered (explicitly or by
// auto-registration) with fn(id) — the group name the federation plane's
// per-group impact rollups aggregate by. fn is called under the shard
// write lock, so it must be fast and must not touch the monitor; a
// constant function (one group per daemon) is the common case. A nil fn
// leaves every process in the default (empty) group.
func WithGroupFn(fn func(id string) string) MonitorOption {
	return func(m *Monitor) { m.groupFn = fn }
}

// WithTelemetry wires a telemetry hub into the monitor: heartbeats,
// stale arrivals, queries and registration churn are counted on the
// hub's striped counters, the hub's QoS estimators serve this monitor
// (telemetry.QoS.Attach), and deregistrations are forwarded to them so
// crashed processes yield detection-time samples.
func WithTelemetry(hub *telemetry.Hub) MonitorOption {
	return func(m *Monitor) { m.tel = hub }
}

// NewMonitor returns a monitor that timestamps registrations with clk and
// creates detectors with factory. Both are required.
func NewMonitor(clk clock.Clock, factory Factory, opts ...MonitorOption) *Monitor {
	m := &Monitor{
		clk:          clk,
		factory:      factory,
		autoRegister: true,
	}
	for _, opt := range opts {
		opt(m)
	}
	n := m.shardReq
	if n < 1 {
		n = defaultShardCount
	}
	if n > 1<<16 {
		n = 1 << 16
	}
	p := 1
	for p < n {
		p <<= 1
	}
	m.shards = make([]shard, p)
	m.shardMask = uint32(p - 1)
	if m.tel != nil {
		m.tel.QoS().Attach(m)
	}
	return m
}

// shardAt maps a precomputed id hash to its shard; hot paths hash once
// and reuse the value for both shard selection and counter striping.
func (m *Monitor) shardAt(h uint32) *shard {
	return &m.shards[h&m.shardMask]
}

// groupOf resolves a process id's group tag ("" without WithGroupFn).
func (m *Monitor) groupOf(id string) string {
	if m.groupFn == nil {
		return ""
	}
	return m.groupFn(id)
}

// lookup returns the live entry for id with its binding generation, or
// (nil, 0).
func (m *Monitor) lookup(id string) (*entry, uint64) {
	h := intern.Hash(id)
	sh := m.shardAt(h)
	sh.mu.RLock()
	e, gen := get(sh, h, id)
	sh.mu.RUnlock()
	return e, gen
}

// slotOf resolves id to its shard index, its slab slot and the slot's
// entry, or a nil entry when id is not registered. The slot may be
// rebound once the shard lock is released; callers re-read the binding
// from the entry (loadEval) and check it is still id's.
func (m *Monitor) slotOf(id string) (s int, slot uint32, e *entry) {
	h := intern.Hash(id)
	s = int(h & m.shardMask)
	sh := &m.shards[s]
	sh.mu.RLock()
	slot, e = find(sh, h, id)
	sh.mu.RUnlock()
	return s, slot, e
}

// Register adds a monitored process. It returns ErrAlreadyRegistered if
// the id is already present.
func (m *Monitor) Register(id string) error {
	if _, _, bound := m.bindOnce(intern.Hash(id), id, time.Time{}); !bound {
		return fmt.Errorf("%w: %q", ErrAlreadyRegistered, id)
	}
	return nil
}

// Deregister removes a monitored process and reports whether it was
// present. The slot and its detector are released immediately: the
// detector reference is dropped under the entry lock (so the estimator
// state is collectable at once) and the slab slot returns to the
// shard's free list for the next registration — a register/deregister
// storm cycles slots instead of growing the arena.
func (m *Monitor) Deregister(id string) bool {
	h := intern.Hash(id)
	sh := m.shardAt(h)
	sh.mu.Lock()
	meta := sh.unbind(h, id)
	sh.mu.Unlock()
	if meta == nil {
		return false
	}
	// Telemetry strictly after the shard unlock: the background round
	// holds the QoS lock while it read-locks shards (see Runner), so
	// notifying under sh.mu would invert that order. The QoS layer
	// finalises this binding's own estimator, so however late the notice
	// lands it cannot touch a successor binding of the same id.
	if m.tel != nil {
		m.tel.Counters.Deregistered(h)
		m.tel.QoS().Forget(&meta.series, m.clk.Now())
	}
	return true
}

// Known reports whether id is currently registered, without evaluating
// its detector.
func (m *Monitor) Known(id string) bool {
	e, _ := m.lookup(id)
	return e != nil
}

// Len returns the number of monitored processes.
func (m *Monitor) Len() int {
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		n += sh.index.n
		sh.mu.RUnlock()
	}
	return n
}

// Processes returns the sorted ids of all monitored processes.
func (m *Monitor) Processes() []string {
	var ids []string
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		sh.index.eachSlot(func(slot uint32) { ids = append(ids, sh.slab.at(slot).id) })
		sh.mu.RUnlock()
	}
	sort.Strings(ids)
	return ids
}

// ShardCount returns the number of registry shards. Together with
// AppendShardSeries it is the basis of cursor-style incremental reads: a
// consumer that cannot afford one O(n) pass (the /v1/metrics scrape at
// very large memberships) walks shards [cursor, cursor+k) per page.
func (m *Monitor) ShardCount() int { return len(m.shards) }

// Suspicion returns the current suspicion level of one process.
func (m *Monitor) Suspicion(id string) (core.Level, error) {
	h := intern.Hash(id)
	sh := m.shardAt(h)
	sh.mu.RLock()
	e, _ := get(sh, h, id)
	sh.mu.RUnlock()
	if e == nil {
		return 0, fmt.Errorf("%w: %q", ErrUnknownProcess, id)
	}
	if m.tel != nil {
		m.tel.Counters.Query(h)
	}
	lvl, ok := e.snapLevel(id, m.clk.Now())
	if !ok {
		// Deregistered between lookup and evaluation.
		return 0, fmt.Errorf("%w: %q", ErrUnknownProcess, id)
	}
	return lvl, nil
}

// snapLevel evaluates the level of the process bound to e, lock-free
// from the published snapshot. ok is false when the slot no longer
// holds id.
func (e *entry) snapLevel(id string, now time.Time) (core.Level, bool) {
	meta, snap, _, ok := e.loadEval()
	if !ok || meta.id != id {
		return 0, false
	}
	return snap.Level(now), true
}

// EachLevel calls fn with every monitored process and its suspicion level
// at one clock reading. It evaluates published snapshots straight off the
// slab arrays, so the walk holds no locks and calls no detectors; see
// eachEval for the iteration rules.
func (m *Monitor) EachLevel(fn func(id string, lvl core.Level)) {
	m.walk(m.clk.Now(), func(_ uint32, meta *entryMeta, lvl core.Level, _ int64) { fn(meta.id, lvl) })
}

// EachSeries calls fn with every binding's telemetry series and its
// suspicion level at now — the walk of telemetry.QoS.Sample and
// AggregateEstimates (the Monitor is their telemetry.LevelSource).
func (m *Monitor) EachSeries(now time.Time, fn func(s *telemetry.ProcSeries, lvl core.Level)) {
	m.walk(now, func(_ uint32, meta *entryMeta, lvl core.Level, _ int64) { fn(&meta.series, lvl) })
}

// SeriesOf returns the telemetry series of id's current binding, or nil
// when id is not registered: how the QoS estimators resolve an id.
func (m *Monitor) SeriesOf(id string) *telemetry.ProcSeries {
	h := intern.Hash(id)
	sh := m.shardAt(h)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if _, e := find(sh, h, id); e != nil {
		return &e.meta.Load().series
	}
	return nil
}

// ProcessInfo is one monitored process's digest-relevant state at one
// clock reading: its group tag, its suspicion level and the arrival time
// of its newest heartbeat (the registration time until one arrives).
type ProcessInfo struct {
	ID          string
	Group       string
	Level       core.Level
	LastArrival time.Time
}

// EachInfo calls fn with every monitored process's ProcessInfo at one
// clock reading — the walk federation digest construction runs on. Like
// EachLevel it evaluates published snapshots straight off the slab
// arrays, holds no locks while fn runs, and allocates nothing in steady
// state, so building a digest over a million processes never takes a
// global pause. Identity and group ride in the seqlock cell with the
// parameters, so a slot rebound mid-walk is skipped or attributed to
// exactly one binding, never mixed.
func (m *Monitor) EachInfo(fn func(info ProcessInfo)) {
	m.walk(m.clk.Now(), func(_ uint32, meta *entryMeta, lvl core.Level, last int64) {
		fn(ProcessInfo{ID: meta.id, Group: meta.group, Level: lvl, LastArrival: time.Unix(0, last)})
	})
}

// Snapshot returns the suspicion level of every monitored process at one
// clock reading.
func (m *Monitor) Snapshot() map[string]core.Level {
	out := make(map[string]core.Level, m.Len())
	m.EachLevel(func(id string, lvl core.Level) { out[id] = lvl })
	return out
}

// Now exposes the monitor's clock reading, so that applications and
// interpreters share its notion of time.
func (m *Monitor) Now() time.Time { return m.clk.Now() }

// Ranked returns all monitored processes ordered from least to most
// suspected (ties broken by id) — the worker-ranking usage pattern of the
// paper's Bag-of-Tasks example (§1.3).
func (m *Monitor) Ranked() []RankedProcess {
	var dst []RankedProcess
	m.EachLevel(func(id string, lvl core.Level) {
		dst = append(dst, RankedProcess{ID: id, Level: lvl})
	})
	slices.SortFunc(dst, func(a, b RankedProcess) int {
		if a.Level != b.Level {
			if a.Level < b.Level {
				return -1
			}
			return 1
		}
		return strings.Compare(a.ID, b.ID)
	})
	return dst
}

// TopK appends the k most suspected processes to dst — most suspected
// first, equal levels broken by ascending id — and returns the extended
// slice. It walks the registry once keeping a bounded min-heap of k
// candidates, so the cost is O(n log k) time and O(k) space: a "worst
// offenders" view over a million processes never materialises the
// million-entry sorted slice Ranked would build. Periodic callers pass
// their previous buffer back as dst[:0], so a steady-state refresh
// allocates nothing.
func (m *Monitor) TopK(k int, dst []RankedProcess) []RankedProcess {
	if k <= 0 {
		return dst
	}
	base := len(dst)
	m.walk(m.clk.Now(), func(_ uint32, meta *entryMeta, lvl core.Level, _ int64) {
		h := dst[base:]
		if len(h) < k {
			dst = append(dst, RankedProcess{ID: meta.id, Level: lvl})
			siftUpRank(dst[base:], len(h))
			return
		}
		// h[0] is the last-placed candidate kept (least suspected);
		// replace it only when the newcomer outranks it. Nearly every
		// process loses on the level alone, so that is compared before
		// the identity — a load from another object — is touched.
		if lvl < h[0].Level {
			return
		}
		cand := RankedProcess{ID: meta.id, Level: lvl}
		if cmpTopK(cand, h[0]) >= 0 {
			return
		}
		h[0] = cand
		siftDownRank(h)
	})
	slices.SortFunc(dst[base:], cmpTopK)
	return dst
}

// cmpTopK is the TopK output order: higher level first, equal levels by
// ascending id. A negative result means a outranks (precedes) b.
func cmpTopK(a, b RankedProcess) int {
	if a.Level != b.Level {
		if a.Level > b.Level {
			return -1
		}
		return 1
	}
	return strings.Compare(a.ID, b.ID)
}

// The bounded heap keeps the k highest-ranked candidates with the
// *lowest*-ranked of them at the root, so one comparison decides
// whether a newcomer displaces anything: a max-heap under cmpTopK.

// siftUpRank restores the heap property after appending at index i.
func siftUpRank(h []RankedProcess, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if cmpTopK(h[i], h[p]) <= 0 {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// siftDownRank restores the heap property after replacing the root.
func siftDownRank(h []RankedProcess) {
	i := 0
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		s := l
		if r := l + 1; r < len(h) && cmpTopK(h[r], h[l]) > 0 {
			s = r
		}
		if cmpTopK(h[i], h[s]) >= 0 {
			return
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
}

// RankedProcess pairs a process id with its suspicion level.
type RankedProcess struct {
	ID    string
	Level core.Level
}
