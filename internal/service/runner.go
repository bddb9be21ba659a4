package service

import (
	"sync/atomic"
	"time"

	"accrual/internal/core"
	"accrual/internal/telemetry"
)

// Consumers is what one round of the level stream feeds: the level
// history, the online QoS estimators and any number of applications.
// Nil (or empty) members are not fed.
type Consumers struct {
	History *Recorder
	QoS     *telemetry.QoS
	Apps    []*App
}

// Runner is the monitor's one background pass — the paper's "every
// interpreter queries all levels once per period" done once for all of
// them. Each round takes one clock reading and makes one lock-free slab
// walk, and hands each binding's level to the history, the QoS
// estimators and every attached App (whose transition handlers fire from
// it: in the oracle model, "correct processes query their failure
// detector modules infinitely often", packaged). The Runner holds no
// goroutine: its owner calls Round on its own schedule (accruald runs it
// on clock.Every, tests and simulations call it directly).
//
// # Lock order
//
// A round holds, in this order: the Recorder lock, the QoS lock, the
// App locks in attach order, and — only for the span copy in walkSpan —
// one shard read lock at a time (an entry lock only on loadEval's
// write-storm fallback). No path takes two of these in the reverse
// order: Deregister notifies the QoS layer after releasing its shard
// lock, and App.Status and Recorder.History resolve their id before
// taking their own lock.
type Runner struct {
	mon *Monitor
	c   Consumers

	rounds atomic.Int64
	last   atomic.Int64 // clock reading of the latest round, UnixNano
}

// NewRunner returns a runner feeding c from mon. A QoS consumer is
// attached to mon (telemetry.QoS.Attach), so it must not already serve
// another registry.
func NewRunner(mon *Monitor, c Consumers) *Runner {
	if c.QoS != nil {
		c.QoS.Attach(mon)
	}
	return &Runner{mon: mon, c: c}
}

// Consumers returns what the runner feeds.
func (r *Runner) Consumers() Consumers { return r.c }

// Round runs one round now: one clock reading, one walk, every consumer
// fed. Concurrent calls are safe; rounds serialise on the consumers'
// locks.
func (r *Runner) Round() {
	c := &r.c
	if c.History != nil {
		c.History.mu.Lock()
		defer c.History.mu.Unlock()
	}
	if c.QoS != nil {
		c.QoS.BeginRound()
		defer c.QoS.EndRound()
	}
	for _, a := range c.Apps {
		a.mu.Lock()
	}
	now := r.mon.Now()
	r.mon.feed(now, c)
	for i := len(c.Apps) - 1; i >= 0; i-- {
		c.Apps[i].mu.Unlock()
	}
	r.last.Store(now.UnixNano())
	r.rounds.Add(1)
}

// Rounds returns how many rounds have completed.
func (r *Runner) Rounds() int64 { return r.rounds.Load() }

// LastRound returns the monitor-clock time of the latest completed round
// (the zero time before the first). Lock-free, so the /v1/metrics scrape
// reports the loop's liveness without queueing behind a round.
func (r *Runner) LastRound() time.Time {
	ns := r.last.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// feed is one round: it walks every shard once at now and hands each
// bound slot's level to every consumer in c. Caller holds the consumers'
// locks (see Runner).
func (m *Monitor) feed(now time.Time, c *Consumers) {
	rec := c.History
	if rec != nil {
		rec.begin(now)
	}
	for s := range m.shards {
		m.shards[s].eachEval(func(slot uint32, meta *entryMeta, snap core.EvalSnapshot, _ int64) {
			lvl := snap.Level(now)
			if rec != nil {
				rec.record(s, slot, meta, lvl)
			}
			if c.QoS != nil {
				c.QoS.ObserveSeries(&meta.series, lvl, now)
			}
			for _, a := range c.Apps {
				a.observe(s, slot, meta, lvl, now)
			}
		})
	}
	if rec != nil {
		rec.rounds++
	}
	if m.tel != nil {
		m.tel.Walks.Run()
	}
}
