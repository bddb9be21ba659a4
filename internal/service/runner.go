package service

import (
	"sync"
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
// them. Each period it takes one clock reading and makes one lock-free
// slab walk, and hands each binding's level to the history, the QoS
// estimators and every attached App (whose transition handlers fire from
// it: in the oracle model, "correct processes query their failure
// detector modules infinitely often", packaged). Start launches the
// loop; Stop is idempotent and joins it; Round runs one round on demand.
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
	mon   *Monitor
	every time.Duration
	c     Consumers
	// tick, when set before Start, replaces the ticker (tests drive
	// the loop with it).
	tick <-chan time.Time

	mu      sync.Mutex
	started bool
	halted  bool
	done    chan struct{}
	stopped chan struct{}

	rounds atomic.Int64
	last   atomic.Int64 // clock reading of the latest round, UnixNano
}

// NewRunner returns a runner feeding c from mon every period
// (non-positive periods default to one second). It does not start. A
// QoS consumer is attached to mon (telemetry.QoS.Attach), so it must
// not already serve another registry.
func NewRunner(mon *Monitor, every time.Duration, c Consumers) *Runner {
	if every <= 0 {
		every = time.Second
	}
	if c.QoS != nil {
		c.QoS.Attach(mon)
	}
	return &Runner{
		mon:     mon,
		every:   every,
		c:       c,
		done:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
}

// Consumers returns what the runner feeds.
func (r *Runner) Consumers() Consumers { return r.c }

// Start launches the background loop; later calls, and calls after
// Stop, do nothing.
func (r *Runner) Start() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.started || r.halted {
		return
	}
	r.started = true
	tick, stop := r.tick, func() {}
	if tick == nil {
		t := time.NewTicker(r.every)
		tick, stop = t.C, t.Stop
	}
	go r.loop(tick, stop)
}

func (r *Runner) loop(tick <-chan time.Time, stop func()) {
	defer close(r.stopped)
	defer stop()
	for {
		select {
		case <-r.done:
			return
		case <-tick:
			r.Round()
		}
	}
}

// Stop terminates the loop and waits for it to exit. Stop is idempotent
// and safe to call concurrently; before Start it only keeps the loop
// from ever starting.
func (r *Runner) Stop() {
	r.mu.Lock()
	if !r.halted {
		r.halted = true
		close(r.done)
	}
	started := r.started
	r.mu.Unlock()
	if started {
		<-r.stopped
	}
}

// Round runs one round now: one clock reading, one walk, every consumer
// fed. It is safe to call concurrently with the loop; rounds serialise
// on the consumers' locks.
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
		m.shards[s].eachEval(now, func(slot uint32, meta *entryMeta, lvl core.Level, _ int64) {
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
