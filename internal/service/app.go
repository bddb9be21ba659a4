package service

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"accrual/internal/core"
	"accrual/internal/transform"
)

// Policy builds one application-side binary interpreter over a suspicion
// level source. The three standard policies correspond to the paper's
// interpreters: the single-threshold D_T (Equation 2), the two-threshold
// D'_T (Algorithm 3) and the self-tuning Algorithm 1.
type Policy func(src transform.LevelFunc) core.BinaryDetector

// ConstantPolicy interprets levels with a fixed threshold (suspect iff
// level > threshold).
func ConstantPolicy(threshold core.Level) Policy {
	return func(src transform.LevelFunc) core.BinaryDetector {
		return transform.NewConstantThreshold(src, threshold)
	}
}

// HysteresisPolicy interprets levels with the two-threshold detector
// D'_T: suspect above high, trust again at or below low.
func HysteresisPolicy(high, low core.Level) Policy {
	return func(src transform.LevelFunc) core.BinaryDetector {
		return transform.NewHysteresis(src, high, low)
	}
}

// AdaptivePolicy interprets levels with Algorithm 1, the self-tuning
// ◇P transformation that needs no threshold parameter at all.
func AdaptivePolicy() Policy {
	return func(src transform.LevelFunc) core.BinaryDetector {
		return transform.NewAccrualToBinary(src)
	}
}

// TransitionHandler observes the S- and T-transitions of one application
// view. status is the new status after the transition.
type TransitionHandler func(proc string, tr core.Transition, status core.Status)

// App is one application's interpretation module: a binary view of every
// monitored process, built from the shared monitor's suspicion levels via
// the application's own policy. App is safe for concurrent use.
//
// Views are kept by slab slot: views[s][slot] is the view of the binding
// in that slot of shard s, tagged with the binding it was built for. A
// slot rebound to another process starts a fresh view, so a departed
// process's view is unreachable and the memory is bounded by the slab.
type App struct {
	name    string
	monitor *Monitor
	policy  Policy
	onTrans TransitionHandler

	mu    sync.Mutex
	views [][]appView
	// level is the level of the query in progress: every view's policy
	// reads it as its level source, so a query is "push the level, then
	// Query". Guarded by mu.
	level core.Level
	// suspects collects the suspected ids while Poll runs its round;
	// nil otherwise.
	suspects *[]string
}

// appView is one binding's binary view: its interpreter and last status.
type appView struct {
	meta *entryMeta
	bin  core.BinaryDetector
	last core.Status
}

// AppOption configures an App.
type AppOption func(*App)

// WithTransitionHandler registers a callback invoked on every transition
// this app observes. It runs synchronously on the querying goroutine —
// the background round's, for an App attached to a Runner — with the
// round's locks held (see Runner), so it must not call back into the
// App, the Recorder or the QoS estimators.
func WithTransitionHandler(h TransitionHandler) AppOption {
	return func(a *App) { a.onTrans = h }
}

// NewApp returns a named interpretation module over the monitor.
func (m *Monitor) NewApp(name string, policy Policy, opts ...AppOption) *App {
	a := &App{
		name:    name,
		monitor: m,
		policy:  policy,
		views:   make([][]appView, len(m.shards)),
	}
	for _, opt := range opts {
		opt(a)
	}
	return a
}

// Name returns the application name.
func (a *App) Name() string { return a.name }

// Status queries this application's binary view of one process. Each call
// is one query in the oracle model (stateful policies advance on it) and
// costs exactly one level evaluation.
func (a *App) Status(id string) (core.Status, error) {
	m := a.monitor
	s, slot, e := m.slotOf(id)
	if e == nil {
		return 0, fmt.Errorf("%w: %q", ErrUnknownProcess, id)
	}
	now := m.Now()
	meta, snap, _, ok := e.loadEval()
	if !ok || meta.id != id {
		// Deregistered between lookup and evaluation.
		return 0, fmt.Errorf("%w: %q", ErrUnknownProcess, id)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.observe(s, slot, meta, snap.Level(now), now), nil
}

// Poll queries every monitored process and returns the set of currently
// suspected ids, sorted: one round of this application alone (a Runner
// round queries every attached App the same way, without building the
// list).
func (a *App) Poll() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	var suspects []string
	a.suspects = &suspects
	a.monitor.feed(a.monitor.Now(), &Consumers{Apps: []*App{a}})
	a.suspects = nil
	sort.Strings(suspects)
	return suspects
}

// observe is one query of the view of the binding meta in slot of shard
// s, with the binding's level lvl at now. It returns the view's status.
// Caller holds a.mu.
func (a *App) observe(s int, slot uint32, meta *entryMeta, lvl core.Level, now time.Time) core.Status {
	vs := a.views[s]
	if int(slot) >= len(vs) {
		vs = append(vs, make([]appView, int(slot)+1-len(vs))...)
		a.views[s] = vs
	}
	v := &vs[slot]
	if v.meta != meta {
		*v = appView{meta: meta, bin: a.policy(a.levelSource), last: core.Trusted}
	}
	if tel := a.monitor.tel; tel != nil {
		tel.Counters.Query(uint32(s))
	}
	a.level = lvl
	st := v.bin.Query(now)
	if st != v.last {
		kind := core.STransition
		if st == core.Trusted {
			kind = core.TTransition
		}
		v.last = st
		if a.onTrans != nil {
			a.onTrans(meta.id, core.Transition{At: now, Kind: kind}, st)
		}
	}
	if st == core.Suspected && a.suspects != nil {
		*a.suspects = append(*a.suspects, meta.id)
	}
	return st
}

// levelSource is every view's policy input: the level pushed for the
// query in progress.
func (a *App) levelSource(time.Time) core.Level { return a.level }
