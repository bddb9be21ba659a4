// Package bot simulates the Bag-of-Tasks master/worker computation of the
// paper's motivating example (§1.3, the OurGrid scenario): a master
// dispatches independent tasks to workers, some of which crash, and uses
// failure-detection information in two distinct ways —
//
//  1. when assigning tasks, it ranks workers by how likely they are still
//     operational (dispatch to the least-suspected first), and
//  2. when deciding whether to abort and reassign a running task, it
//     weighs the cost of a wrong abort, which grows with the CPU time
//     already invested in the task.
//
// Both usage patterns are natural with an accrual detector and awkward
// with a binary one. The package provides a cost-aware accrual policy and
// a binary fixed-timeout baseline so experiment E11 can compare wasted
// CPU time and makespan.
package bot

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"accrual/internal/core"
	"accrual/internal/phi"
	"accrual/internal/sim"
)

// Task is one independent unit of work.
type Task struct {
	ID       int
	Duration time.Duration
}

// Policy decides dispatch eligibility and task-restart behaviour from
// suspicion levels.
type Policy interface {
	// Eligible reports whether a worker with the given suspicion level
	// may receive a new task.
	Eligible(level core.Level) bool
	// ShouldRestart reports whether a task that has been running on a
	// worker for elapsed should be aborted, given the worker's current
	// suspicion level.
	ShouldRestart(level core.Level, elapsed time.Duration) bool
	// Ranked reports whether the policy wants dispatch ordered by
	// suspicion level (accrual usage pattern 1). Unranked policies
	// dispatch in worker-id order, which is all a binary trusted/
	// suspected view supports.
	Ranked() bool
}

// FixedTimeout is the binary baseline: one threshold for everything. A
// worker is eligible while trusted (level <= threshold) and a task is
// restarted as soon as its worker is suspected, no matter how much work
// would be thrown away.
type FixedTimeout struct {
	Threshold core.Level
}

var _ Policy = FixedTimeout{}

// Eligible implements Policy.
func (p FixedTimeout) Eligible(level core.Level) bool { return level <= p.Threshold }

// ShouldRestart implements Policy.
func (p FixedTimeout) ShouldRestart(level core.Level, _ time.Duration) bool {
	return level > p.Threshold
}

// Ranked implements Policy: a binary view cannot rank.
func (FixedTimeout) Ranked() bool { return false }

// CostAware is the accrual policy: dispatch prefers the least-suspected
// workers, and the restart threshold grows with the CPU time already
// invested, so long-running tasks need much stronger evidence before
// being aborted (§1.3: "the cost of aborting the task due to a wrong
// suspicion increases as time passes").
type CostAware struct {
	// DispatchMax is the eligibility bound for new assignments.
	DispatchMax core.Level
	// RestartBase is the restart threshold for a freshly started task.
	RestartBase core.Level
	// RestartPerSecond is added to the restart threshold per second of
	// elapsed task execution.
	RestartPerSecond float64
}

var _ Policy = CostAware{}

// Eligible implements Policy.
func (p CostAware) Eligible(level core.Level) bool { return level <= p.DispatchMax }

// ShouldRestart implements Policy.
func (p CostAware) ShouldRestart(level core.Level, elapsed time.Duration) bool {
	return level > p.RestartBase+core.Level(p.RestartPerSecond*elapsed.Seconds())
}

// Ranked implements Policy.
func (CostAware) Ranked() bool { return true }

// DetectorFactory builds the master-side accrual detector for one worker.
type DetectorFactory func(worker string, start time.Time) core.Detector

// Config describes one Bag-of-Tasks run.
type Config struct {
	// Sim drives time; required.
	Sim *sim.Sim
	// Net carries heartbeats from workers to the master (may be lossy);
	// required.
	Net *sim.Network
	// Workers are the worker ids; required (>= 1).
	Workers []string
	// Crashes maps worker ids to crash times (optional).
	Crashes map[string]time.Time
	// Tasks is the bag of tasks to execute; required (>= 1).
	Tasks []Task
	// HeartbeatInterval is the worker heartbeat period; required (> 0).
	HeartbeatInterval time.Duration
	// CheckInterval is the master's scheduling cadence; required (> 0).
	CheckInterval time.Duration
	// Policy is the dispatch/restart policy; required.
	Policy Policy
	// Horizon bounds the run; required.
	Horizon time.Time
	// Detector builds per-worker detectors; nil means a bootstrapped φ
	// detector.
	Detector DetectorFactory
	// ResultDelay is the fixed latency of result delivery back to the
	// master (default 0).
	ResultDelay time.Duration
}

// Metrics summarises a run.
type Metrics struct {
	// Completed is the number of distinct tasks whose (first) result the
	// master accepted.
	Completed int
	// AllDone reports whether every task completed before the horizon.
	AllDone bool
	// Makespan is the time from start to the last accepted result
	// (only meaningful when AllDone).
	Makespan time.Duration
	// Restarts counts aborted assignments.
	Restarts int
	// WrongAborts counts aborts of workers that were actually alive.
	WrongAborts int
	// CrashAborts counts aborts of genuinely crashed workers.
	CrashAborts int
	// WastedCPU accumulates CPU time burned without an accepted result:
	// partial work on crashed workers plus the full duration of results
	// discarded after a wrong abort.
	WastedCPU time.Duration
	// Assignments counts all task assignments (first tries + retries).
	Assignments int
}

// ErrBadConfig is wrapped by every configuration validation error.
var ErrBadConfig = errors.New("bot: bad config")

type assignment struct {
	task    Task
	worker  string
	start   time.Time
	id      int
	aborted bool
}

type master struct {
	cfg       Config
	detectors map[string]core.Detector
	running   map[string]*assignment // by worker
	pending   []Task
	done      map[int]bool
	lastDone  time.Time
	metrics   Metrics
	nextAsgn  int
}

// Run executes the Bag-of-Tasks computation and returns its metrics.
func Run(cfg Config) (Metrics, error) {
	if err := validate(&cfg); err != nil {
		return Metrics{}, err
	}
	m := &master{
		cfg:       cfg,
		detectors: make(map[string]core.Detector, len(cfg.Workers)),
		running:   make(map[string]*assignment),
		pending:   append([]Task(nil), cfg.Tasks...),
		done:      make(map[int]bool, len(cfg.Tasks)),
	}
	start := cfg.Sim.Now()
	for _, w := range cfg.Workers {
		w := w
		det := cfg.Detector(w, start)
		m.detectors[w] = det
		em := &sim.Emitter{
			Sim: cfg.Sim, Net: cfg.Net,
			From: w, To: "master",
			Interval: cfg.HeartbeatInterval,
			CrashAt:  cfg.Crashes[w],
			Until:    cfg.Horizon,
			Sink:     func(hb core.Heartbeat) { det.Report(hb) },
		}
		em.Start()
	}
	cfg.Sim.Every(cfg.CheckInterval, cfg.Horizon, m.tick)
	cfg.Sim.RunUntil(cfg.Horizon)

	m.metrics.Completed = len(m.done)
	m.metrics.AllDone = len(m.done) == len(cfg.Tasks)
	if m.metrics.AllDone {
		m.metrics.Makespan = m.lastDone.Sub(start)
	}
	return m.metrics, nil
}

func validate(cfg *Config) error {
	switch {
	case cfg.Sim == nil || cfg.Net == nil:
		return fmt.Errorf("%w: missing sim or network", ErrBadConfig)
	case len(cfg.Workers) == 0:
		return fmt.Errorf("%w: no workers", ErrBadConfig)
	case len(cfg.Tasks) == 0:
		return fmt.Errorf("%w: no tasks", ErrBadConfig)
	case cfg.HeartbeatInterval <= 0 || cfg.CheckInterval <= 0:
		return fmt.Errorf("%w: non-positive intervals", ErrBadConfig)
	case cfg.Policy == nil:
		return fmt.Errorf("%w: missing policy", ErrBadConfig)
	case cfg.Horizon.IsZero():
		return fmt.Errorf("%w: missing horizon", ErrBadConfig)
	}
	if cfg.Detector == nil {
		hb := cfg.HeartbeatInterval
		cfg.Detector = func(_ string, start time.Time) core.Detector {
			return phi.New(start, phi.WithBootstrap(hb, hb/4))
		}
	}
	return nil
}

// tick is the master's periodic scheduling pass: abort assignments whose
// workers look dead, then dispatch pending tasks to eligible idle workers.
func (m *master) tick(now time.Time) {
	if len(m.done) == len(m.cfg.Tasks) {
		return
	}
	m.abortSuspicious(now)
	m.dispatch(now)
}

func (m *master) abortSuspicious(now time.Time) {
	for worker, asgn := range m.running {
		level := m.detectors[worker].Suspicion(now)
		elapsed := now.Sub(asgn.start)
		if !m.cfg.Policy.ShouldRestart(level, elapsed) {
			continue
		}
		asgn.aborted = true
		delete(m.running, worker)
		m.pending = append(m.pending, asgn.task)
		m.metrics.Restarts++
		crashAt, crashed := m.cfg.Crashes[worker]
		if crashed && !crashAt.After(now) {
			m.metrics.CrashAborts++
			// The worker burned CPU from assignment until its crash.
			if burned := crashAt.Sub(asgn.start); burned > 0 {
				m.metrics.WastedCPU += burned
			}
		} else {
			m.metrics.WrongAborts++
			// The worker is alive: it will finish the task anyway and
			// the master will discard the result — the full task
			// duration is wasted (§1.3).
			m.metrics.WastedCPU += asgn.task.Duration
		}
	}
}

func (m *master) dispatch(now time.Time) {
	if len(m.pending) == 0 {
		return
	}
	type candidate struct {
		worker string
		level  core.Level
	}
	var idle []candidate
	for _, w := range m.cfg.Workers {
		if _, busy := m.running[w]; busy {
			continue
		}
		level := m.detectors[w].Suspicion(now)
		if m.cfg.Policy.Eligible(level) {
			idle = append(idle, candidate{worker: w, level: level})
		}
	}
	if m.cfg.Policy.Ranked() {
		sort.Slice(idle, func(i, j int) bool {
			if idle[i].level != idle[j].level {
				return idle[i].level < idle[j].level
			}
			return idle[i].worker < idle[j].worker
		})
	} else {
		sort.Slice(idle, func(i, j int) bool { return idle[i].worker < idle[j].worker })
	}
	for _, c := range idle {
		if len(m.pending) == 0 {
			return
		}
		task := m.pending[0]
		m.pending = m.pending[1:]
		m.assign(task, c.worker, now)
	}
}

func (m *master) assign(task Task, worker string, now time.Time) {
	m.nextAsgn++
	asgn := &assignment{task: task, worker: worker, start: now, id: m.nextAsgn}
	m.running[worker] = asgn
	m.metrics.Assignments++

	finish := now.Add(task.Duration)
	crashAt, crashed := m.cfg.Crashes[worker]
	if crashed && crashAt.Before(finish) {
		// The worker dies mid-task: no result ever arrives. The master
		// does not know yet; abortSuspicious reaps the assignment once
		// the suspicion level crosses the restart threshold.
		return
	}
	m.cfg.Sim.At(finish.Add(m.cfg.ResultDelay), func() {
		m.receiveResult(asgn)
	})
}

func (m *master) receiveResult(asgn *assignment) {
	now := m.cfg.Sim.Now()
	if asgn.aborted {
		return // discarded duplicate; waste already accounted at abort
	}
	if m.running[asgn.worker] == asgn {
		delete(m.running, asgn.worker)
	}
	if m.done[asgn.task.ID] {
		m.metrics.WastedCPU += asgn.task.Duration
		return
	}
	m.done[asgn.task.ID] = true
	if now.After(m.lastDone) {
		m.lastDone = now
	}
	// Dispatch opportunistically so completions chain without waiting
	// for the next tick.
	m.dispatch(now)
}
