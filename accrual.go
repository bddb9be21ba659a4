// Package accrual is a Go implementation of accrual failure detectors as
// defined by Défago, Urbán, Hayashibara and Katayama in "Definition and
// Specification of Accrual Failure Detectors" (JAIST IS-RR-2005-004,
// 2005) — the model behind the φ failure detector used by Akka,
// Cassandra and many other systems.
//
// An accrual failure detector outputs, for each monitored process, a
// real-valued suspicion level instead of a binary trust/suspect verdict:
// zero means "not suspected at all"; the level accrues towards infinity
// if the process has crashed and stays bounded while it is alive. This
// decouples monitoring (one service per host, ingesting heartbeats) from
// interpretation (each application applies its own threshold or policy),
// so one detector serves aggressive and conservative consumers at once.
//
// The package is a facade over the full library:
//
//   - four detector implementations from §5 of the paper — the simple
//     elapsed-time detector, Chen's expected-arrival estimator, the φ
//     detector and the κ framework (internal/simple, internal/chen,
//     internal/phi, internal/kappa);
//   - the computational-equivalence transformations of §4 — accrual to
//     binary (Algorithm 1), binary to accrual (Algorithm 2) and the
//     threshold interpreters (internal/transform);
//   - the monitoring service of Figure 2 with per-application
//     interpreters (internal/service), a UDP/HTTP transport
//     (internal/transport), QoS metrics (internal/qos), a deterministic
//     discrete-event simulator (internal/sim), and consensus/leader
//     election/Bag-of-Tasks applications built on top.
//
// Quick start:
//
//	det := accrual.NewPhiDetector(time.Now(), 100*time.Millisecond)
//	det.Report(accrual.Heartbeat{From: "node-1", Seq: 1, Arrived: time.Now()})
//	level := det.Suspicion(time.Now()) // grows while node-1 stays silent
//
// See examples/ for runnable walkthroughs and EXPERIMENTS.md for the
// reproduction of the paper's results.
package accrual

import (
	"time"

	"accrual/internal/bertier"
	"accrual/internal/chen"
	"accrual/internal/clock"
	"accrual/internal/core"
	"accrual/internal/kappa"
	"accrual/internal/phi"
	"accrual/internal/service"
	"accrual/internal/simple"
	"accrual/internal/transform"
)

// Fundamental types of the accrual model (see internal/core for the full
// documentation).
type (
	// Level is a suspicion level (Definition 1 of the paper).
	Level = core.Level
	// Heartbeat is one sequence-numbered alive message.
	Heartbeat = core.Heartbeat
	// Detector is an accrual failure detector module for one monitored
	// process: Report feeds heartbeats, Suspicion queries the level.
	// The same interface carries state export/restore
	// (SnapshotState/RestoreState), live retuning (TuneInfo/Retune) and
	// the frozen interpretation parameters (EvalSnapshot); every
	// detector in this package implements all of it.
	Detector = core.Detector
	// BinaryDetector is a classical trust/suspect failure detector.
	BinaryDetector = core.BinaryDetector
	// Status is a binary verdict: Trusted or Suspected.
	Status = core.Status
	// Transition is one S- or T-transition of a binary detector.
	Transition = core.Transition
	// State is the exportable learned state of one detector — the
	// payload of warm restarts and live state handoff.
	State = core.State
)

// Binary detector statuses.
const (
	// Trusted means the monitored process is not suspected.
	Trusted = core.Trusted
	// Suspected means the monitored process is suspected to have failed.
	Suspected = core.Suspected
)

// Service types (see internal/service): one Monitor per host, one App
// per consuming application.
type (
	// Monitor is the shared monitoring component of the paper's Figure 2.
	Monitor = service.Monitor
	// App is one application's interpretation module over a Monitor.
	App = service.App
	// Policy builds an application-side binary interpreter.
	Policy = service.Policy
	// MonitorOption configures a Monitor at creation.
	MonitorOption = service.MonitorOption
	// AppOption configures an App at creation.
	AppOption = service.AppOption
	// TransitionHandler observes an App's S- and T-transitions.
	TransitionHandler = service.TransitionHandler
	// Clock abstracts the local clock (wall clock, simulated, manual).
	Clock = clock.Clock
	// MonitorState is a snapshot of every detector's learned state in a
	// Monitor, produced by Monitor.ExportState and consumed by
	// Monitor.ImportState — the unit of warm restart and state handoff.
	MonitorState = service.MonitorState
	// ProcessState pairs one process id with its detector's state.
	ProcessState = service.ProcessState
)

// WithTransitionHandler registers a callback invoked on every transition
// an App observes.
func WithTransitionHandler(h TransitionHandler) AppOption {
	return service.WithTransitionHandler(h)
}

// NewSimpleDetector returns the paper's simplest accrual detector
// (Algorithm 4, §5.1): the suspicion level is the time in seconds since
// the last heartbeat arrived. start is the local creation time.
func NewSimpleDetector(start time.Time) Detector {
	return simple.New(start)
}

// NewChenDetector returns Chen's estimation-based detector in accrual
// form (§5.2): the level is how many seconds the next heartbeat is
// overdue relative to the estimated expected arrival time. interval is
// the nominal heartbeat period.
func NewChenDetector(start time.Time, interval time.Duration) Detector {
	return chen.New(start, interval)
}

// NewPhiDetector returns the φ accrual failure detector (§5.3), the
// implementation popularised by Akka and Cassandra: the level is
// −log₁₀ P_later(t − t_last) under a normal inter-arrival model estimated
// over a sliding window. expectedInterval seeds the estimator so the
// detector is usable before the first heartbeats arrive.
func NewPhiDetector(start time.Time, expectedInterval time.Duration) Detector {
	return phi.New(start, phi.WithBootstrap(expectedInterval, expectedInterval/4))
}

// NewKappaDetector returns a κ framework detector (§5.4): every missed
// heartbeat contributes between 0 and 1 to the level, so the detector
// degrades gracefully from distribution-based estimation to counting
// missed heartbeats — absorbing loss bursts that confuse the estimators.
func NewKappaDetector(start time.Time) Detector {
	return kappa.New(start, kappa.PLater{})
}

// NewBertierDetector returns the Bertier et al. adaptable detector
// (DSN 2002, cited in §1.1 of the paper) in accrual form: the level is
// the lateness past the expected arrival in units of a Jacobson-style
// adaptive safety margin, so a threshold of 1 recovers the original
// binary detector. interval is the nominal heartbeat period.
func NewBertierDetector(start time.Time, interval time.Duration) Detector {
	return bertier.New(start, interval)
}

// NewThreshold interprets an accrual detector through a constant
// threshold (the paper's D_T, Equation 2): suspected iff level > t.
func NewThreshold(d Detector, t Level) BinaryDetector {
	return transform.NewConstantThreshold(transform.FromDetector(d), t)
}

// NewHysteresis interprets an accrual detector through two thresholds
// (Algorithm 3, D'_T): suspect above high, trust again at or below low.
func NewHysteresis(d Detector, high, low Level) BinaryDetector {
	return transform.NewHysteresis(transform.FromDetector(d), high, low)
}

// NewAdaptiveBinary interprets an accrual detector through the paper's
// Algorithm 1: a parameter-free transformation that is eventually perfect
// (◇P) whenever the accrual detector is of class ◇P_ac.
func NewAdaptiveBinary(d Detector) BinaryDetector {
	return transform.NewAccrualToBinary(transform.FromDetector(d))
}

// NewMonitor returns the shared monitoring service: it creates one
// detector per monitored process using factory and routes heartbeats by
// sender. Attach per-application interpreters with Monitor.NewApp.
//
// The monitor's registry is sharded so heartbeats and queries for
// different processes never contend on one lock; see WithShardCount for
// the (rarely needed) tuning knob.
func NewMonitor(clk Clock, factory func(id string, start time.Time) Detector, opts ...MonitorOption) *Monitor {
	return service.NewMonitor(clk, factory, opts...)
}

// WithShardCount fixes the monitor registry's shard count (rounded up to
// the next power of two; counts below one fall back to the default). The
// default of 64 suits almost every deployment; raise it only for very
// large memberships with heavy registration churn.
func WithShardCount(n int) MonitorOption { return service.WithShardCount(n) }

// WithoutAutoRegister makes the monitor reject heartbeats from processes
// that were not explicitly registered.
func WithoutAutoRegister() MonitorOption { return service.WithoutAutoRegister() }

// WallClock returns the system clock for use with NewMonitor.
func WallClock() Clock { return clock.Wall{} }

// Application-side interpretation policies for Monitor.NewApp.
var (
	// ConstantPolicy suspects when the level exceeds a fixed threshold.
	ConstantPolicy = service.ConstantPolicy
	// HysteresisPolicy uses separate suspect/trust thresholds.
	HysteresisPolicy = service.HysteresisPolicy
	// AdaptivePolicy is the parameter-free Algorithm 1.
	AdaptivePolicy = service.AdaptivePolicy
)

// QueryRecord is one answered suspicion-level query, used by the property
// checkers below.
type QueryRecord = core.QueryRecord

// CheckAccruement verifies the paper's Property 1 on a recorded history:
// from query index k on, the level never decreases and strictly increases
// at least once every q queries (q <= 0 accepts any finite constancy
// run). Use it to validate that a custom Detector implementation accrues
// properly for crashed targets; the report carries the first violation.
func CheckAccruement(history []QueryRecord, k, q int) (holds bool, violation string) {
	rep := core.CheckAccruement(history, k, q)
	return rep.Holds, rep.Violation
}

// CheckUpperBound verifies the paper's Property 2 on a recorded history:
// every level is finite and, when bound >= 0, no larger than bound (a
// negative bound only requires finiteness). Use it to validate that a
// custom Detector stays bounded for correct targets.
func CheckUpperBound(history []QueryRecord, bound Level) (holds bool, violation string) {
	rep := core.CheckUpperBound(history, bound)
	return rep.Holds, rep.Violation
}
