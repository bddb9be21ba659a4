// Package core defines the vocabulary of accrual failure detection as
// specified by Défago, Urbán, Hayashibara and Katayama in "Definition and
// Specification of Accrual Failure Detectors" (JAIST IS-RR-2005-004, 2005).
//
// An accrual failure detector associates with every monitored process a
// real-valued suspicion level instead of a binary trust/suspect verdict
// (Definition 1 of the paper). The level is zero when the process is not
// suspected at all and grows as confidence in a crash accrues. The two
// defining properties are:
//
//   - Accruement (Property 1): if the monitored process is faulty, the
//     suspicion level is eventually monotonously increasing and increases
//     at least once every Q consecutive queries, for some unknown Q.
//   - Upper Bound (Property 2): if the monitored process is correct, the
//     suspicion level is bounded by some unknown constant.
//
// The package defines the Detector interface implemented by every accrual
// detector in this module (internal/simple, internal/chen, internal/phi,
// internal/kappa, internal/bertier), the BinaryDetector interface
// produced by the transformations of internal/transform, transition
// bookkeeping used by the QoS metrics of internal/qos, and executable
// checkers for the two defining properties.
package core

import (
	"fmt"
	"math"
	"time"
)

// Level is a suspicion level: a non-negative real value where zero means
// "not suspected at all" and larger values mean stronger suspicion
// (Definition 1). The value is unbounded above; implementations may return
// +Inf to signal certainty (for example the φ detector when the tail
// probability underflows).
type Level float64

// Quantize rounds the level down to an integer multiple of the resolution
// eps, implementing the finite-resolution requirement of Definition 1
// (sl/ε ∈ Z). A non-positive eps leaves the level unchanged.
func (l Level) Quantize(eps Level) Level {
	if eps <= 0 || math.IsInf(float64(l), 1) {
		return l
	}
	return Level(math.Floor(float64(l/eps))) * eps
}

// IsFinite reports whether the level is neither NaN nor infinite.
func (l Level) IsFinite() bool {
	f := float64(l)
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}

// Heartbeat is the monitoring information unit: a sequence-numbered alive
// message from a monitored process, as used by Algorithm 4 of the paper.
type Heartbeat struct {
	// From identifies the monitored process that emitted the heartbeat.
	From string
	// Seq is the heartbeat sequence number: strictly increasing per
	// sender, starting at 1. A detector accepts a heartbeat only if its
	// number is larger than the last accepted one; a stale, duplicated or
	// replayed delivery, and a Seq of 0, is refused (Detector.Report).
	Seq uint64
	// Sent is the sender-side emission timestamp according to the
	// sender's local clock. It may be the zero time when the transport
	// does not carry it; detectors in this module only rely on Arrived.
	Sent time.Time
	// Arrived is the receiver-side arrival timestamp according to the
	// monitor's local clock.
	Arrived time.Time
}

// Detector is one accrual failure detector module: process q monitoring a
// single process p. It is the one contract every detector kind
// implements in full — there are no optional facets. Implementations are
// passive state machines — they hold no goroutines or timers — so the
// same detector code runs under the discrete-event simulator and the
// real network transport.
//
// The contract follows the paper's decoupling (Figs. 1–2): Report is
// monitoring, and everything a reader needs for interpretation is the
// frozen EvalSnapshot. A detector computes levels in exactly one place:
// its EvalSnapshot parameters evaluated by EvalSnapshot.Level.
//
// Implementations need not be safe for concurrent use; synchronisation is
// the caller's concern (internal/service serialises every method with a
// per-process lock).
type Detector interface {
	// Report records the arrival of a heartbeat from the monitored
	// process and reports whether it accepted it. It accepts exactly the
	// heartbeats numbered above the last accepted one (seq > sn_last,
	// Algorithm 4) and leaves its state untouched for any other. This is
	// the module's one sequence guard: service.Monitor counts a refused
	// heartbeat as stale and lets it move neither the level nor the
	// last-arrival stamp.
	Report(hb Heartbeat) bool
	// Prefetch asks the CPU to start loading the memory the next Report
	// touches beyond the detector itself — a sample window's next slot —
	// and does nothing else: it changes no state, observable or not,
	// and allocates nothing. A detector without such memory does
	// nothing. internal/service calls it, under the entry lock, for each
	// beat of a frame before reporting any, so the beats' misses overlap.
	Prefetch()
	// Suspicion returns the suspicion level sl_qp(now): by contract
	// EvalSnapshot().Level(now). now must be monotonically
	// non-decreasing across calls for the accruement guarantees to hold.
	Suspicion(now time.Time) Level
	// EvalSnapshot returns the detector's interpretation function with
	// the monitoring state frozen in (see EvalSnapshot). It runs once
	// per accepted heartbeat, so it must not allocate on the
	// steady-state path.
	EvalSnapshot() EvalSnapshot
	// SnapshotState exports the learned state as a self-contained copy
	// (no aliasing of internal buffers) — the seam behind warm restarts
	// and live state handoff between monitors.
	SnapshotState() State
	// RestoreState validates the state's Kind and Version (State.Check)
	// and replaces the learned state, leaving configuration untouched.
	RestoreState(State) error
	// TuneInfo returns the detector's current tunable state.
	TuneInfo() TuneInfo
	// Retune applies a live parameter update, preserving the current
	// suspicion level at the instant of the call. It is atomic: on
	// error (wrapping ErrBadTuning) no knob has moved.
	Retune(t Tuning) error
}

// Status is the output of a binary failure detector: the monitored
// process is either trusted or suspected.
type Status int

// Binary failure detector statuses. The zero value is deliberately not a
// valid status so that uninitialised values are detectable.
const (
	// Trusted means the monitored process is not suspected.
	Trusted Status = iota + 1
	// Suspected means the monitored process is suspected to have failed.
	Suspected
)

// String returns "trusted" or "suspected".
func (s Status) String() string {
	switch s {
	case Trusted:
		return "trusted"
	case Suspected:
		return "suspected"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Valid reports whether s is one of the defined statuses.
func (s Status) Valid() bool { return s == Trusted || s == Suspected }

// BinaryDetector is a binary (Chandra–Toueg style) failure detector module
// for a single monitored process. Each call to Query is one query in the
// sense of the paper's oracle model; stateful implementations (such as
// Algorithm 1) update their internal thresholds on every query.
type BinaryDetector interface {
	Query(now time.Time) Status
}

// TransitionKind distinguishes the two kinds of output transitions of a
// binary failure detector.
type TransitionKind int

const (
	// STransition is a trust→suspect transition.
	STransition TransitionKind = iota + 1
	// TTransition is a suspect→trust transition.
	TTransition
)

// String returns "S" or "T".
func (k TransitionKind) String() string {
	switch k {
	case STransition:
		return "S"
	case TTransition:
		return "T"
	default:
		return fmt.Sprintf("TransitionKind(%d)", int(k))
	}
}

// Transition records one output transition of a binary failure detector.
type Transition struct {
	At   time.Time
	Kind TransitionKind
}

// Class names a failure detector class from the paper's hierarchy (§3.2,
// §4.3 for the accrual classes; Chandra–Toueg for the binary ones).
type Class int

const (
	// ClassEventuallyPerfect is the binary class ◇P: strong completeness
	// and eventual strong accuracy.
	ClassEventuallyPerfect Class = iota + 1
	// ClassPerfect is the binary class P.
	ClassPerfect
	// ClassEventuallyPerfectAccrual is ◇P_ac (Definition 2): Accruement
	// and Upper Bound hold for all pairs of processes.
	ClassEventuallyPerfectAccrual
	// ClassPerfectAccrual is P_ac: like ◇P_ac but with a known upper
	// bound on the suspicion level of correct processes.
	ClassPerfectAccrual
	// ClassEventuallyStrongAccrual is ◇S_ac: Upper Bound needs to hold
	// only with respect to one correct process.
	ClassEventuallyStrongAccrual
	// ClassStrongAccrual is S_ac: ◇S_ac with a known bound.
	ClassStrongAccrual
)

// String returns the conventional name of the class.
func (c Class) String() string {
	switch c {
	case ClassEventuallyPerfect:
		return "◇P"
	case ClassPerfect:
		return "P"
	case ClassEventuallyPerfectAccrual:
		return "◇P_ac"
	case ClassPerfectAccrual:
		return "P_ac"
	case ClassEventuallyStrongAccrual:
		return "◇S_ac"
	case ClassStrongAccrual:
		return "S_ac"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}
