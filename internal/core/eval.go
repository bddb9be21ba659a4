package core

import (
	"math"
	"time"

	"accrual/internal/stats"
)

// This file defines the lock-free evaluation contract: the compact,
// immutable parameter snapshot a detector publishes on every state
// change so that full-fleet readers can evaluate suspicion levels
// without taking the detector's lock or calling into the detector at
// all.
//
// The contract exploits the paper's central decoupling. Between
// heartbeats a detector's state is frozen: the suspicion level is a
// pure, monotone function of the time elapsed since the last arrival,
// given the frozen inter-arrival estimate (Definition 1 — the level
// accrues with elapsed time, the estimate only moves on monitoring
// input). Every detector in this module reduces to a handful of scalar
// parameters between arrivals — φ and Bertier to (mean, stddev) /
// (EA, margin), Chen to EA, Algorithm 4 to t_last, κ to the estimate
// feeding its contribution curve — so a reader holding those scalars
// computes the level for any now with pure arithmetic. Level below is
// therefore the only level formula in the module: every detector's
// Suspicion(now) is EvalSnapshot().Level(now).

// EvalKind discriminates the evaluator shape of an EvalSnapshot.
type EvalKind uint32

const (
	// EvalZero is the degenerate snapshot of a detector with no
	// estimate yet (φ or κ before any inter-arrival sample): the level
	// is 0 for every now. It is the zero value, so an empty snapshot
	// evaluates to "not suspected".
	EvalZero EvalKind = iota
	// EvalElapsed is Algorithm 4 (internal/simple):
	// level = max(0, now−Ref) / P1, with Ref = t_last and P1 the level
	// unit in nanoseconds.
	EvalElapsed
	// EvalLateness is Chen's accrual form (internal/chen):
	// level = max(0, now−Ref) / P1, with Ref = EA (the expected arrival
	// of the next heartbeat) and P1 the level unit in nanoseconds.
	// Strictly-negative lateness clamps to 0 before the division, so
	// the two kinds differ only in what Ref means.
	EvalLateness
	// EvalLatenessMargin is Bertier's accrual form (internal/bertier):
	// lateness = max(0, now−Ref)/P2 (the embedded Chen estimator's
	// level, unit P2 ns); level = lateness/P1 when lateness > 0, with
	// P1 the adaptive margin in seconds.
	EvalLatenessMargin
	// EvalPhiNormal is the φ detector under its normal inter-arrival
	// model: Ref = t_last, P1 = μ (seconds, acceptable pause included),
	// P2 = σ (seconds, floored).
	EvalPhiNormal
	// EvalPhiExponential is φ under the exponential model:
	// Ref = t_last, P1 = the distribution mean (seconds).
	EvalPhiExponential
	// EvalPhiErlang is φ under the Erlang model: Ref = t_last,
	// P1 = the fitted integer shape k, P2 = λ.
	EvalPhiErlang
	// EvalAuxKind delegates evaluation to the snapshot's Aux hook — the
	// escape hatch for detectors whose level needs more than the POD
	// parameters (κ's pluggable contribution curve).
	EvalAuxKind
)

// EvalSnapshot is a compact immutable parameter set sufficient to
// evaluate a detector's suspicion level at any instant at or after the
// snapshot was taken, without locks and without the detector.
//
// The meaning of Ref, P1 and P2 depends on Kind (see the constants).
// Ref is always an instant in Unix nanoseconds; Level compares it
// against now.UnixNano(), i.e. wall-clock arithmetic, so this is the one
// place the module's time base is decided.
//
// Snapshots are plain values: publishing one must not allocate, so a
// detector's EvalSnapshot method returns it by value and any Aux hook
// is allocated once at construction, never per publication.
type EvalSnapshot struct {
	Kind EvalKind
	// Ref is the reference instant in Unix nanoseconds: t_last for
	// elapsed-time kinds, EA for lateness kinds.
	Ref int64
	// P1 and P2 are the kind-specific scalar parameters.
	P1 float64
	P2 float64
	// Eps is the detector's level resolution ε (Definition 1).
	Eps Level
	// Aux is the evaluator hook of EvalAuxKind snapshots, nil
	// otherwise. Implementations must be immutable once published and
	// must have a comparable dynamic type (publish-side change
	// detection compares interface identities).
	Aux EvalAux
}

// EvalAux evaluates snapshot kinds whose level computation needs state
// beyond the POD parameters — κ's contribution curve is the in-tree
// case. An implementation must be a pure function of (s, now): it runs
// concurrently on arbitrary reader goroutines with no synchronisation.
type EvalAux interface {
	EvalLevel(s EvalSnapshot, now time.Time) Level
}

// Level evaluates the snapshot at now. It is pure, lock-free and
// allocation-free for every kind (φ-Erlang's tail is two passes with no
// scratch).
func (s EvalSnapshot) Level(now time.Time) Level {
	switch s.Kind {
	case EvalElapsed, EvalLateness:
		d := now.UnixNano() - s.Ref
		if d < 0 {
			return 0
		}
		return Level(float64(d) / s.P1).Quantize(s.Eps)
	case EvalLatenessMargin:
		d := now.UnixNano() - s.Ref
		if d < 0 {
			d = 0
		}
		lateness := float64(d) / s.P2
		if lateness <= 0 {
			return 0
		}
		return Level(lateness / s.P1).Quantize(s.Eps)
	case EvalPhiNormal, EvalPhiExponential, EvalPhiErlang:
		// φ(t) = −log₁₀ P_later(t − t_last), computed in log space so it
		// keeps growing smoothly far past the point where P_later
		// underflows in float64. The concrete LogTail methods are called
		// directly: boxing the distribution into an interface would
		// heap-allocate on every evaluation.
		elapsed := s.elapsed(now)
		if elapsed <= 0 {
			return 0
		}
		var logTail float64
		switch s.Kind {
		case EvalPhiNormal:
			logTail = stats.Normal{Mu: s.P1, Sigma: s.P2}.LogTail(elapsed)
		case EvalPhiExponential:
			logTail = stats.Exponential{MeanValue: s.P1}.LogTail(elapsed)
		default:
			logTail = stats.Erlang{K: int(s.P1), Lambda: s.P2}.LogTail(elapsed)
		}
		phi := -logTail / math.Ln10
		if phi <= 0 { // also normalises the -0.0 produced by logTail == 0
			return 0
		}
		return Level(phi).Quantize(s.Eps)
	case EvalAuxKind:
		if s.Aux == nil {
			return 0
		}
		return s.Aux.EvalLevel(s, now)
	default: // EvalZero
		return 0
	}
}

// elapsed is the φ kinds' argument, t − t_last in seconds.
func (s EvalSnapshot) elapsed(now time.Time) float64 {
	return time.Duration(now.UnixNano() - s.Ref).Seconds()
}

// ZScore returns z = (Δ − μ)/σ for a φ-normal snapshot at now, with Δ
// the elapsed time, and ok == false for every snapshot it does not
// apply to: other kinds, ε > 0, σ ≤ 0 (or NaN) and Δ ≤ 0. Where ok
// holds, Level(now) is −log₁₀ Q(z) computed from this very z — the same
// elapsed and (x − μ)/σ arithmetic, bit for bit — so it is a
// non-decreasing function of z alone, and processes can be ordered by
// z without evaluating the tail. Computed levels are monotone in z
// only up to LogTail's float error, so a caller that orders by z must
// leave a margin wider than that error (see Monitor.TopK).
func (s EvalSnapshot) ZScore(now time.Time) (z float64, ok bool) {
	if s.Kind != EvalPhiNormal || s.Eps != 0 || !(s.P2 > 0) {
		return 0, false
	}
	elapsed := s.elapsed(now)
	if elapsed <= 0 {
		return 0, false
	}
	return stats.Normal{Mu: s.P1, Sigma: s.P2}.Z(elapsed), true
}
