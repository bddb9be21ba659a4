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
	// ZScore is EvalSnapshot.ZScore for the hook's snapshots: it returns
	// z and the family fam when EvalLevel(s, now) is fam's level function
	// of z (see ZFamily), and ZNone, at the cost of a few comparisons,
	// everywhere else. κ returns ZNormalCDF while only one heartbeat
	// is awaited under its PLater contribution.
	ZScore(s EvalSnapshot, now time.Time) (z float64, fam ZFamily)
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

// ZFamily names a non-decreasing function of one standard score z that
// a snapshot's level is, where EvalSnapshot.ZScore finds one: snapshots
// of one family can be ordered by z without evaluating their levels
// (Monitor.TopK does). ZNone, the zero value, means no such function
// applies.
type ZFamily uint8

const (
	// ZNone: the level is not known to be a function of one z.
	ZNone ZFamily = iota
	// ZPhiNormal: Level = −log₁₀ Q(z), φ under the normal model, with z
	// the very value LogTail computes.
	ZPhiNormal
	// ZNormalCDF: Level = Φ(z) = ½·erfc(−z/√2), κ's PLater contribution
	// while one heartbeat is awaited. Normal.CDF divides Δ − μ by σ√2
	// rather than σ, so computed levels follow z only up to rounding.
	ZNormalCDF
)

// ZBounds is what a family's computed level — float64 arithmetic, not
// the exact function — guarantees about ordering by z.
type ZBounds struct {
	// Floor, Ceiling and Margin: for a root of the family at level
	// ≥ Floor with z ≤ Ceiling, every snapshot of the family whose z is
	// more than Margin below the root's has a computed level strictly
	// below the root's.
	Floor   Level
	Ceiling float64
	Margin  float64
	// Zero: at z ≤ Zero the computed level is exactly 0.
	Zero float64
}

// Bounds returns f's bounds; ZNone's never arm (Ceiling −Inf) and have
// no zero region (Zero −Inf).
func (f ZFamily) Bounds() ZBounds { return zBounds[f] }

// zBounds is the family table. The margins are wide against float error
// and narrow against the levels' spread, so ordering by z drops almost
// every process that cannot rank:
//
// ZPhiNormal. φ'(z) = h(z)/ln 10 grows with z (h, the normal hazard
// rate, is increasing). A root at level ≥ 0.01 has z ≥ −2.00
// (Q(−2.00) = 0.9772 ≈ 10^−0.01), where φ' ≈ 0.024, so a snapshot
// 1e-4 below it in z has an exact φ at least 2.4e-6 lower, and the gap
// only widens further out: ≈ 3.5e-4 at z = 8, ≈ z·4.3e-5 beyond.
// Against that gap stand Level's float error — the rounding of erfc's
// argument and result carried through the log, about 1e-16 at φ = 0.01
// and a few ulps of φ ≈ 0.22·z² (under z²·1e-15) far out, which would
// reach the gap near z = 4e10 — and LogTail's switch from erfc to the
// asymptotic series at z = 8, where φ steps up by 2.4e-6: the safe way.
// Past the ceiling 1e9 computed levels of distinct z can tie (z = 1e15
// and one ulp less do), and from z ≈ 1.3e154 on z² overflows and every
// level is +Inf. The floor also keeps deep negative z out, where φ is
// flat at 0 and equal levels rank by id. Zero: at z ≤ −8.5 erfc's
// argument z/√2 is below −6, where math.Erfc returns exactly 2, so
// Q = 1 and φ = 0.
//
// ZNormalCDF. Φ'(z)/Φ(z) ≈ |z| for z ≪ 0, so across 1e-4 in z Φ falls
// by ≥ 3.7e-3 relative at z = −37, ≥ 8e-5 relative at z = 0 and by
// φ(5)·1e-4 ≈ 1.5e-10 absolute at z = 5. Against that stand erfc's
// error (about an ulp) and the rounding of σ√2, which moves erfc's
// argument by a few ulps: at most z²·1e-15 relative in Φ, 1.4e-12 at
// z = −37. The floor 1e-300 (Φ(−37.05)) keeps the root's level a
// normal float64: below it Φ runs through the subnormals (from
// z ≈ −37.5), where a level has few significant bits, to exactly 0
// (from z ≈ −38.5), where equal levels rank by id. Past the ceiling 5
// the step across the margin shrinks with the density φ(z) — a few ulps
// of 1 by z = 7 — and from z ≈ 8.3 Φ rounds to 1. κ's own snapshots
// stay below z = 0, since they need Δ < μ. Zero: at z ≤ −40 erfc's
// argument −z/√2 is ≥ 28.28, and math.Erfc returns exactly 0 from 28 on.
var zBounds = [...]ZBounds{
	ZNone:      {Floor: Level(math.Inf(1)), Ceiling: math.Inf(-1), Zero: math.Inf(-1)},
	ZPhiNormal: {Floor: 0.01, Ceiling: 1e9, Margin: 1e-4, Zero: -8.5},
	ZNormalCDF: {Floor: 1e-300, Ceiling: 5, Margin: 1e-4, Zero: -40},
}

// ZScore returns the standard score z of the snapshot at now and the
// family whose level function of z Level(now) is, or ZNone for every
// snapshot no family covers: ε > 0 (quantized levels tie across z),
// and every kind but φ-normal and EvalAuxKind hooks that report one.
// For φ-normal, z = (Δ − μ)/σ with Δ the elapsed time, computed with the
// same elapsed and (x − μ)/σ arithmetic Level uses, bit for bit; σ ≤ 0
// (or NaN) and Δ ≤ 0 are ZNone. Computed levels are monotone in z only
// up to float error, so a caller that orders by z must leave the
// family's margin (ZFamily.Bounds).
func (s EvalSnapshot) ZScore(now time.Time) (z float64, fam ZFamily) {
	switch s.Kind {
	case EvalPhiNormal:
		if s.Eps != 0 || !(s.P2 > 0) {
			return 0, ZNone
		}
		elapsed := s.elapsed(now)
		if elapsed <= 0 {
			return 0, ZNone
		}
		return stats.Normal{Mu: s.P1, Sigma: s.P2}.Z(elapsed), ZPhiNormal
	case EvalAuxKind:
		if s.Aux == nil {
			return 0, ZNone
		}
		return s.Aux.ZScore(s, now)
	}
	return 0, ZNone
}
