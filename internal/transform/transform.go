// Package transform implements the computational-equivalence
// transformations of §4 of the paper:
//
//   - Algorithm 1: accrual (◇P_ac) → binary (◇P), with the dynamic
//     suspicion threshold SL_susp and trust run-length L_trust.
//   - The P_ac variant of Algorithm 1 (§4.3): when a known bound on the
//     suspicion level of correct processes exists, initialising SL_susp to
//     it yields a perfect (P) binary detector.
//   - Algorithm 2: binary (◇P) → accrual (◇P_ac) by ε-accumulation.
//   - Algorithm 3: interpreting an accrual detector through thresholds —
//     the single-threshold detector D_T (Equation 2) and the two-threshold
//     hysteresis detector D'_T used by Theorems 1 and 4.
//
// These transformations are what make the accrual model lossless: any
// problem solvable with a ◇P binary detector is solvable with a ◇P_ac
// accrual one, and vice versa (Theorems 9 and 12).
package transform

import (
	"time"

	"accrual/internal/core"
)

// LevelFunc supplies the suspicion level sl_qp(t) that the transformations
// consume. It abstracts over full detectors, recorded histories and
// adversarial sources.
type LevelFunc func(now time.Time) core.Level

// FromDetector adapts an accrual detector's Suspicion method to a
// LevelFunc. It asks for that one method only, so it also accepts level
// sources that are not full core.Detectors — Algorithm 2's
// BinaryToAccrual, whose query-stateful level cannot be frozen into an
// eval snapshot.
func FromDetector(d interface{ Suspicion(time.Time) core.Level }) LevelFunc {
	return d.Suspicion
}

// AccrualToBinary is Algorithm 1: it turns an accrual failure detector of
// class ◇P_ac into a binary one of class ◇P. Each Query performs exactly
// one iteration of the algorithm's "when queried" block.
//
// Correctness rests on the two dynamic thresholds. If the monitored
// process is correct, SL_susp ratchets up at every S-transition and
// eventually exceeds the (unknown) bound SL_max, after which S-transitions
// stop (Lemma 8). If it is faulty, L_trust ratchets up at every
// T-transition and eventually exceeds the (unknown) constancy bound Q,
// after which T-transitions stop (Lemma 7).
type AccrualToBinary struct {
	src LevelFunc

	status  core.Status
	slSusp  core.Level
	l       int
	lTrust  int
	slPrev  core.Level
	started bool
}

var _ core.BinaryDetector = (*AccrualToBinary)(nil)

// NewAccrualToBinary returns the Algorithm 1 transformation reading
// suspicion levels from src. Initialisation of SL_susp and sl_prev to the
// current suspicion level happens on the first query (the paper
// initialises them at algorithm start; deferring to the first query keeps
// the constructor free of a time argument and is equivalent, since the
// output is only defined at queries).
func NewAccrualToBinary(src LevelFunc) *AccrualToBinary {
	return &AccrualToBinary{src: src}
}

// NewWithKnownBound returns the P_ac → P variant (§4.3): the suspicion
// threshold starts at the known bound on the suspicion level of correct
// processes, so a correct process is never wrongly suspected.
func NewWithKnownBound(src LevelFunc, bound core.Level) *AccrualToBinary {
	t := &AccrualToBinary{src: src}
	t.init(bound)
	return t
}

func (t *AccrualToBinary) init(sl core.Level) {
	t.status = core.Trusted
	t.slSusp = sl
	t.l = 1
	t.lTrust = 1
	t.slPrev = sl
	t.started = true
}

// Query runs one iteration of Algorithm 1 and returns the binary status.
func (t *AccrualToBinary) Query(now time.Time) core.Status {
	sl := t.src(now)
	if !t.started {
		t.init(sl)
		return t.status
	}
	// Lines 9–11: update the run length of the constant-level period.
	if sl != t.slPrev {
		t.l = 0
	}
	t.l++
	// Lines 12–14: suspect if the level exceeds the dynamic threshold.
	if sl > t.slSusp && t.status == core.Trusted {
		t.status = core.Suspected
		t.slSusp = sl
	}
	// Lines 15–17: trust if the level decreases or stays constant for a
	// long run.
	if (sl < t.slPrev || t.l > t.lTrust) && t.status == core.Suspected {
		t.status = core.Trusted
		t.lTrust++
	}
	t.slPrev = sl
	return t.status
}

// Status returns the current status without running a query (the value of
// the last query, Trusted before any query).
func (t *AccrualToBinary) Status() core.Status {
	if !t.started {
		return core.Trusted
	}
	return t.status
}

// Thresholds returns the current dynamic thresholds (SL_susp, L_trust),
// mainly for tests and the experiment harness.
func (t *AccrualToBinary) Thresholds() (slSusp core.Level, lTrust int) {
	return t.slSusp, t.lTrust
}

// BinaryToAccrual is Algorithm 2: it turns a binary failure detector of
// class ◇P into an accrual one of class ◇P_ac. On each query it queries
// the binary detector; while the process is suspected the level grows by
// the resolution ε, and as soon as it is trusted the level resets to zero.
type BinaryToAccrual struct {
	bin    core.BinaryDetector
	eps    core.Level
	slPrev core.Level
}

// NewBinaryToAccrual returns the Algorithm 2 transformation over the
// given binary detector. eps is the resolution ε of the produced level;
// non-positive values default to 1.
func NewBinaryToAccrual(bin core.BinaryDetector, eps core.Level) *BinaryToAccrual {
	if eps <= 0 {
		eps = 1
	}
	return &BinaryToAccrual{bin: bin, eps: eps}
}

// Suspicion runs one iteration of Algorithm 2 and returns the accrued
// level.
func (t *BinaryToAccrual) Suspicion(now time.Time) core.Level {
	if t.bin.Query(now) == core.Suspected {
		t.slPrev += t.eps
	} else {
		t.slPrev = 0
	}
	return t.slPrev
}

// ConstantThreshold is the stateless single-threshold interpreter D_T of
// Equation (2): the process is suspected at t if and only if
// sl(t) > T(t). With the simple detector of §5.1 this is exactly a binary
// heartbeat detector with timeout T.
type ConstantThreshold struct {
	src LevelFunc
	// T is the threshold function of time. Required.
	T func(now time.Time) core.Level
}

var _ core.BinaryDetector = (*ConstantThreshold)(nil)

// NewConstantThreshold returns D_T with a threshold constant in time.
func NewConstantThreshold(src LevelFunc, threshold core.Level) *ConstantThreshold {
	return &ConstantThreshold{src: src, T: func(time.Time) core.Level { return threshold }}
}

// NewThresholdFunc returns D_T with a time-varying threshold function.
func NewThresholdFunc(src LevelFunc, t func(now time.Time) core.Level) *ConstantThreshold {
	return &ConstantThreshold{src: src, T: t}
}

// Query returns Suspected iff sl(now) > T(now).
func (d *ConstantThreshold) Query(now time.Time) core.Status {
	if d.src(now) > d.T(now) {
		return core.Suspected
	}
	return core.Trusted
}

// Hysteresis is Algorithm 3: the two-threshold interpreter D'_T. An
// S-transition fires when the level exceeds the high threshold T; a
// T-transition fires when the level falls to or below the low threshold
// T0. T0 < T must hold for the QoS orderings of Theorems 1 and 4 to
// apply.
type Hysteresis struct {
	src       LevelFunc
	high, low core.Level
	status    core.Status
}

var _ core.BinaryDetector = (*Hysteresis)(nil)

// NewHysteresis returns D'_T with thresholds high and low.
func NewHysteresis(src LevelFunc, high, low core.Level) *Hysteresis {
	return &Hysteresis{src: src, high: high, low: low, status: core.Trusted}
}

// Query runs one iteration of Algorithm 3 and returns the status.
func (d *Hysteresis) Query(now time.Time) core.Status {
	d.status = HysteresisStep(d.status, d.src(now), d.high, d.low)
	return d.status
}

// HysteresisStep is one iteration of Algorithm 3 on a level sl already
// read: from status, suspect when sl exceeds the high threshold, trust
// again when it falls to or below the low one. It is the one place D'_T
// compares a level, shared by Hysteresis and the daemon's online QoS
// estimators, which keep only the status per process.
func HysteresisStep(status core.Status, sl, high, low core.Level) core.Status {
	if sl > high && status == core.Trusted {
		status = core.Suspected
	}
	if sl <= low && status == core.Suspected {
		status = core.Trusted
	}
	return status
}

// Status returns the current status without running a query.
func (d *Hysteresis) Status() core.Status { return d.status }
