package core

import (
	"errors"
	"time"
)

// ErrBadTuning is returned (possibly wrapped) by Retune when the
// requested tuning is out of the detector's acceptable range. The
// detector state is unchanged in that case.
var ErrBadTuning = errors.New("core: invalid tuning")

// Tuning is a bounded parameter update applied to a running detector by
// the autotuner (ROADMAP item 3). Zero values mean "keep the current
// setting", so a Tuning carries only the knobs the controller actually
// wants to move. Implementations must apply the update without losing
// accrued history: the suspicion level immediately after Retune must
// equal the level immediately before it (the same continuity contract
// the PR-2 snapshot/restore plumbing honours).
type Tuning struct {
	// WindowSize resizes the detector's estimation window (arrival
	// samples for Chen-style detectors, inter-arrival intervals for φ
	// and κ). Zero keeps the current capacity.
	WindowSize int
	// Interval replaces the detector's nominal heartbeat interval (η in
	// Chen's estimator, the fixed interval of the κ detector). Zero
	// keeps the current interval; detectors without an interval knob
	// ignore it.
	Interval time.Duration
}

// TuneInfo describes a detector's current tunable state and the
// channel statistics it has measured, as exposed to the autotuner.
// Fields a detector cannot report are left zero.
type TuneInfo struct {
	// WindowSize is the current estimation-window capacity; WindowLen
	// is the number of samples it currently holds.
	WindowSize int
	WindowLen  int
	// Interval is the detector's nominal heartbeat interval (η), when
	// it has one.
	Interval time.Duration
	// ArrivalMean and ArrivalStdDev summarise the observed
	// inter-arrival distribution as the detector estimates it. Zero
	// when the detector has too few samples to say.
	ArrivalMean   time.Duration
	ArrivalStdDev time.Duration
	// Margin is the adaptive safety margin, for detectors that keep
	// one (Bertier's Jacobson-style margin).
	Margin time.Duration
	// Accepted counts heartbeats the detector accepted; Lost counts
	// sequence-number gaps observed on acceptance. Lost/(Lost+Accepted)
	// is an upper bound on the channel loss probability (reordered
	// deliveries count as gaps too).
	Accepted uint64
	Lost     uint64
}
