// Package kappa implements the κ accrual failure detection framework of
// Hayashibara, Défago and Katayama (JAIST IS-RR-2004-006), as described in
// §5.4 of the accrual failure detectors paper.
//
// Detectors that estimate the arrival time of the next heartbeat (Chen, φ)
// do not cope well with bursts of lost heartbeats: a single random
// distribution cannot model both delay variability and message loss. The κ
// detector instead makes every heartbeat that was not received contribute
// to the suspicion level. The contribution of a heartbeat grows gradually
// from 0 ("not yet expected") to 1 ("considered lost"), and the suspicion
// level is the sum of all contributions:
//
//	sl(t) = Σ_j c(t − due_j)
//
// over the heartbeats j still missing, where due_j is the instant
// heartbeat j started being awaited (the expected arrival time of its
// predecessor). At low suspicion levels only one heartbeat contributes
// significantly, so the level follows the fine-grained contribution
// function (aggressive range); at high levels the sum approaches a count
// of missed heartbeats and the shape of c is nearly irrelevant
// (conservative range). The change between the two regimes is gradual —
// exactly the behaviour §5.4 describes.
//
// Receiving a heartbeat with sequence number s supersedes every
// expectation with number ≤ s: a heartbeat is a proof of life at its send
// time, so older missing heartbeats no longer indicate a failure. This is
// what lets κ absorb loss bursts: one arrival after a burst collapses the
// accumulated contributions.
package kappa

import (
	"time"

	"accrual/internal/core"
	"accrual/internal/stats"
)

// Estimate carries the current inter-arrival estimate handed to
// contribution functions.
type Estimate struct {
	// Mean is the estimated (or configured) heartbeat inter-arrival time.
	Mean time.Duration
	// StdDev is the estimated inter-arrival standard deviation (zero when
	// operating on a fixed interval).
	StdDev time.Duration
}

// Contribution is the pluggable heart of the κ framework: the function
// describing how much one missing heartbeat contributes to the suspicion
// level as a function of the time elapsed since the heartbeat started
// being awaited. Implementations must be non-decreasing in delta, return
// values in [0, 1], return 0 for delta <= 0, and reach exactly 1 for all
// delta >= Saturation(est).
type Contribution interface {
	// Value returns the contribution c(delta) of a heartbeat that has
	// been awaited for delta.
	Value(delta time.Duration, est Estimate) float64
	// Saturation returns the delay after which the contribution is
	// pinned to 1 ("the heartbeat is lost"). The detector uses it to sum
	// arbitrarily many long-missed heartbeats in O(1) each.
	Saturation(est Estimate) time.Duration
}

// Step is the simplest contribution function mentioned in §5.4: a timeout
// per heartbeat. The contribution is 0 before the timeout and 1 after.
type Step struct {
	// Timeout is measured from the instant the heartbeat started being
	// awaited. It should exceed the heartbeat interval.
	Timeout time.Duration
}

var _ Contribution = Step{}

// Value implements Contribution.
func (s Step) Value(delta time.Duration, _ Estimate) float64 {
	if delta >= s.Timeout {
		return 1
	}
	return 0
}

// Saturation implements Contribution.
func (s Step) Saturation(Estimate) time.Duration { return s.Timeout }

// Ramp rises linearly from 0 at Start to 1 at End.
type Ramp struct {
	Start, End time.Duration
}

var _ Contribution = Ramp{}

// Value implements Contribution.
func (r Ramp) Value(delta time.Duration, _ Estimate) float64 {
	switch {
	case delta <= r.Start:
		return 0
	case delta >= r.End:
		return 1
	default:
		return float64(delta-r.Start) / float64(r.End-r.Start)
	}
}

// Saturation implements Contribution.
func (r Ramp) Saturation(Estimate) time.Duration { return r.End }

// PLater is the contribution function suggested by §5.4: reuse the
// arrival-distribution estimate of the φ detector. The contribution of a
// heartbeat awaited for delta is the probability that it should already
// have arrived, 1 − P_later(delta), under a normal inter-arrival model.
// The contribution is clamped to exactly 1 beyond Mu + Cutoff·Sigma.
type PLater struct {
	// MinStdDev floors the estimated standard deviation (default 1ms).
	MinStdDev time.Duration
	// Cutoff is the number of standard deviations past the mean at which
	// the contribution is treated as saturated (default 8).
	Cutoff float64
}

var _ Contribution = PLater{}

func (p PLater) sigma(est Estimate) time.Duration {
	sd := est.StdDev
	min := p.MinStdDev
	if min <= 0 {
		min = time.Millisecond
	}
	if sd < min {
		sd = min
	}
	return sd
}

func (p PLater) cutoff() float64 {
	if p.Cutoff <= 0 {
		return 8
	}
	return p.Cutoff
}

// Value implements Contribution.
func (p PLater) Value(delta time.Duration, est Estimate) float64 {
	if delta <= 0 {
		return 0
	}
	if delta >= p.Saturation(est) {
		return 1
	}
	dist := stats.Normal{Mu: est.Mean.Seconds(), Sigma: p.sigma(est).Seconds()}
	return dist.CDF(delta.Seconds())
}

// Saturation implements Contribution.
func (p PLater) Saturation(est Estimate) time.Duration {
	return est.Mean + time.Duration(p.cutoff()*float64(p.sigma(est)))
}

// DistContribution adapts a fixed probability distribution over waiting
// times into a contribution function: c(Δ) = CDF(Δ) = 1 − P_later(Δ),
// clamped to exactly 1 beyond the Saturate cutoff. Unlike PLater it does
// not track the live estimate — use it when the heartbeat process is
// known in advance (fixed schedulers, TDMA-style heartbeats).
type DistContribution struct {
	// Dist is the waiting-time distribution (seconds). Required.
	Dist stats.Dist
	// Saturate is the delay at which the contribution is pinned to 1.
	// Required (> 0); pick a high quantile of Dist.
	Saturate time.Duration
}

var _ Contribution = DistContribution{}

// Value implements Contribution.
func (d DistContribution) Value(delta time.Duration, _ Estimate) float64 {
	if delta <= 0 {
		return 0
	}
	if delta >= d.Saturate {
		return 1
	}
	return d.Dist.CDF(delta.Seconds())
}

// Saturation implements Contribution.
func (d DistContribution) Saturation(Estimate) time.Duration { return d.Saturate }

// Detector is a κ accrual failure detector for one monitored process.
// Levels are (fractional) counts of missed heartbeats. Create one with
// New.
type Detector struct {
	contrib Contribution
	window  stats.Window  // inter-arrival intervals, seconds
	fixed   time.Duration // fixed interval; zero means "estimate"
	start   time.Time
	last    time.Time
	hasLast bool
	snLast  uint64
	eps     core.Level

	// pendingFixed is a retuned fixed interval awaiting the next
	// accepted heartbeat (see Retune); negative means "none pending".
	pendingFixed time.Duration

	// Channel bookkeeping for the autotuner (core.TuneInfo).
	accepted uint64
	lost     uint64

	// aux is the shared core.EvalAux hook handed out with every eval
	// snapshot (see eval.go). Allocated once so publication stays
	// allocation-free.
	aux *snapEval
}

var _ core.Detector = (*Detector)(nil)

// Option configures a Detector.
type Option func(*Detector)

// WithWindowSize sets the number of inter-arrival samples kept for the
// interval estimate (default 200). Ignored when a fixed interval is set.
func WithWindowSize(n int) Option {
	return func(d *Detector) { d.window = *stats.NewWindow(n) }
}

// WithFixedInterval disables interval estimation and uses the given
// nominal heartbeat interval.
func WithFixedInterval(interval time.Duration) Option {
	return func(d *Detector) { d.fixed = interval }
}

// WithResolution sets the level resolution ε.
func WithResolution(eps core.Level) Option {
	return func(d *Detector) { d.eps = eps }
}

// New returns a κ detector using the given contribution function, started
// at the given local time.
func New(start time.Time, contrib Contribution, opts ...Option) *Detector {
	d := &Detector{contrib: contrib, start: start, last: start, pendingFixed: -1}
	for _, opt := range opts {
		opt(d)
	}
	if d.window.Cap() == 0 {
		d.window = *stats.NewWindow(200)
	}
	d.aux = newSnapEval(d.contrib)
	return d
}

// Report records a heartbeat arrival and reports whether it accepted
// it: stale and duplicate sequence numbers are refused. Accepting sequence number s supersedes all
// expectations with numbers <= s.
func (d *Detector) Report(hb core.Heartbeat) bool {
	if hb.Seq <= d.snLast {
		return false
	}
	d.lost += hb.Seq - d.snLast - 1
	d.snLast = hb.Seq
	d.accepted++
	if d.hasLast {
		interval := hb.Arrived.Sub(d.last).Seconds()
		if interval >= 0 {
			d.window.Push(interval)
		}
	}
	d.last = hb.Arrived
	d.hasLast = true
	if d.pendingFixed >= 0 {
		// Apply a retuned fixed interval at an arrival, where the level
		// has just collapsed: changing the due-time grid here cannot
		// re-price heartbeats that were already accruing (see Retune).
		d.fixed = d.pendingFixed
		d.pendingFixed = -1
	}
	return true
}

// estimate returns the current inter-arrival estimate and whether one is
// available.
func (d *Detector) estimate() (Estimate, bool) {
	if d.fixed > 0 {
		var sd time.Duration
		if d.window.Len() >= 2 {
			sd = time.Duration(d.window.StdDev() * float64(time.Second))
		}
		return Estimate{Mean: d.fixed, StdDev: sd}, true
	}
	if d.window.Len() == 0 {
		return Estimate{}, false
	}
	mean := time.Duration(d.window.Mean() * float64(time.Second))
	sd := time.Duration(d.window.StdDev() * float64(time.Second))
	if mean <= 0 {
		return Estimate{}, false
	}
	return Estimate{Mean: mean, StdDev: sd}, true
}

// Suspicion returns the κ suspicion level at time now: the sum of the
// contributions of all heartbeats currently missing (see
// snapEval.EvalLevel).
func (d *Detector) Suspicion(now time.Time) core.Level {
	return d.EvalSnapshot().Level(now)
}

// Snapshotable state identity (see core.State).
const (
	// StateKind identifies κ-detector state payloads.
	StateKind = "kappa"
	// StateVersion is the current payload schema version.
	StateVersion = 1
)

// SnapshotState exports the detector's learned state: the inter-arrival
// sample window behind the interval estimate, the last arrival and the
// sequence cursor. The contribution function and fixed-interval
// configuration stay with the factory.
func (d *Detector) SnapshotState() core.State {
	st := core.NewState(StateKind, StateVersion)
	st.SetTime("start", d.start)
	st.SetTime("last", d.last)
	st.SetBool("has_last", d.hasLast)
	st.SetUint("sn_last", d.snLast)
	st.SetSeries("intervals", d.window.Samples(nil))
	return st
}

// RestoreState replaces the detector's learned state with a snapshot.
// When the receiving window is smaller than the snapshot, only the
// newest samples are kept.
func (d *Detector) RestoreState(st core.State) error {
	if err := st.Check(StateKind, StateVersion); err != nil {
		return err
	}
	d.start = st.Time("start")
	d.last = st.Time("last")
	d.hasLast = st.Bool("has_last")
	if d.last.IsZero() {
		d.last = d.start
	}
	d.snLast = st.Uint("sn_last")
	d.window.Restore(st.SeriesOf("intervals"))
	return nil
}

// Prefetch starts loading the window slot the next Report writes (see
// core.Detector.Prefetch).
func (d *Detector) Prefetch() { d.window.Prefetch() }

// LastSeq returns the sequence number of the most recent accepted
// heartbeat.
func (d *Detector) LastSeq() uint64 { return d.snLast }

// SampleCount returns the number of inter-arrival samples in the
// estimation window.
func (d *Detector) SampleCount() int { return d.window.Len() }
