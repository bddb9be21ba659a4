// Package bertier implements the adaptable failure detector of Bertier,
// Marin and Sens (DSN 2002), cited by the paper (§1.1) among the
// established small-scale implementations. It layers a Jacobson-style
// adaptive safety margin — the estimator TCP uses for retransmission
// timeouts — on top of Chen's expected-arrival estimate:
//
//	error  = observed arrival − predicted arrival
//	delay  ← delay + γ·error            (smoothed lateness)
//	var    ← var + γ·(|error| − var)    (smoothed deviation)
//	margin = β·delay + φ·var
//
// The binary detector suspects when now > EA + margin. Recast as an
// accrual detector in the style of §5.2, the suspicion level is the
// lateness beyond the expected arrival in units of the current adaptive
// margin:
//
//	sl(t) = max(0, t − EA) / margin
//
// so a constant threshold of 1 recovers the original binary detector,
// and the level self-normalises as network conditions change.
package bertier

import (
	"fmt"
	"math"
	"time"

	"accrual/internal/chen"
	"accrual/internal/core"
)

// Default Jacobson parameters, following Bertier et al. (γ=0.1, β=1,
// φ=4 — the φ here is the deviation multiplier, not the φ detector).
const (
	defaultGamma = 0.1
	defaultBeta  = 1.0
	defaultPhi   = 4.0
)

// Detector is the Bertier adaptive detector in accrual form. Create one
// with New.
type Detector struct {
	est        *chen.Detector
	gamma      float64
	beta       float64
	phi        float64
	delay      float64 // smoothed error, seconds
	dev        float64 // smoothed deviation, seconds
	minMargin  float64
	windowSize int
	eps        core.Level
}

var _ core.Detector = (*Detector)(nil)

// Option configures a Detector.
type Option func(*Detector)

// WithJacobson overrides the γ/β/φ adaptation parameters.
func WithJacobson(gamma, beta, phi float64) Option {
	return func(d *Detector) {
		if gamma > 0 && gamma <= 1 {
			d.gamma = gamma
		}
		if beta >= 0 {
			d.beta = beta
		}
		if phi >= 0 {
			d.phi = phi
		}
	}
}

// WithMinMargin floors the adaptive margin (default: a tenth of the
// heartbeat interval, at least 1ms). The floor matters doubly in accrual
// form: it prevents a margin collapse after quiet periods from turning an
// ordinary lateness spike into an enormous normalised level.
func WithMinMargin(min time.Duration) Option {
	return func(d *Detector) {
		if min > 0 {
			d.minMargin = min.Seconds()
		}
	}
}

// WithWindowSize sets the expected-arrival estimator's window.
func WithWindowSize(n int) Option {
	return func(d *Detector) { d.windowSize = n }
}

// WithResolution sets the level resolution ε.
func WithResolution(eps core.Level) Option {
	return func(d *Detector) { d.eps = eps }
}

// New returns a Bertier detector for heartbeats of nominal interval
// interval, started at the given local time.
func New(start time.Time, interval time.Duration, opts ...Option) *Detector {
	d := &Detector{
		gamma: defaultGamma,
		beta:  defaultBeta,
		phi:   defaultPhi,
	}
	d.minMargin = (interval / 10).Seconds()
	if d.minMargin < 0.001 {
		d.minMargin = 0.001
	}
	for _, opt := range opts {
		opt(d)
	}
	chenOpts := []chen.Option{}
	if d.windowSize > 0 {
		chenOpts = append(chenOpts, chen.WithWindowSize(d.windowSize))
	}
	d.est = chen.New(start, interval, chenOpts...)
	return d
}

// Report records a heartbeat arrival and reports whether it accepted
// it: first the Jacobson error update against the current prediction
// (only for the next expected sequence number, which the estimator
// always accepts), then the estimator update, whose guard decides.
func (d *Detector) Report(hb core.Heartbeat) bool {
	if ea, ok := d.est.ExpectedArrival(); ok && hb.Seq == d.est.LastSeq()+1 {
		errSec := hb.Arrived.Sub(ea).Seconds()
		d.delay += d.gamma * errSec
		d.dev += d.gamma * (math.Abs(errSec) - d.dev)
	}
	return d.est.Report(hb)
}

// Prefetch starts loading the estimator's window slot the next Report
// writes (see core.Detector.Prefetch).
func (d *Detector) Prefetch() { d.est.Prefetch() }

// Margin returns the current adaptive safety margin.
func (d *Detector) Margin() time.Duration {
	m := d.beta*d.delay + d.phi*d.dev
	if m < d.minMargin {
		m = d.minMargin
	}
	return time.Duration(m * float64(time.Second))
}

// ExpectedArrival exposes the underlying estimator's prediction.
func (d *Detector) ExpectedArrival() (time.Time, bool) { return d.est.ExpectedArrival() }

// Suspicion returns the lateness beyond the expected arrival, measured in
// units of the adaptive margin: 0 while on time, 1 exactly at the point
// the original binary detector would suspect, growing linearly after.
func (d *Detector) Suspicion(now time.Time) core.Level {
	return d.EvalSnapshot().Level(now)
}

// Snapshotable state identity (see core.State).
const (
	// StateKind identifies Bertier-detector state payloads.
	StateKind = "bertier"
	// StateVersion is the current payload schema version.
	StateVersion = 1
)

// SnapshotState exports the detector's learned state: the Jacobson
// smoothed lateness and deviation plus the embedded Chen estimator's
// state as a nested payload.
func (d *Detector) SnapshotState() core.State {
	st := core.NewState(StateKind, StateVersion)
	st.SetScalar("delay", d.delay)
	st.SetScalar("dev", d.dev)
	st.SetSub("estimator", d.est.SnapshotState())
	return st
}

// RestoreState replaces the detector's learned state with a snapshot,
// restoring both the Jacobson terms and the embedded estimator.
func (d *Detector) RestoreState(st core.State) error {
	if err := st.Check(StateKind, StateVersion); err != nil {
		return err
	}
	sub, ok := st.SubOf("estimator")
	if !ok {
		return fmt.Errorf("bertier: state has no estimator payload")
	}
	if err := d.est.RestoreState(sub); err != nil {
		return err
	}
	d.delay = st.Scalar("delay")
	d.dev = st.Scalar("dev")
	return nil
}

// Binary is the original Bertier binary detector: suspect iff the level
// reaches 1 (now > EA + margin).
type Binary struct {
	// D is the underlying adaptive detector. Required.
	D *Detector
}

var _ core.BinaryDetector = (*Binary)(nil)

// Query reports the binary verdict at time now.
func (b *Binary) Query(now time.Time) core.Status {
	if b.D.Suspicion(now) > 1 {
		return core.Suspected
	}
	return core.Trusted
}
