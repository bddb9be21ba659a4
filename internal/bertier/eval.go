package bertier

import (
	"accrual/internal/core"
)

// EvalSnapshot publishes the detector's frozen interpretation
// function: between heartbeats the level is the lateness past the
// embedded estimator's expected arrival, normalised by the Jacobson
// margin — and both EA and the margin only move on arrivals,
// so (EA, margin, ε) are the whole state. The embedded Chen estimator
// carries no resolution of its own (New never sets one), so its
// intermediate lateness needs no quantisation step here.
func (d *Detector) EvalSnapshot() core.EvalSnapshot {
	est := d.est.EvalSnapshot()
	return core.EvalSnapshot{
		Kind: core.EvalLatenessMargin,
		Ref:  est.Ref,
		P1:   d.Margin().Seconds(),
		P2:   est.P1,
		Eps:  d.eps,
	}
}
