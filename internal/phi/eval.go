package phi

import (
	"math"

	"accrual/internal/core"
)

// EvalSnapshot publishes the detector's frozen interpretation
// function: between heartbeats φ is a pure function of (now − t_last)
// given the fitted inter-arrival distribution, so the distribution
// parameters — the same (mean, stddev)-shaped estimate the original φ
// paper computes φ from — plus t_last and ε are the whole state. This
// is where the distribution is fitted: the acceptable-pause shift of
// the mean, the σ floor, and the Erlang method-of-moments shape.
func (d *Detector) EvalSnapshot() core.EvalSnapshot {
	if d.window.Len() == 0 {
		return core.EvalSnapshot{Kind: core.EvalZero}
	}
	mean := d.window.Mean() + d.acceptablePause
	ref := d.last.UnixNano()
	switch d.model {
	case ModelExponential:
		if mean <= 0 {
			return core.EvalSnapshot{Kind: core.EvalZero}
		}
		return core.EvalSnapshot{Kind: core.EvalPhiExponential, Ref: ref, P1: mean, Eps: d.eps}
	case ModelErlang:
		if mean <= 0 {
			return core.EvalSnapshot{Kind: core.EvalZero}
		}
		v := d.window.Variance()
		minV := d.minStdDev * d.minStdDev
		if v < minV {
			v = minV
		}
		k := int(math.Round(mean * mean / v))
		if k < 1 {
			k = 1
		}
		if k > maxErlangShape {
			k = maxErlangShape
		}
		return core.EvalSnapshot{Kind: core.EvalPhiErlang, Ref: ref, P1: float64(k), P2: float64(k) / mean, Eps: d.eps}
	default:
		sd := d.window.StdDev()
		if sd < d.minStdDev {
			sd = d.minStdDev
		}
		return core.EvalSnapshot{Kind: core.EvalPhiNormal, Ref: ref, P1: mean, P2: sd, Eps: d.eps}
	}
}
