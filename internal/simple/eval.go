package simple

import (
	"accrual/internal/core"
)

// EvalSnapshot publishes the detector's frozen interpretation
// function: between heartbeats Algorithm 4's level is the
// elapsed time since t_last in level units, so t_last, the unit and ε
// are the whole state.
func (d *Detector) EvalSnapshot() core.EvalSnapshot {
	return core.EvalSnapshot{
		Kind: core.EvalElapsed,
		Ref:  d.tLast.UnixNano(),
		P1:   float64(d.unit),
		Eps:  d.eps,
	}
}
