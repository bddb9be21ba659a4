package chen

import (
	"accrual/internal/core"
)

// EvalSnapshot publishes the detector's frozen interpretation
// function: between heartbeats the level is the lateness past the
// expected arrival EA in level units, so the precomputed EA, the unit
// and ε are the whole state. Before the first heartbeat EA is start+η
// (see Suspicion).
func (d *Detector) EvalSnapshot() core.EvalSnapshot {
	ea, ok := d.ExpectedArrival()
	if !ok {
		ea = d.start.Add(d.interval)
	}
	return core.EvalSnapshot{
		Kind: core.EvalLateness,
		Ref:  ea.UnixNano(),
		P1:   float64(d.unit),
		Eps:  d.eps,
	}
}
