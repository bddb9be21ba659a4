package bertier

import (
	"accrual/internal/core"
)

// TuneInfo reports the embedded Chen estimator's tunable state plus the
// current adaptive margin.
func (d *Detector) TuneInfo() core.TuneInfo {
	info := d.est.TuneInfo()
	info.Margin = d.Margin()
	return info
}

// Retune delegates to the embedded Chen estimator, whose retune
// preserves the expected arrival time exactly. The Jacobson margin is
// untouched, so sl(t) = max(0, t − EA)/margin is continuous across the
// update.
func (d *Detector) Retune(t core.Tuning) error {
	return d.est.Retune(t)
}
