package simple

import (
	"fmt"
	"time"

	"accrual/internal/core"
)

// TuneInfo reports channel statistics. The Algorithm 4 detector has no
// estimation window or interval knob, so only the arrival bookkeeping
// is populated: ArrivalMean is the mean gap between accepted heartbeats
// since the first one.
func (d *Detector) TuneInfo() core.TuneInfo {
	info := core.TuneInfo{
		Accepted: d.accepted,
		Lost:     d.lost,
	}
	if d.accepted >= 2 {
		info.ArrivalMean = d.tLast.Sub(d.firstA) / time.Duration(d.accepted-1)
	}
	return info
}

// Retune validates the tuning but applies nothing: the simple detector
// has no tunable estimator state, so any in-range tuning is trivially
// continuity-preserving. Its interpretation is tuned entirely through
// the hysteresis thresholds layered on top.
func (d *Detector) Retune(t core.Tuning) error {
	if t.WindowSize < 0 {
		return fmt.Errorf("simple: window size %d: %w", t.WindowSize, core.ErrBadTuning)
	}
	if t.Interval < 0 {
		return fmt.Errorf("simple: interval %v: %w", t.Interval, core.ErrBadTuning)
	}
	return nil
}
