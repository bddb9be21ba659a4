package chen

import (
	"fmt"
	"time"

	"accrual/internal/core"
)

// TuneInfo reports the estimator's tunable state. ArrivalMean is the
// mean gap between accepted heartbeats (loss-inflated: a dropped beat
// doubles the observed gap); ArrivalStdDev is the standard deviation of
// the shifted arrival samples, which estimates the delay jitter.
func (d *Detector) TuneInfo() core.TuneInfo {
	info := core.TuneInfo{
		WindowSize: d.window.Cap(),
		WindowLen:  d.window.Len(),
		Interval:   d.interval,
		Accepted:   d.accepted,
		Lost:       d.lost,
	}
	if d.accepted >= 2 {
		info.ArrivalMean = d.lastA.Sub(d.firstA) / time.Duration(d.accepted-1)
	}
	if d.window.Len() >= 2 {
		info.ArrivalStdDev = time.Duration(d.window.StdDev() * float64(time.Second))
	}
	return info
}

// Retune applies a live parameter update while preserving the current
// suspicion level. A window resize keeps every sample (stats.Window
// shrinks lazily), so the mean — and hence EA — is untouched. An
// interval change η→η′ shifts the stored A_i − η·s_i samples by
// (η−η′)·(snLast+1), which keeps EA(snLast+1) = mean + η·(snLast+1)
// exactly where it was; before the first heartbeat the start time moves
// instead, so the start+η fallback expectation is likewise unchanged.
func (d *Detector) Retune(t core.Tuning) error {
	if t.WindowSize < 0 {
		return fmt.Errorf("chen: window size %d: %w", t.WindowSize, core.ErrBadTuning)
	}
	if t.Interval < 0 {
		return fmt.Errorf("chen: interval %v: %w", t.Interval, core.ErrBadTuning)
	}
	if t.Interval > 0 && t.Interval != d.interval {
		if d.window.Len() == 0 {
			d.start = d.start.Add(d.interval - t.Interval)
		} else {
			d.window.Shift((d.interval - t.Interval).Seconds() * float64(d.snLast+1))
		}
		d.interval = t.Interval
	}
	if t.WindowSize > 0 {
		d.window.Resize(t.WindowSize)
	}
	return nil
}
