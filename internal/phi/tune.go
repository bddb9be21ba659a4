package phi

import (
	"fmt"
	"time"

	"accrual/internal/core"
)

// TuneInfo reports the estimator's tunable state. The φ detector
// estimates the inter-arrival distribution directly, so ArrivalMean and
// ArrivalStdDev come straight from the sample window.
func (d *Detector) TuneInfo() core.TuneInfo {
	info := core.TuneInfo{
		WindowSize: d.window.Cap(),
		WindowLen:  d.window.Len(),
		Accepted:   d.accepted,
		Lost:       d.lost,
	}
	if d.window.Len() >= 1 {
		info.ArrivalMean = time.Duration(d.window.Mean() * float64(time.Second))
	}
	if d.window.Len() >= 2 {
		info.ArrivalStdDev = time.Duration(d.window.StdDev() * float64(time.Second))
	}
	return info
}

// Retune resizes the inter-arrival window. The resize keeps every
// current sample (stats.Window shrinks lazily), so the estimated
// distribution — and hence φ(t) — is unchanged at the retune instant.
// The φ detector has no nominal-interval knob: a non-zero Interval is
// accepted and ignored, since the window adapts to the real interval on
// its own.
func (d *Detector) Retune(t core.Tuning) error {
	if t.WindowSize < 0 {
		return fmt.Errorf("phi: window size %d: %w", t.WindowSize, core.ErrBadTuning)
	}
	if t.Interval < 0 {
		return fmt.Errorf("phi: interval %v: %w", t.Interval, core.ErrBadTuning)
	}
	if t.WindowSize > 0 {
		d.window.Resize(t.WindowSize)
	}
	return nil
}
