package kappa

import (
	"fmt"
	"time"

	"accrual/internal/core"
)

// TuneInfo reports the detector's tunable state. Interval is the fixed
// interval when one is configured (the pending retuned value if an
// update is awaiting an arrival), zero in estimating mode; ArrivalMean
// and ArrivalStdDev always come from the observed sample window.
func (d *Detector) TuneInfo() core.TuneInfo {
	info := core.TuneInfo{
		WindowSize: d.window.Cap(),
		WindowLen:  d.window.Len(),
		Interval:   d.fixed,
		Accepted:   d.accepted,
		Lost:       d.lost,
	}
	if d.pendingFixed >= 0 {
		info.Interval = d.pendingFixed
	}
	if d.window.Len() >= 1 {
		info.ArrivalMean = time.Duration(d.window.Mean() * float64(time.Second))
	}
	if d.window.Len() >= 2 {
		info.ArrivalStdDev = time.Duration(d.window.StdDev() * float64(time.Second))
	}
	return info
}

// Retune resizes the inter-arrival window immediately (lazy shrink, no
// estimate change at the retune instant) and, when the detector runs on
// a fixed interval, stages a new interval to take effect at the next
// accepted heartbeat. The deferral is what preserves continuity: the
// κ level is a sum over the due-time grid base + (j−1)·mean, so moving
// the grid between arrivals would re-price every currently missing
// heartbeat; at an arrival the sum has just collapsed and the new grid
// starts clean. In estimating mode (no fixed interval) a requested
// Interval is ignored — the window already tracks the real one.
func (d *Detector) Retune(t core.Tuning) error {
	if t.WindowSize < 0 {
		return fmt.Errorf("kappa: window size %d: %w", t.WindowSize, core.ErrBadTuning)
	}
	if t.Interval < 0 {
		return fmt.Errorf("kappa: interval %v: %w", t.Interval, core.ErrBadTuning)
	}
	if t.WindowSize > 0 {
		d.window.Resize(t.WindowSize)
	}
	if t.Interval > 0 && d.fixed > 0 && t.Interval != d.fixed {
		d.pendingFixed = t.Interval
	}
	return nil
}
