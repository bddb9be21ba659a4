// Package clock abstracts the local clocks of processes so that the same
// detector and service code runs against the wall clock (real deployments,
// internal/transport) and against manually- or simulator-driven virtual
// clocks (internal/sim, tests).
//
// The paper's system model assumes local clocks whose drift relative to
// global time is bounded after GST; Drifting models exactly that bounded
// drift for the simulator.
//
// Every is the one periodic schedule of the daemon's background work.
package clock

import (
	"context"
	"sync"
	"time"
)

// Clock supplies the current local time of a process.
type Clock interface {
	Now() time.Time
}

// Func adapts a plain function to the Clock interface.
type Func func() time.Time

// Now calls f.
func (f Func) Now() time.Time { return f() }

// Wall is the real system clock.
type Wall struct{}

var _ Clock = Wall{}

// Now returns time.Now().
func (Wall) Now() time.Time { return time.Now() }

// Manual is a manually advanced clock for tests and simulations. The zero
// value is usable and starts at the zero time. Manual is safe for
// concurrent use.
type Manual struct {
	mu  sync.Mutex
	now time.Time
}

var _ Clock = (*Manual)(nil)

// NewManual returns a Manual clock starting at the given instant.
func NewManual(start time.Time) *Manual {
	return &Manual{now: start}
}

// Now returns the current manual time.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// Advance moves the clock forward by d and returns the new time. Negative
// durations are ignored: the clock never moves backwards.
func (m *Manual) Advance(d time.Duration) time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	if d > 0 {
		m.now = m.now.Add(d)
	}
	return m.now
}

// Set jumps the clock to t if t is not before the current time.
func (m *Manual) Set(t time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if t.After(m.now) {
		m.now = t
	}
}

// Drifting derives a local clock from a source clock with a constant rate
// multiplier and offset, modelling the bounded-drift local clocks of the
// paper's partially synchronous model (now(t') − now(t) > θ·(t'−t)):
//
//	local(t) = origin + rate·(src(t) − origin) + offset
//
// A rate of 1 and offset of 0 is an exact copy of the source.
type Drifting struct {
	src    Clock
	origin time.Time
	rate   float64
	offset time.Duration
}

var _ Clock = (*Drifting)(nil)

// NewDrifting returns a clock derived from src. origin is the instant at
// which the derived clock reads origin+offset; rate must be positive (the
// model requires strictly advancing clocks).
func NewDrifting(src Clock, origin time.Time, rate float64, offset time.Duration) *Drifting {
	if rate <= 0 {
		rate = 1
	}
	return &Drifting{src: src, origin: origin, rate: rate, offset: offset}
}

// Now returns the drifted local time.
func (d *Drifting) Now() time.Time {
	elapsed := d.src.Now().Sub(d.origin)
	scaled := time.Duration(float64(elapsed) * d.rate)
	return d.origin.Add(scaled).Add(d.offset)
}

// Every calls fn every d on one goroutine until ctx is done, and closes
// the returned channel once the last call has returned. The first call
// comes one d after Every is called; a call in progress when ctx ends
// runs to completion and none starts after it, so a cancel before the
// first tick means no call at all. d must be positive.
func Every(ctx context.Context, d time.Duration, fn func()) <-chan struct{} {
	t := time.NewTicker(d)
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				if ctx.Err() != nil {
					return
				}
				fn()
			}
		}
	}()
	return done
}
