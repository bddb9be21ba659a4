package autotune_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"accrual/internal/bertier"
	"accrual/internal/chen"
	"accrual/internal/core"
	"accrual/internal/kappa"
	"accrual/internal/phi"
	"accrual/internal/simple"
)

// retunableDetector pairs a constructor with the detector kind name.
type retunableDetector struct {
	name  string
	build func(start time.Time) core.Detector
}

var retunables = []retunableDetector{
	{"simple", func(start time.Time) core.Detector {
		return simple.New(start)
	}},
	{"chen", func(start time.Time) core.Detector {
		return chen.New(start, 100*time.Millisecond, chen.WithWindowSize(64))
	}},
	{"phi", func(start time.Time) core.Detector {
		return phi.New(start, phi.WithWindowSize(64))
	}},
	{"kappa", func(start time.Time) core.Detector {
		return kappa.New(start, kappa.PLater{},
			kappa.WithWindowSize(64), kappa.WithFixedInterval(100*time.Millisecond))
	}},
	{"bertier", func(start time.Time) core.Detector {
		return bertier.New(start, 100*time.Millisecond, bertier.WithWindowSize(64))
	}},
}

// TestRetuneSuspicionContinuity is the property test behind the "a
// retune never loses accrued history" contract: for every detector
// kind, under jittered heartbeat traffic with retunes fired at random
// instants, the suspicion level immediately after a Retune equals the
// level immediately before it within 1e-6. Window growth, lazy window
// shrink, and interval changes must all preserve the accrued level at
// the retune instant.
func TestRetuneSuspicionContinuity(t *testing.T) {
	const (
		trials   = 20
		beats    = 200
		interval = 100 * time.Millisecond
	)
	for _, rd := range retunables {
		t.Run(rd.name, func(t *testing.T) {
			for trial := 0; trial < trials; trial++ {
				rng := rand.New(rand.NewSource(int64(trial)*7919 + 17))
				start := time.Date(2005, 3, 22, 0, 0, 0, 0, time.UTC)
				det := rd.build(start)

				now := start
				var seq uint64
				for b := 0; b < beats; b++ {
					// Jittered arrival, with occasional loss (skipped seq).
					gap := interval + time.Duration(rng.Intn(40)-20)*time.Millisecond
					now = now.Add(gap)
					seq++
					if rng.Float64() < 0.1 {
						continue // lost heartbeat: sequence gap, no Report
					}
					det.Report(core.Heartbeat{From: "p", Seq: seq, Sent: now, Arrived: now})

					if rng.Float64() < 0.15 {
						// Query at a random instant past the arrival, retune,
						// and require the level unchanged at that instant.
						q := now.Add(time.Duration(rng.Intn(300)) * time.Millisecond)
						before := det.Suspicion(q)
						tuning := randomTuning(rng, interval)
						if err := det.Retune(tuning); err != nil {
							t.Fatalf("trial %d beat %d: Retune(%+v): %v", trial, b, tuning, err)
						}
						after := det.Suspicion(q)
						if d := math.Abs(float64(after - before)); d > 1e-6 {
							t.Fatalf("trial %d beat %d: suspicion discontinuity %g after Retune(%+v): before=%v after=%v",
								trial, b, d, tuning, before, after)
						}
					}
				}
			}
		})
	}
}

// randomTuning picks a window resize, an interval change, both, or a
// no-op, in proportions that exercise every code path.
func randomTuning(rng *rand.Rand, base time.Duration) core.Tuning {
	var tn core.Tuning
	switch rng.Intn(4) {
	case 0: // grow or shrink the window
		tn.WindowSize = 8 + rng.Intn(120)
	case 1: // interval change within ±50%
		tn.Interval = base/2 + time.Duration(rng.Int63n(int64(base)))
	case 2: // both at once
		tn.WindowSize = 8 + rng.Intn(120)
		tn.Interval = base/2 + time.Duration(rng.Int63n(int64(base)))
	case 3: // explicit no-op
	}
	return tn
}

// TestRetuneRejectsNegatives confirms every detector wraps
// core.ErrBadTuning for out-of-range tunings and leaves state intact.
func TestRetuneRejectsNegatives(t *testing.T) {
	start := time.Date(2005, 3, 22, 0, 0, 0, 0, time.UTC)
	for _, rd := range retunables {
		t.Run(rd.name, func(t *testing.T) {
			det := rd.build(start)
			for _, bad := range []core.Tuning{
				{WindowSize: -1},
				{Interval: -time.Second},
			} {
				if err := det.Retune(bad); !errors.Is(err, core.ErrBadTuning) {
					t.Errorf("Retune(%+v) = %v, want ErrBadTuning", bad, err)
				}
			}
		})
	}
}
