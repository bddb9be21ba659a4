package telemetry_test

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"accrual/internal/core"
	"accrual/internal/telemetry"
)

// mustQoS builds an estimator set or fails the test — the constructor
// validates thresholds since the autotune PR.
func mustQoS(t *testing.T, high, low core.Level) *telemetry.QoS {
	t.Helper()
	q, err := telemetry.NewQoS(high, low)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestNewQoSRejectsBadThresholds(t *testing.T) {
	tests := []struct {
		name      string
		high, low core.Level
	}{
		{"inverted", 1, 2},
		{"equal", 2, 2},
		{"negative low", 2, -1},
		{"nan high", core.Level(math.NaN()), 1},
		{"nan low", 2, core.Level(math.NaN())},
		{"inf high", core.Level(math.Inf(1)), 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			q, err := telemetry.NewQoS(tt.high, tt.low)
			if !errors.Is(err, telemetry.ErrBadThresholds) {
				t.Errorf("err = %v, want ErrBadThresholds", err)
			}
			if q != nil {
				t.Errorf("q = %v, want nil", q)
			}
		})
	}
}

func TestSetThresholdsValidatesAndRetunesInterpreters(t *testing.T) {
	q := mustQoS(t, 10, 5)
	f := newFleet()
	t0 := time.Date(2005, 3, 22, 0, 0, 0, 0, time.UTC)

	// A level of 7 is below the initial high threshold: trusted.
	f.observe(q, "p", 0, t0)
	f.observe(q, "p", 7, t0.Add(time.Second))
	if est, _ := q.Estimate("p"); est.Status != core.Trusted {
		t.Fatalf("status = %v before retune, want trusted", est.Status)
	}

	// Inverted and negative pairs are rejected and leave the current
	// thresholds in place.
	for _, bad := range [][2]core.Level{{5, 10}, {5, 5}, {5, -1}, {core.Level(math.NaN()), 1}} {
		if err := q.SetThresholds(bad[0], bad[1]); !errors.Is(err, telemetry.ErrBadThresholds) {
			t.Errorf("SetThresholds(%v, %v) err = %v, want ErrBadThresholds", bad[0], bad[1], err)
		}
	}
	if high, low := q.Thresholds(); high != 10 || low != 5 {
		t.Fatalf("thresholds = (%v, %v) after rejected updates, want (10, 5)", high, low)
	}

	// Lowering the thresholds retunes the existing interpreter: the
	// same level 7 now counts as suspected on the next observation.
	if err := q.SetThresholds(6, 3); err != nil {
		t.Fatal(err)
	}
	f.observe(q, "p", 7, t0.Add(2*time.Second))
	if est, _ := q.Estimate("p"); est.Status != core.Suspected {
		t.Fatalf("status = %v after lowering thresholds, want suspected", est.Status)
	}
}

// TestThresholdSwapAtomicWithObserve drives concurrent observations and
// threshold swaps. The levels stay strictly below every low threshold
// used, so no interpreter may ever suspect — a torn (inverted) pair
// read mid-swap is the only way to get a spurious S-transition. Run
// under -race this also proves the swap is properly synchronised.
func TestThresholdSwapAtomicWithObserve(t *testing.T) {
	q := mustQoS(t, 10, 5)
	f := newFleet()
	t0 := time.Date(2005, 3, 22, 0, 0, 0, 0, time.UTC)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		pairs := [][2]core.Level{{10, 5}, {8, 4}, {12, 6}}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p := pairs[i%len(pairs)]
			if err := q.SetThresholds(p[0], p[1]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 5000; i++ {
		f.observe(q, "p", 3, t0.Add(time.Duration(i)*time.Millisecond))
	}
	close(stop)
	wg.Wait()

	est, ok := q.Estimate("p")
	if !ok {
		t.Fatal("estimator lost")
	}
	if est.STransitions != 0 || est.Status != core.Trusted {
		t.Fatalf("spurious transitions: %+v", est)
	}
}

// TestChurnRestartsEstimator is the crash → forget → re-register
// regression test: a process whose slab handle is reused must start a
// fresh estimator rather than inheriting the predecessor's detection
// samples, and the predecessor's T_D must be recorded exactly once.
func TestChurnRestartsEstimator(t *testing.T) {
	q := mustQoS(t, 2, 1)
	f := newFleet()
	t0 := time.Date(2005, 3, 22, 0, 0, 0, 0, time.UTC)

	// Life 1: trusted, crashes, gets suspected, is deregistered.
	f.observe(q, "a", 0, t0)
	q.MarkCrashed("a", t0.Add(500*time.Millisecond))
	f.observe(q, "a", 5, t0.Add(time.Second)) // S-transition past the crash
	f.deregister(q, "a", t0.Add(2*time.Second))

	count, mean, max := q.DetectionStats()
	if count != 1 {
		t.Fatalf("detection count = %d, want 1", count)
	}
	if want := 500 * time.Millisecond; mean != want || max != want {
		t.Fatalf("T_D mean=%v max=%v, want %v", mean, max, want)
	}
	if est, ok := q.Estimate("a"); ok {
		t.Fatalf("deregistered process still estimable: %+v", est)
	}

	// Life 2: same id re-registers. The estimator must be fresh — no
	// inherited samples, transitions or crash mark.
	f.observe(q, "a", 0, t0.Add(3*time.Second))
	est, ok := q.Estimate("a")
	if !ok {
		t.Fatal("no estimator after re-registration")
	}
	if est.Samples != 1 || est.STransitions != 0 || est.Status != core.Suspected && est.Status != core.Trusted {
		t.Fatalf("inherited state: %+v", est)
	}
	if est.Status != core.Trusted {
		t.Fatalf("status = %v, want trusted", est.Status)
	}

	// Life 2 deregisters without a crash: no new detection sample.
	f.deregister(q, "a", t0.Add(4*time.Second))
	if count, _, _ := q.DetectionStats(); count != 1 {
		t.Fatalf("detection count = %d after clean deregistration, want 1", count)
	}
}

func TestAggregateEstimates(t *testing.T) {
	q := mustQoS(t, 2, 1)
	f := newFleet()
	t0 := time.Date(2005, 3, 22, 0, 0, 0, 0, time.UTC)

	agg := q.AggregateEstimates()
	if agg.Procs != 0 || !math.IsNaN(agg.MeanPA) {
		t.Fatalf("empty aggregate = %+v", agg)
	}

	// "good" stays trusted for 10s; "bad" is suspected from t+5s on.
	for i := 0; i <= 10; i++ {
		now := t0.Add(time.Duration(i) * time.Second)
		f.observe(q, "good", 0, now)
		lvl := core.Level(0)
		if i >= 5 {
			lvl = 5
		}
		f.observe(q, "bad", lvl, now)
	}
	agg = q.AggregateEstimates()
	if agg.Procs != 2 || agg.Estimable != 2 {
		t.Fatalf("aggregate = %+v, want 2 estimable procs", agg)
	}
	if agg.Suspected != 1 {
		t.Errorf("suspected = %d, want 1", agg.Suspected)
	}
	// good: PA = 1; bad: trusted 5s of 10s observed = 0.5. Mean 0.75.
	if math.Abs(agg.MeanPA-0.75) > 1e-9 {
		t.Errorf("mean PA = %v, want 0.75", agg.MeanPA)
	}
	if agg.MeanLambdaM <= 0 {
		t.Errorf("mean lambda_M = %v, want > 0", agg.MeanLambdaM)
	}
}
