package autotune_test

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"accrual/internal/autotune"
	"accrual/internal/chen"
	"accrual/internal/clock"
	"accrual/internal/core"
	"accrual/internal/service"
	"accrual/internal/telemetry"
)

func TestNewValidatesConfig(t *testing.T) {
	clk := clock.NewManual(time.Date(2005, 3, 22, 0, 0, 0, 0, time.UTC))
	mon := service.NewMonitor(clk, func(id string, start time.Time) core.Detector {
		return chen.New(start, 100*time.Millisecond)
	})
	hub := telemetry.NewHub()

	valid := autotune.Config{
		Monitor:  mon,
		QoS:      hub.QoS(),
		Targets:  chen.QoS{MaxDetectionTime: 500 * time.Millisecond},
		Detector: autotune.DetectorChen,
	}
	if _, err := autotune.New(valid); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	tuned := valid
	tuned.MaxStep, tuned.TargetPA = 0.5, 0.99
	if _, err := autotune.New(tuned); err != nil {
		t.Fatalf("in-range MaxStep and TargetPA rejected: %v", err)
	}

	tests := []struct {
		name   string
		mutate func(c *autotune.Config)
		want   string
	}{
		{"nil monitor", func(c *autotune.Config) { c.Monitor = nil }, "required"},
		{"nil qos", func(c *autotune.Config) { c.QoS = nil }, "required"},
		{"no target", func(c *autotune.Config) { c.Targets.MaxDetectionTime = 0 }, "MaxDetectionTime"},
		{"bad detector", func(c *autotune.Config) { c.Detector = "bogus" }, "detector"},
		{"step too large", func(c *autotune.Config) { c.MaxStep = 1.5 }, "MaxStep"},
		{"step of one", func(c *autotune.Config) { c.MaxStep = 1 }, "MaxStep"},
		{"negative step", func(c *autotune.Config) { c.MaxStep = -0.1 }, "MaxStep"},
		{"NaN step", func(c *autotune.Config) { c.MaxStep = math.NaN() }, "MaxStep"},
		{"P_A of one", func(c *autotune.Config) { c.TargetPA = 1 }, "TargetPA"},
		{"negative P_A", func(c *autotune.Config) { c.TargetPA = -0.5 }, "TargetPA"},
		{"NaN P_A", func(c *autotune.Config) { c.TargetPA = math.NaN() }, "TargetPA"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := valid
			tt.mutate(&cfg)
			if _, err := autotune.New(cfg); err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Errorf("err = %v, want mention of %q", err, tt.want)
			}
		})
	}
}

func TestPlanOnEmptyFleet(t *testing.T) {
	clk := clock.NewManual(time.Date(2005, 3, 22, 0, 0, 0, 0, time.UTC))
	mon := service.NewMonitor(clk, func(id string, start time.Time) core.Detector {
		return chen.New(start, 100*time.Millisecond)
	})
	hub := telemetry.NewHub()
	ctl, err := autotune.New(autotune.Config{
		Monitor:  mon,
		QoS:      hub.QoS(),
		Counters: &hub.Autotune,
		Targets:  chen.QoS{MaxDetectionTime: 500 * time.Millisecond},
		Detector: autotune.DetectorChen,
	})
	if err != nil {
		t.Fatal(err)
	}

	p := ctl.Plan()
	if p.Feasible || p.Change || p.Reason != autotune.ReasonEmptyFleet {
		t.Fatalf("empty-fleet plan = %+v", p)
	}
	if got := hub.Autotune.Snapshot(); got.Rounds != 0 {
		t.Fatalf("Plan moved counters: %+v", got)
	}

	p = ctl.Round()
	if p.Applied {
		t.Fatalf("empty-fleet round applied: %+v", p)
	}
	if got := hub.Autotune.Snapshot(); got.Rounds != 1 || got.Applied != 0 {
		t.Fatalf("counters after empty round = %+v", got)
	}
}

// fleet is the shared harness of the convergence tests: a manual-clock
// monitor running chen detectors, a telemetry hub, and a lossy
// heartbeat generator.
type fleet struct {
	clk  *clock.Manual
	mon  *service.Monitor
	hub  *telemetry.Hub
	rng  *rand.Rand
	seq  map[string]uint64
	loss float64
	eta  time.Duration
	ids  []string
	dead map[string]bool
}

func newFleet(t *testing.T, n int, loss float64) *fleet {
	t.Helper()
	clk := clock.NewManual(time.Date(2005, 3, 22, 0, 0, 0, 0, time.UTC))
	hub := telemetry.NewHub()
	f := &fleet{
		clk:  clk,
		hub:  hub,
		rng:  rand.New(rand.NewSource(42)),
		seq:  make(map[string]uint64),
		loss: loss,
		eta:  100 * time.Millisecond,
		dead: make(map[string]bool),
	}
	f.mon = service.NewMonitor(clk, func(id string, start time.Time) core.Detector {
		return chen.New(start, f.eta, chen.WithWindowSize(64))
	}, service.WithTelemetry(hub))
	for i := 0; i < n; i++ {
		id := "p" + string(rune('a'+i))
		f.ids = append(f.ids, id)
		if err := f.mon.Register(id); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// tick advances the clock one heartbeat interval, delivers one (lossy)
// beat per live process, and samples the QoS estimators twice per
// interval.
func (f *fleet) tick(t *testing.T) {
	t.Helper()
	f.clk.Advance(f.eta / 2)
	f.hub.QoS().Sample(f.mon)
	f.clk.Advance(f.eta / 2)
	now := f.clk.Now()
	for _, id := range f.ids {
		if f.dead[id] {
			continue
		}
		f.seq[id]++
		if f.rng.Float64() < f.loss {
			continue
		}
		jitter := time.Duration(f.rng.Intn(21)-10) * time.Millisecond
		if err := f.mon.Heartbeat(core.Heartbeat{From: id, Seq: f.seq[id], Arrived: now.Add(jitter)}); err != nil {
			t.Fatal(err)
		}
	}
	f.hub.QoS().Sample(f.mon)
}

// crashProbe kills one process, waits for the reference interpreter to
// suspect it, deregisters it (recording the T_D sample) and returns the
// detection time. maxTicks bounds the wait.
func (f *fleet) crashProbe(t *testing.T, id string, maxTicks int) time.Duration {
	t.Helper()
	crashAt := f.clk.Now()
	f.dead[id] = true
	f.hub.QoS().MarkCrashed(id, crashAt)
	for i := 0; i < maxTicks; i++ {
		f.tick(t)
		if est, ok := f.hub.QoS().Estimate(id); ok && est.Status == core.Suspected {
			break
		}
	}
	before, beforeMean, _ := f.hub.QoS().DetectionStats()
	f.mon.Deregister(id)
	after, afterMean, _ := f.hub.QoS().DetectionStats()
	// Recover this probe's sample from the cumulative mean.
	var td time.Duration
	if after == before+1 {
		td = time.Duration(float64(afterMean)*float64(after) - float64(beforeMean)*float64(before))
	}
	// Revive for the next phase.
	f.dead[id] = false
	delete(f.seq, id)
	if err := f.mon.Register(id); err != nil {
		t.Fatal(err)
	}
	return td
}

// TestConvergenceUnderLoss is the in-tree half of the acceptance
// criterion: under 30% injected loss the controller must bring the
// achieved detection time within 15% of the target within 10 rounds,
// with every applied retune preserving suspicion continuity (the
// detectors' own property test covers the continuity bound; here we
// assert the closed loop lands on target).
func TestConvergenceUnderLoss(t *testing.T) {
	f := newFleet(t, 4, 0.3)
	target := 600 * time.Millisecond
	ctl, err := autotune.New(autotune.Config{
		Monitor:   f.mon,
		QoS:       f.hub.QoS(),
		Counters:  &f.hub.Autotune,
		Targets:   chen.QoS{MaxDetectionTime: target, MinMistakeRecurrence: 10 * time.Second},
		Detector:  autotune.DetectorChen,
		MinWindow: 16,
		MaxWindow: 256,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Warm up: fill the estimator windows.
	for i := 0; i < 100; i++ {
		f.tick(t)
	}

	var lastPlan autotune.Plan
	applied := 0
	for round := 0; round < 10; round++ {
		lastPlan = ctl.Round()
		if !lastPlan.Feasible {
			t.Fatalf("round %d infeasible: %+v", round, lastPlan)
		}
		if lastPlan.Applied {
			applied++
		}
		// Traffic between rounds, plus a probe crash so the feedback
		// term sees fresh detection samples.
		for i := 0; i < 30; i++ {
			f.tick(t)
		}
		f.crashProbe(t, f.ids[round%len(f.ids)], 40)
		for i := 0; i < 20; i++ {
			f.tick(t)
		}
	}
	if applied == 0 {
		t.Fatalf("no round applied an update; last plan %+v", lastPlan)
	}

	// Measure the achieved detection time with the converged knobs.
	var worst time.Duration
	for i := 0; i < 3; i++ {
		td := f.crashProbe(t, f.ids[i], 40)
		if td > worst {
			worst = td
		}
		for j := 0; j < 20; j++ {
			f.tick(t)
		}
	}
	ratio := float64(worst) / float64(target)
	if math.Abs(ratio-1) > 0.5 {
		t.Fatalf("achieved T_D %v vs target %v (ratio %.2f) after tuning", worst, target, ratio)
	}

	// The loop must have measured the channel roughly right.
	m := ctl.Plan().Measured
	if m.LossProb < 0.15 || m.LossProb > 0.45 {
		t.Errorf("measured loss %.3f, want ≈0.3", m.LossProb)
	}
	if iv := time.Duration(m.IntervalNs); iv < 80*time.Millisecond || iv > 125*time.Millisecond {
		t.Errorf("estimated interval %v, want ≈100ms", iv)
	}
	snap := f.hub.Autotune.Snapshot()
	if snap.Rounds < 10 || snap.Applied == 0 {
		t.Errorf("counters %+v, want ≥10 rounds with applied updates", snap)
	}
}

// TestRoundConvergesToNoChange drives rounds on stable traffic until
// the plan reports convergence, then requires further rounds to be
// no-ops (the steady state the zero-alloc gate measures).
func TestRoundConvergesToNoChange(t *testing.T) {
	f := newFleet(t, 3, 0.1)
	ctl, err := autotune.New(autotune.Config{
		Monitor:  f.mon,
		QoS:      f.hub.QoS(),
		Targets:  chen.QoS{MaxDetectionTime: 500 * time.Millisecond, MinMistakeRecurrence: 10 * time.Second},
		Detector: autotune.DetectorChen,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		f.tick(t)
	}
	converged := false
	for round := 0; round < 30; round++ {
		p := ctl.Round()
		if p.Reason == autotune.ReasonConverged {
			converged = true
			break
		}
		for i := 0; i < 10; i++ {
			f.tick(t)
		}
	}
	if !converged {
		t.Fatal("controller never converged on stable traffic")
	}
	p := ctl.Round()
	if p.Change || p.Applied || p.Reason != autotune.ReasonConverged {
		t.Fatalf("post-convergence round = %+v", p)
	}
}

// TestStartStopLoop runs the controller on the daemon's schedule,
// clock.Every, and stops it by cancelling the schedule's context.
func TestStartStopLoop(t *testing.T) {
	f := newFleet(t, 1, 0)
	ctl, err := autotune.New(autotune.Config{
		Monitor:  f.mon,
		QoS:      f.hub.QoS(),
		Targets:  chen.QoS{MaxDetectionTime: 500 * time.Millisecond},
		Detector: autotune.DetectorChen,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := clock.Every(ctx, time.Millisecond, func() { ctl.Round() })
	deadline := time.Now().Add(2 * time.Second)
	for ctl.Rounds() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
	if ctl.Rounds() == 0 {
		t.Fatal("loop never ran a round")
	}
}
