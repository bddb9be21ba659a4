package service

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"accrual/internal/clock"
	"accrual/internal/core"
	"accrual/internal/telemetry"
)

// The Runner replaced three loops — the App watcher, the recorder runner
// and the QoS sampler — and these tests keep the watcher's names: each
// drives the runner with an App attached, the consumer the watcher loop
// used to serve.

func TestWatcherPollsAndFiresTransitions(t *testing.T) {
	m, clk := newTestMonitor()
	_ = m.Heartbeat(hb("p", 1, clk.Now()))

	var mu sync.Mutex
	var transitions []core.Transition
	app := m.NewApp("app", ConstantPolicy(2),
		WithTransitionHandler(func(_ string, tr core.Transition, _ core.Status) {
			mu.Lock()
			transitions = append(transitions, tr)
			mu.Unlock()
		}))

	r := NewRunner(m, Consumers{Apps: []*App{app}})
	r.Round() // trusted: no transition
	clk.Advance(5 * time.Second)
	r.Round() // level 5 > 2: S-transition
	_ = m.Heartbeat(hb("p", 2, clk.Now()))
	r.Round() // recovered: T-transition

	mu.Lock()
	defer mu.Unlock()
	if len(transitions) != 2 {
		t.Fatalf("transitions = %d, want 2", len(transitions))
	}
	if transitions[0].Kind != core.STransition || transitions[1].Kind != core.TTransition {
		t.Errorf("kinds = %v, %v", transitions[0].Kind, transitions[1].Kind)
	}
	if r.Rounds() != 3 {
		t.Errorf("rounds = %d, want 3", r.Rounds())
	}
}

// TestWatcherRealTicker runs the runner on the daemon's schedule,
// clock.Every, against a real ticker.
func TestWatcherRealTicker(t *testing.T) {
	m, clk := newTestMonitor()
	_ = m.Heartbeat(hb("p", 1, clk.Now()))
	app := m.NewApp("app", ConstantPolicy(1))
	r := NewRunner(m, Consumers{Apps: []*App{app}})
	ctx, cancel := context.WithCancel(context.Background())
	done := clock.Every(ctx, 2*time.Millisecond, r.Round)
	deadline := time.Now().Add(2 * time.Second)
	for r.Rounds() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
	if r.Rounds() < 3 {
		t.Error("runner did not run rounds with a real ticker")
	}
}

// TestRoundFeedsEveryConsumer: one round is one walk (one
// accrual_walk_runs_total), one sample in the history, one QoS
// observation and one App query per process, all at the round's single
// clock reading.
func TestRoundFeedsEveryConsumer(t *testing.T) {
	m, hub, clk := newTelemetryMonitor(t)
	for _, id := range []string{"a", "b", "c"} {
		_ = m.Heartbeat(core.Heartbeat{From: id, Seq: 1, Arrived: clk.Now()})
	}
	rec := NewRecorder(m, 4)
	app := m.NewApp("app", ConstantPolicy(2))
	r := NewRunner(m, Consumers{History: rec, QoS: hub.QoS(), Apps: []*App{app}})
	runs := hub.Walks.Runs.Load()
	queries := hub.Counters.Totals().Queries

	clk.Advance(3 * time.Second)
	r.Round()

	if d := hub.Walks.Runs.Load() - runs; d != 1 {
		t.Errorf("walks per round = %d, want 1", d)
	}
	if d := hub.Counters.Totals().Queries - queries; d != 3 {
		t.Errorf("app queries per round = %d, want 3", d)
	}
	if !r.LastRound().Equal(clk.Now()) {
		t.Errorf("LastRound = %v, want %v", r.LastRound(), clk.Now())
	}
	for _, id := range []string{"a", "b", "c"} {
		h, ok := rec.History(id)
		if !ok || len(h) != 1 || !h[0].At.Equal(clk.Now()) || h[0].Level != 3 {
			t.Errorf("%s: history %v (ok=%v), want one sample of 3 at the round", id, h, ok)
		}
		est, ok := hub.QoS().Estimate(id)
		if !ok || est.Samples != 1 || est.Level != 3 || est.Status != core.Suspected {
			t.Errorf("%s: estimate %+v (ok=%v), want one suspected observation of 3", id, est, ok)
		}
	}
	if got := app.Poll(); len(got) != 3 {
		t.Errorf("App suspects %v after the round, want all three", got)
	}
}

// TestPassSteadyStateZeroAlloc gates the background round at zero
// allocations once every binding has its side state: a 10k-process φ
// monitor with the history, the QoS estimators and an Algorithm-1 App
// attached. The first round builds the per-slot state; every later
// round is one walk writing into it.
func TestPassSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	clk := clock.NewManual(start)
	hub := telemetry.NewHub()
	m := NewMonitor(clk, phiFactory, WithTelemetry(hub))
	registerFleet(t, m, clk, 10_000)
	app := m.NewApp("log", AdaptivePolicy())
	r := NewRunner(m, Consumers{History: NewRecorder(m, 16), QoS: hub.QoS(), Apps: []*App{app}})
	r.Round()
	if allocs := testing.AllocsPerRun(10, func() {
		clk.Advance(100 * time.Millisecond)
		r.Round()
	}); allocs != 0 {
		t.Errorf("%v allocs per steady-state round, want 0", allocs)
	}
}

// TestFirstQoSRoundAllocs gates the QoS estimators' first observation of
// a fleet at the one allocation each binding's estimator costs: no
// per-process interpreter objects, closures or index growth. It counts
// with runtime.MemStats around that one round, because
// testing.AllocsPerRun warms up with an untimed run and would hide it.
func TestFirstQoSRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	const procs = 10_000
	clk := clock.NewManual(start)
	hub := telemetry.NewHub()
	m := NewMonitor(clk, phiFactory, WithTelemetry(hub))
	registerFleet(t, m, clk, procs)
	r := NewRunner(m, Consumers{QoS: hub.QoS()})
	clk.Advance(100 * time.Millisecond)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r.Round()
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / procs
	t.Logf("first QoS round: %.2f allocations, %.0f B per process",
		allocs, float64(after.TotalAlloc-before.TotalAlloc)/procs)
	if allocs > 1.05 {
		t.Errorf("%.2f allocations per process in the first QoS round, want <= 1.05", allocs)
	}
}
