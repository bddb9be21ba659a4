package service

import (
	"testing"
	"time"

	"accrual/internal/clock"
	"accrual/internal/core"
	"accrual/internal/simple"
	"accrual/internal/telemetry"
)

func newTelemetryMonitor(t *testing.T, opts ...MonitorOption) (*Monitor, *telemetry.Hub, *clock.Manual) {
	t.Helper()
	clk := clock.NewManual(time.Date(2005, 3, 22, 0, 0, 0, 0, time.UTC))
	hub := telemetry.NewHub()
	opts = append([]MonitorOption{WithTelemetry(hub)}, opts...)
	mon := NewMonitor(clk, func(_ string, start time.Time) core.Detector {
		return simple.New(start)
	}, opts...)
	return mon, hub, clk
}

// TestMonitorTelemetryCounters checks every hot-path counter the monitor
// drives: ingest, staleness, queries, and registration churn (explicit
// and automatic).
func TestMonitorTelemetryCounters(t *testing.T) {
	mon, hub, clk := newTelemetryMonitor(t)

	if err := mon.Register("a"); err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq <= 5; seq++ {
		at := clk.Advance(time.Second)
		if err := mon.Heartbeat(core.Heartbeat{From: "a", Seq: uint64(seq), Arrived: at}); err != nil {
			t.Fatal(err)
		}
	}
	// "b" auto-registers on first contact.
	if err := mon.Heartbeat(core.Heartbeat{From: "b", Seq: 1, Arrived: clk.Now()}); err != nil {
		t.Fatal(err)
	}
	// A replayed sequence number is stale but still reaches the detector.
	if err := mon.Heartbeat(core.Heartbeat{From: "a", Seq: 3, Arrived: clk.Now()}); err != nil {
		t.Fatal(err)
	}

	if _, err := mon.Suspicion("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := mon.Suspicion("nope"); err == nil {
		t.Fatal("Suspicion of unknown process succeeded")
	}
	if !mon.Deregister("b") {
		t.Fatal("Deregister(b) = false")
	}

	tot := hub.Counters.Totals()
	want := telemetry.CounterTotals{
		HeartbeatsIngested: 7,
		HeartbeatsStale:    1,
		Queries:            1, // the failed Suspicion must not count
		Registrations:      2,
		Deregistrations:    1,
	}
	if tot != want {
		t.Errorf("totals = %+v, want %+v", tot, want)
	}
}

// TestAppQueriesCounted: each application-side query lands on the query
// counter once.
func TestAppQueriesCounted(t *testing.T) {
	mon, hub, clk := newTelemetryMonitor(t)
	_ = mon.Heartbeat(core.Heartbeat{From: "a", Seq: 1, Arrived: clk.Now()})
	app := mon.NewApp("test", ConstantPolicy(5))
	for i := 0; i < 3; i++ {
		if _, err := app.Status("a"); err != nil {
			t.Fatal(err)
		}
	}
	if q := hub.Counters.Totals().Queries; q != 3 {
		t.Errorf("queries = %d, want 3", q)
	}
}

// TestDeregisterFeedsQoS: the crash → deregister path must finalise a
// detection-time sample in the hub's QoS layer, proving the monitor
// notifies telemetry outside its shard lock without dropping the event.
func TestDeregisterFeedsQoS(t *testing.T) {
	mon, hub, clk := newTelemetryMonitor(t)
	for seq := 1; seq <= 5; seq++ {
		at := clk.Advance(time.Second)
		_ = mon.Heartbeat(core.Heartbeat{From: "a", Seq: uint64(seq), Arrived: at})
		hub.QoS().Sample(mon)
	}
	crashAt := clk.Now()
	hub.QoS().MarkCrashed("a", crashAt)
	// Silence: the simple detector's level climbs past the reference
	// high threshold and the interpreter records an S-transition.
	for i := 0; i < 10; i++ {
		clk.Advance(time.Second)
		hub.QoS().Sample(mon)
	}
	if est, ok := hub.QoS().Estimate("a"); !ok || est.Status != core.Suspected {
		t.Fatalf("estimate before deregister: %+v ok=%v", est, ok)
	}
	if !mon.Deregister("a") {
		t.Fatal("Deregister(a) = false")
	}
	count, mean, _ := hub.QoS().DetectionStats()
	if count != 1 {
		t.Fatalf("detection samples = %d, want 1", count)
	}
	if mean <= 0 || mean > 10*time.Second {
		t.Errorf("T_D = %v, want within (0, 10s]", mean)
	}
	if est, ok := hub.QoS().Estimate("a"); ok {
		t.Errorf("QoS still estimates a deregistered process: %+v", est)
	}
}

// TestWatcherLastPoll and TestRecorderLastTick pin the loop-staleness
// timestamp /v1/metrics exposes for the App and the history: the
// round's clock reading, zero before the first round.
func TestWatcherLastPoll(t *testing.T) {
	mon, _, clk := newTelemetryMonitor(t)
	_ = mon.Heartbeat(core.Heartbeat{From: "a", Seq: 1, Arrived: clk.Now()})
	app := mon.NewApp("w", ConstantPolicy(5))

	ticks := make(chan time.Time)
	r := NewRunner(mon, time.Second, Consumers{Apps: []*App{app}})
	r.tick = ticks
	r.Start()
	defer r.Stop()
	if !r.LastRound().IsZero() {
		t.Error("LastRound non-zero before the first round")
	}
	ticks <- time.Time{}
	deadline := time.Now().Add(3 * time.Second)
	for r.Rounds() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := r.LastRound(); !got.Equal(clk.Now()) {
		t.Errorf("LastRound = %v, want monitor clock %v", got, clk.Now())
	}
}

func TestRecorderLastTick(t *testing.T) {
	mon, _, clk := newTelemetryMonitor(t)
	_ = mon.Heartbeat(core.Heartbeat{From: "a", Seq: 1, Arrived: clk.Now()})
	r := NewRunner(mon, time.Second, Consumers{History: NewRecorder(mon, 8)})
	if !r.LastRound().IsZero() {
		t.Error("LastRound non-zero before the first round")
	}
	clk.Advance(time.Second)
	r.Round()
	if got := r.LastRound(); !got.Equal(clk.Now()) {
		t.Errorf("LastRound = %v, want %v", got, clk.Now())
	}
}
