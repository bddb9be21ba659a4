package service

import (
	"testing"
	"time"

	"accrual/internal/clock"
	"accrual/internal/core"
	"accrual/internal/telemetry"
)

// The detector's sequence guard (seq > sn_last, Algorithm 4) is the only
// one the monitor applies: a beat the detector refuses is counted stale
// and moves neither the level nor the last-arrival stamp digests are
// built from. The tests below pin that on every detector kind.

// infoOf returns id's level and last arrival from one EachInfo walk.
func infoOf(t *testing.T, m *Monitor, id string) (core.Level, time.Time) {
	t.Helper()
	var (
		lvl  core.Level
		last time.Time
		seen bool
	)
	m.EachInfo(func(info ProcessInfo) {
		if info.ID == id {
			lvl, last, seen = info.Level, info.LastArrival, true
		}
	})
	if !seen {
		t.Fatalf("%s not visited", id)
	}
	return lvl, last
}

// feedP sends seqs 1..n from "p", one second apart.
func feedP(t *testing.T, m *Monitor, clk *clock.Manual, n uint64) {
	t.Helper()
	for seq := uint64(1); seq <= n; seq++ {
		if err := m.Heartbeat(hb("p", seq, clk.Advance(time.Second))); err != nil {
			t.Fatal(err)
		}
	}
}

// checkRefused sends beats numbered seqs from "p" at the frozen instant
// clk.Now() and asserts that each one counts stale and that the level
// and the last arrival of "p" stay exactly where they were.
func checkRefused(t *testing.T, m *Monitor, hub *telemetry.Hub, clk *clock.Manual, seqs ...uint64) {
	t.Helper()
	lvl0, last0 := infoOf(t, m, "p")
	stale0 := hub.Counters.Totals().HeartbeatsStale
	for _, seq := range seqs {
		if err := m.Heartbeat(hb("p", seq, clk.Now())); err != nil {
			t.Fatal(err)
		}
	}
	if got := hub.Counters.Totals().HeartbeatsStale - stale0; got != uint64(len(seqs)) {
		t.Errorf("stale = %d, want %d", got, len(seqs))
	}
	lvl, last := infoOf(t, m, "p")
	if lvl != lvl0 {
		t.Errorf("level moved %v -> %v on refused beats", lvl0, lvl)
	}
	if !last.Equal(last0) {
		t.Errorf("last arrival moved %v -> %v on refused beats", last0, last)
	}
}

// TestReplayAfterImportIsStale: a warm-booted monitor keeps the guard,
// because sn_last is part of the restored detector state. Numbers the
// previous life already accepted are stale when replayed.
func TestReplayAfterImportIsStale(t *testing.T) {
	for _, k := range detectorKinds {
		t.Run(k.name, func(t *testing.T) {
			clk := clock.NewManual(start)
			donor := NewMonitor(clk, k.factory)
			feedP(t, donor, clk, 20)
			hub := telemetry.NewHub()
			m := NewMonitor(clk, k.factory, WithTelemetry(hub))
			if _, err := m.ImportState(donor.ExportState()); err != nil {
				t.Fatal(err)
			}
			clk.Advance(3 * time.Second)
			checkRefused(t, m, hub, clk, 20, 7, 1)
		})
	}
}

// TestSeqZeroIsStale: sequence numbers start at 1, so a Seq-0 beat is
// never fresh evidence.
func TestSeqZeroIsStale(t *testing.T) {
	for _, k := range detectorKinds {
		t.Run(k.name, func(t *testing.T) {
			clk := clock.NewManual(start)
			hub := telemetry.NewHub()
			m := NewMonitor(clk, k.factory, WithTelemetry(hub))
			feedP(t, m, clk, 3)
			clk.Advance(2 * time.Second)
			checkRefused(t, m, hub, clk, 0)
		})
	}
}

// TestLateDuplicateKeepsLast: a duplicate delivered after the original
// does not refresh the last arrival, however late it lands.
func TestLateDuplicateKeepsLast(t *testing.T) {
	for _, k := range detectorKinds {
		t.Run(k.name, func(t *testing.T) {
			clk := clock.NewManual(start)
			hub := telemetry.NewHub()
			m := NewMonitor(clk, k.factory, WithTelemetry(hub))
			feedP(t, m, clk, 5)
			clk.Advance(4 * time.Second)
			checkRefused(t, m, hub, clk, 5, 4)
		})
	}
}
