package service

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"accrual/internal/bertier"
	"accrual/internal/chen"
	"accrual/internal/clock"
	"accrual/internal/core"
	"accrual/internal/kappa"
	"accrual/internal/phi"
	"accrual/internal/simple"
)

// detectorKinds builds every level function the module ships, for the
// tests that must hold on all of them (publication here, the zero-alloc
// gates in walk_test.go).
var detectorKinds = []struct {
	name    string
	factory Factory
}{
	{"simple", func(_ string, st time.Time) core.Detector {
		return simple.New(st)
	}},
	{"chen", func(_ string, st time.Time) core.Detector {
		return chen.New(st, time.Second)
	}},
	{"phi-normal", func(_ string, st time.Time) core.Detector {
		return phi.New(st, phi.WithModel(phi.ModelNormal))
	}},
	{"phi-exponential", func(_ string, st time.Time) core.Detector {
		return phi.New(st, phi.WithModel(phi.ModelExponential))
	}},
	{"phi-erlang", func(_ string, st time.Time) core.Detector {
		return phi.New(st, phi.WithModel(phi.ModelErlang))
	}},
	{"kappa", func(_ string, st time.Time) core.Detector {
		return kappa.New(st, kappa.PLater{}, kappa.WithFixedInterval(time.Second))
	}},
	{"bertier", func(_ string, st time.Time) core.Detector {
		return bertier.New(st, time.Second)
	}},
}

// TestPublishedLevelsMatchLocked is the correctness property of the
// eval plane's publication protocol: for every detector kind, the level
// a lock-free walk reads from the seqlock cell must equal the level of
// the detector's own snapshot taken under the entry lock at the same
// frozen instant. (That the snapshot computes the right level is
// core's golden table; this test is about the cell never being stale
// or torn.) The workload is deliberately hostile to stale publication:
// jittered arrivals, 10% heartbeat loss (sequence numbers spent on
// beats that never arrive), deregister/re-register churn, live retunes
// that resize estimation windows mid-stream, and state imports that
// replace detector state wholesale. Every one of those paths must
// republish atomically or the comparison drifts.
func TestPublishedLevelsMatchLocked(t *testing.T) {
	for _, k := range detectorKinds {
		k := k
		t.Run(k.name, func(t *testing.T) {
			clk := clock.NewManual(start)
			m := NewMonitor(clk, k.factory, WithShardCount(8))
			rng := rand.New(rand.NewSource(0xACC2))
			const procs = 32
			seq := make([]uint64, procs)
			var saved MonitorState
			for step := 1; step <= 600; step++ {
				now := clk.Advance(time.Duration(10+rng.Intn(80)) * time.Millisecond)
				p := rng.Intn(procs)
				seq[p]++
				if rng.Float64() < 0.10 {
					continue // lost beat: sequence number spent, arrival never happens
				}
				id := fmt.Sprintf("proc-%02d", p)
				if err := m.Heartbeat(core.Heartbeat{From: id, Seq: seq[p], Arrived: now}); err != nil {
					t.Fatalf("heartbeat %q: %v", id, err)
				}
				if rng.Float64() < 0.03 {
					victim := rng.Intn(procs)
					if m.Deregister(fmt.Sprintf("proc-%02d", victim)) {
						seq[victim] = 0 // re-registration starts a fresh detector
					}
				}
				if rng.Float64() < 0.02 {
					if _, _, err := m.Retune(core.Tuning{WindowSize: 16 + rng.Intn(48)}); err != nil {
						t.Fatalf("retune: %v", err)
					}
				}
				if step%100 == 40 {
					saved = m.ExportState()
				}
				if rng.Float64() < 0.02 {
					// Rolls every exported process back to an older state
					// (and re-registers the ones deregistered since).
					if _, err := m.ImportState(saved); err != nil {
						t.Fatalf("import: %v", err)
					}
				}
				if step%75 == 0 {
					comparePublishedToLocked(t, m, clk.Now())
				}
			}
			// Jump far past the last arrival so the comparison also covers
			// deep-silence evaluation (large elapsed, saturated κ grid).
			clk.Advance(7 * time.Second)
			comparePublishedToLocked(t, m, clk.Now())
		})
	}
}

// comparePublishedToLocked walks the fleet through both walk surfaces
// (the plain pass and the coalesced one) and cross-checks every level
// against the detector's snapshot taken under the entry lock at the
// same instant. The manual clock is frozen for the duration and both
// sides run the same pure function, so the levels must be identical:
// any difference is a stale or torn publication.
func comparePublishedToLocked(t *testing.T, m *Monitor, now time.Time) {
	t.Helper()
	walks := map[string]map[string]core.Level{"EachLevel": {}, "EachInfoShared": {}}
	m.EachLevel(func(id string, lvl core.Level) { walks["EachLevel"][id] = lvl })
	m.EachInfoShared(func(info ProcessInfo) { walks["EachInfoShared"][info.ID] = info.Level })
	checked := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		for id := range sh.procs {
			e, _ := get(sh, id)
			e.mu.Lock()
			want := e.det.EvalSnapshot().Level(now)
			e.mu.Unlock()
			for path, got := range walks {
				lvl, ok := got[id]
				if !ok {
					t.Fatalf("%s missed process %q", path, id)
				}
				if lvl != want {
					t.Fatalf("%s level for %q = %v, locked snapshot = %v", path, id, lvl, want)
				}
			}
			checked++
		}
		sh.mu.RUnlock()
	}
	if checked == 0 {
		t.Fatal("no registered processes to compare")
	}
	for path, got := range walks {
		if len(got) != checked {
			t.Fatalf("%s visited %d processes, registry holds %d", path, len(got), checked)
		}
	}
}
