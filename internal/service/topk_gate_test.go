package service_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"accrual/internal/clock"
	"accrual/internal/core"
	"accrual/internal/detectors"
	"accrual/internal/phi"
	"accrual/internal/service"
	"accrual/internal/simple"
)

var gateStart = time.Date(2005, 3, 22, 0, 0, 0, 0, time.UTC)

// pinnedDetector publishes one fixed evaluation snapshot, so a test can
// place a process at an exact z-score. The embedded simple.Detector
// supplies the rest of the core.Detector contract; pinned processes are
// registered, never sent heartbeats.
type pinnedDetector struct {
	*simple.Detector
	snap core.EvalSnapshot
}

func (d *pinnedDetector) EvalSnapshot() core.EvalSnapshot    { return d.snap }
func (d *pinnedDetector) Suspicion(now time.Time) core.Level { return d.snap.Level(now) }

// pinnedMonitor registers one process per snapshot, in the order of
// ids, on a one-shard monitor (so slot order — the walk's order — is
// registration order).
func pinnedMonitor(t *testing.T, clk clock.Clock, ids []string, snaps map[string]core.EvalSnapshot) *service.Monitor {
	t.Helper()
	m := service.NewMonitor(clk, func(id string, at time.Time) core.Detector {
		return &pinnedDetector{Detector: simple.New(at), snap: snaps[id]}
	}, service.WithShardCount(1))
	for _, id := range ids {
		if err := m.Register(id); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// phiAtZ is a φ-normal snapshot whose z-score at now is z (up to one
// rounding): one second elapsed, σ = sigma.
func phiAtZ(now time.Time, z, sigma float64) core.EvalSnapshot {
	return core.EvalSnapshot{
		Kind: core.EvalPhiNormal,
		Ref:  now.Add(-time.Second).UnixNano(),
		P1:   1 - z*sigma,
		P2:   sigma,
	}
}

// topKReference is the exhaustive answer: every level evaluated
// (Monitor.Ranked), most suspected first, equal levels by ascending id.
func topKReference(m *service.Monitor) []service.RankedProcess {
	ranked := m.Ranked()
	slices.Reverse(ranked)
	slices.SortStableFunc(ranked, func(a, b service.RankedProcess) int {
		if a.Level != b.Level {
			if a.Level > b.Level {
				return -1
			}
			return 1
		}
		return strings.Compare(a.ID, b.ID)
	})
	return ranked
}

// checkTopKExhaustive compares TopK with the reference for k in
// {1, 16, n−1, n, n+5}, exactly: ids, levels and order.
func checkTopKExhaustive(t *testing.T, label string, m *service.Monitor) {
	t.Helper()
	want := topKReference(m)
	n := len(want)
	var got []service.RankedProcess
	for _, k := range []int{1, 16, n - 1, n, n + 5} {
		if k < 1 {
			continue
		}
		got = m.TopK(k, got[:0])
		w := want[:min(k, n)]
		if !slices.Equal(got, w) {
			t.Errorf("%s: TopK(%d) of %d differs from the exhaustive ranking", label, k, n)
			for i := 0; i < max(len(got), len(w)); i++ {
				var g, e service.RankedProcess
				if i < len(got) {
					g = got[i]
				}
				if i < len(w) {
					e = w[i]
				}
				if g != e {
					t.Logf("  [%d] got %+v, want %+v", i, g, e)
				}
			}
			return
		}
	}
}

// beatFleet drives every id through the monitor for three seconds on a
// 10 ms clock: each process beats at its own period (50–200 ms, ±20 %
// jitter) from its own start until its own stop time (0.3–3 s), so at
// the end the fleet spreads from just-beaten to seconds silent.
func beatFleet(t *testing.T, m *service.Monitor, clk *clock.Manual, ids []string, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	type sched struct {
		period     time.Duration
		next, stop time.Time
		seq        uint64
	}
	s := make([]sched, len(ids))
	for i := range s {
		s[i].period = time.Duration(50+rng.Intn(151)) * time.Millisecond
		s[i].next = gateStart.Add(time.Duration(rng.Intn(200)) * time.Millisecond)
		s[i].stop = gateStart.Add(time.Duration(300+rng.Intn(2700)) * time.Millisecond)
	}
	for now := clk.Now(); now.Before(gateStart.Add(3 * time.Second)); now = clk.Advance(10 * time.Millisecond) {
		for i, id := range ids {
			p := &s[i]
			if now.Before(p.next) || now.After(p.stop) {
				continue
			}
			p.seq++
			if err := m.Heartbeat(core.Heartbeat{From: id, Seq: p.seq, Arrived: now}); err != nil {
				t.Fatal(err)
			}
			jitter := 0.8 + 0.4*rng.Float64()
			p.next = now.Add(time.Duration(float64(p.period) * jitter))
		}
	}
}

// checkAcrossTime checks the monitor at a spread of instants after the
// fleet stops beating: levels from fresh to far into the series branch.
func checkAcrossTime(t *testing.T, label string, m *service.Monitor, clk *clock.Manual) {
	t.Helper()
	for _, d := range []time.Duration{0, 30 * time.Millisecond, 120 * time.Millisecond, 400 * time.Millisecond, 2 * time.Second, 20 * time.Second} {
		clk.Advance(d)
		checkTopKExhaustive(t, fmt.Sprintf("%s at +%v", label, d), m)
	}
}

func fleetIDs(prefix string, n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("%s-%03d", prefix, i)
	}
	return ids
}

// TestTopKGateMatchesExhaustive holds the gated TopK to the exhaustive
// ranking — every level evaluated, sorted — on fleets where the gate
// arms, fleets built to sit on its edges, and fleets where it must stay
// off.
func TestTopKGateMatchesExhaustive(t *testing.T) {
	t.Run("phi-fleet", func(t *testing.T) {
		for _, shards := range []int{1, 8} {
			clk := clock.NewManual(gateStart)
			f, err := detectors.Factory("phi", 100*time.Millisecond, "default")
			if err != nil {
				t.Fatal(err)
			}
			m := service.NewMonitor(clk, f, service.WithShardCount(shards))
			ids := fleetIDs("phi", 300)
			beatFleet(t, m, clk, ids, int64(shards))
			checkAcrossTime(t, fmt.Sprintf("%d shards", shards), m, clk)
		}
	})

	t.Run("near-ties", func(t *testing.T) {
		// A root at z and a newcomer δ below it, for δ a multiple of the
		// margin, and pairs an ulp apart in μ where float rounding leaves
		// the lower z's level no lower (so the newcomer's smaller id must
		// win the tie): each in both walk orders.
		clk := clock.NewManual(gateStart)
		now := clk.Now()
		check := func(label string, root, nw core.EvalSnapshot) {
			snaps := map[string]core.EvalSnapshot{"b-root": root, "a-new": nw}
			checkTopKExhaustive(t, label+" root first", pinnedMonitor(t, clk, []string{"b-root", "a-new"}, snaps))
			checkTopKExhaustive(t, label+" newcomer first", pinnedMonitor(t, clk, []string{"a-new", "b-root"}, snaps))
		}
		flat := 0
		for _, z := range []float64{-2, -1, 0, 0.5, 3, 7.9999, 8 + 1e-9, 8.001, 40, 1000} {
			for _, sigma := range []float64{0.01, 0.1, 1} {
				root := phiAtZ(now, z, sigma)
				zr, ok := root.ZScore(now)
				if !ok {
					t.Fatalf("z %v: ZScore does not apply to a φ-normal snapshot", z)
				}
				for _, f := range []float64{0, 0.5, 1, 2} {
					check(fmt.Sprintf("z %v σ %v δ %v×margin", z, sigma, f), root, phiAtZ(now, zr-f*service.TopKGateMargin, sigma))
				}
				for i := 0; i < 1024; i++ {
					nw := root
					nw.P1 = math.Nextafter(nw.P1, math.Inf(1))
					zr, _ := root.ZScore(now)
					if zn, _ := nw.ZScore(now); zn < zr && nw.Level(now) >= root.Level(now) {
						check(fmt.Sprintf("z %v σ %v flat pair", z, sigma), root, nw)
						flat++
						break
					}
					root = nw
				}
			}
		}
		if flat < 5 {
			t.Errorf("%d flat pairs found, want at least 5: the ulp near-tie cases test too little", flat)
		}
	})

	t.Run("series-seam", func(t *testing.T) {
		// The root just past z = 8, where LogTail leaves erfc for the
		// asymptotic series, and newcomers just below it.
		clk := clock.NewManual(gateStart)
		now := clk.Now()
		for _, above := range []float64{1e-9, 1e-7, 1e-5} {
			root := phiAtZ(now, 8+above, 1)
			ids := []string{"z-root"}
			snaps := map[string]core.EvalSnapshot{"z-root": root}
			for i, below := range []float64{1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3} {
				id := fmt.Sprintf("a-%d", i)
				ids = append(ids, id)
				snaps[id] = phiAtZ(now, 8-below, 1)
			}
			checkTopKExhaustive(t, fmt.Sprintf("root 8+%g", above), pinnedMonitor(t, clk, ids, snaps))
			slices.Reverse(ids)
			checkTopKExhaustive(t, fmt.Sprintf("root 8+%g reversed", above), pinnedMonitor(t, clk, ids, snaps))
		}
	})

	t.Run("past-ceiling", func(t *testing.T) {
		// Far past the ceiling, levels of distinct z tie in float64 —
		// from z ≈ 1.3e154 on every level is +Inf — so equal levels rank
		// by id, not z, and the gate must stay off. Each pair puts the
		// lower z on the smaller id.
		clk := clock.NewManual(gateStart)
		now := clk.Now()
		at := func(sigma float64) core.EvalSnapshot {
			return core.EvalSnapshot{Kind: core.EvalPhiNormal, Ref: now.Add(-time.Second).UnixNano(), P2: sigma}
		}
		check := func(label string, root, nw core.EvalSnapshot) {
			t.Helper()
			zr, _ := root.ZScore(now)
			zn, _ := nw.ZScore(now)
			if !(zr > service.TopKGateCeiling && zn < zr-service.TopKGateMargin && nw.Level(now) == root.Level(now)) {
				t.Fatalf("%s: z %v and %v at levels %v and %v are not a tie past the ceiling", label, zr, zn, root.Level(now), nw.Level(now))
			}
			snaps := map[string]core.EvalSnapshot{"b-root": root, "a-new": nw}
			checkTopKExhaustive(t, label, pinnedMonitor(t, clk, []string{"b-root", "a-new"}, snaps))
		}
		check("both +Inf", at(1e-200), at(1e-199))
		root := at(1e-15)
		for i := 0; ; i++ {
			nw := root
			nw.P2 = math.Nextafter(nw.P2, 1)
			zr, _ := root.ZScore(now)
			if zn, _ := nw.ZScore(now); zn < zr-service.TopKGateMargin && nw.Level(now) == root.Level(now) {
				check("z 1e15 ulp pair", root, nw)
				break
			}
			if i == 1<<16 {
				t.Fatal("no tied pair near z = 1e15")
			}
			root = nw
		}
	})

	t.Run("clamped-at-zero", func(t *testing.T) {
		// Deep negative z clamps φ to 0, so the whole fleet ties at
		// level 0 and ranks by id — here the opposite of z order. The
		// floor keeps the gate off.
		clk := clock.NewManual(gateStart)
		now := clk.Now()
		ids := fleetIDs("c", 40)
		snaps := map[string]core.EvalSnapshot{}
		for i, id := range ids {
			snaps[id] = phiAtZ(now, -50+float64(i), 0.1)
		}
		slices.Reverse(ids) // walk from the highest z down
		checkTopKExhaustive(t, "all at level 0", pinnedMonitor(t, clk, ids, snaps))
	})

	t.Run("resolution", func(t *testing.T) {
		// ε > 0 quantizes levels into ties that rank by id, not z: the
		// gate stays off. Pinned snapshots make the ties exact; a real
		// φ fleet with ε = 0.5 runs beside them.
		clk := clock.NewManual(gateStart)
		now := clk.Now()
		ids := fleetIDs("q", 40)
		snaps := map[string]core.EvalSnapshot{}
		for i, id := range ids {
			s := phiAtZ(now, 2+float64(i)*0.01, 0.1)
			s.Eps = 0.5
			snaps[id] = s
		}
		slices.Reverse(ids)
		checkTopKExhaustive(t, "pinned ε 0.5", pinnedMonitor(t, clk, ids, snaps))

		clk = clock.NewManual(gateStart)
		m := service.NewMonitor(clk, func(_ string, at time.Time) core.Detector {
			return phi.New(at, phi.WithBootstrap(100*time.Millisecond, 25*time.Millisecond), phi.WithResolution(0.5))
		}, service.WithShardCount(4))
		beatFleet(t, m, clk, fleetIDs("eps", 200), 3)
		checkAcrossTime(t, "φ ε 0.5", m, clk)
	})

	t.Run("unevaluable-members", func(t *testing.T) {
		// Members whose elapsed time is ≤ 0 and EvalZero members, all at
		// level 0, among φ-normal members above the floor.
		clk := clock.NewManual(gateStart)
		now := clk.Now()
		var ids []string
		snaps := map[string]core.EvalSnapshot{}
		for i := 0; i < 30; i++ {
			id := fmt.Sprintf("u-%02d", i)
			ids = append(ids, id)
			switch i % 5 {
			case 0:
				snaps[id] = core.EvalSnapshot{Kind: core.EvalPhiNormal, Ref: now.UnixNano(), P1: 0.1, P2: 0.01}
			case 1:
				snaps[id] = core.EvalSnapshot{Kind: core.EvalPhiNormal, Ref: now.Add(time.Second).UnixNano(), P1: 0.1, P2: 0.01}
			case 2:
				snaps[id] = core.EvalSnapshot{}
			default:
				snaps[id] = phiAtZ(now, float64(i%7)-1, 0.1)
			}
		}
		checkTopKExhaustive(t, "mixed", pinnedMonitor(t, clk, ids, snaps))
		slices.Reverse(ids)
		checkTopKExhaustive(t, "mixed reversed", pinnedMonitor(t, clk, ids, snaps))
	})

	t.Run("mixed-kinds", func(t *testing.T) {
		// One monitor running φ-normal, κ and simple side by side: the
		// gate arms only while the root is φ-normal.
		kinds := map[string]service.Factory{}
		for _, kind := range []string{"phi", "kappa", "simple"} {
			f, err := detectors.Factory(kind, 100*time.Millisecond, "default")
			if err != nil {
				t.Fatal(err)
			}
			kinds[kind] = f
		}
		clk := clock.NewManual(gateStart)
		m := service.NewMonitor(clk, func(id string, at time.Time) core.Detector {
			return kinds[id[:strings.IndexByte(id, '-')]](id, at)
		}, service.WithShardCount(4))
		var ids []string
		for _, kind := range []string{"phi", "kappa", "simple"} {
			ids = append(ids, fleetIDs(kind, 100)...)
		}
		beatFleet(t, m, clk, ids, 11)
		checkAcrossTime(t, "φ/κ/simple", m, clk)
	})

	t.Run("all-equal", func(t *testing.T) {
		// Every member has the same snapshot, so every z equals the
		// root's and the gate never drops anyone: the answer is the
		// smallest ids.
		clk := clock.NewManual(gateStart)
		ids := fleetIDs("e", 50)
		snaps := map[string]core.EvalSnapshot{}
		for _, id := range ids {
			snaps[id] = phiAtZ(clk.Now(), 1.5, 0.1)
		}
		slices.Reverse(ids)
		checkTopKExhaustive(t, "all equal", pinnedMonitor(t, clk, ids, snaps))
	})
}

// TestTopKGateUnderChurn runs the gated TopK while other goroutines
// rebind slots: each step deregisters a live id or registers a resting
// one into a freed slot. Every id is pinned to its
// own φ-normal snapshot on a frozen clock, so every id has exactly one
// level, and a returned row pairing an id with any other level is a
// binding's identity read with another binding's parameters. Run under
// -race it also checks the gate's reads of the published cells.
func TestTopKGateUnderChurn(t *testing.T) {
	clk := clock.NewManual(gateStart)
	now := clk.Now()
	const live, pool = 96, 160
	ids := fleetIDs("r", pool)
	snaps := map[string]core.EvalSnapshot{}
	want := map[string]core.Level{}
	for i, id := range ids {
		// z from −1.5 up in steps of 1/32, interleaved so neighbouring
		// ids are far apart in level.
		snaps[id] = phiAtZ(now, -1.5+float64((i*37)%pool)/32, 0.05)
		want[id] = snaps[id].Level(now)
	}
	m := service.NewMonitor(clk, func(id string, at time.Time) core.Detector {
		return &pinnedDetector{Detector: simple.New(at), snap: snaps[id]}
	}, service.WithShardCount(4))
	for _, id := range ids[:live] {
		if err := m.Register(id); err != nil {
			t.Fatal(err)
		}
	}

	quit := make(chan struct{})
	done := make(chan struct{})
	for w := 0; w < 2; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-quit:
					return
				default:
				}
				// Ids w, w+2, w+4, … belong to this worker, so the two
				// never race on one id. Toggling one id's membership frees
				// a slot or takes the most recently freed one.
				id := ids[w+2*rng.Intn(pool/2)]
				if !m.Deregister(id) {
					_ = m.Register(id)
				}
			}
		}(w)
	}
	var got []service.RankedProcess
	deadline := time.Now().Add(300 * time.Millisecond)
walk:
	for round := 0; time.Now().Before(deadline); round++ {
		for _, k := range []int{1, 16, live} {
			got = m.TopK(k, got[:0])
			for i, r := range got {
				if lvl, ok := want[r.ID]; !ok || r.Level != lvl {
					t.Errorf("round %d TopK(%d)[%d] = %+v: %q's level is %v", round, k, i, r, r.ID, lvl)
					break walk
				}
				if i > 0 && r.Level > got[i-1].Level {
					t.Errorf("round %d TopK(%d): %+v ranked after %+v", round, k, r, got[i-1])
					break walk
				}
			}
		}
	}
	close(quit)
	<-done
	<-done
	checkTopKExhaustive(t, "after churn", m)
}
