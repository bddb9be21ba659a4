package service_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"accrual/internal/clock"
	"accrual/internal/core"
	"accrual/internal/detectors"
	"accrual/internal/kappa"
	"accrual/internal/phi"
	"accrual/internal/service"
	"accrual/internal/simple"
	"accrual/internal/stats"
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

// famAux is a test core.EvalAux whose level is its family's function of
// z = (Δ − μ)/σ, with Δ the elapsed seconds, μ = P1 and σ = P2 (both
// seconds): for ZNormalCDF, Normal{μ, σ}.CDF(Δ) as κ's PLater computes
// it, for ZPhiNormal the φ-normal level itself. κ's own snapshots reach
// only z < 0; famAux places a family member anywhere on the z axis. It
// counts its level evaluations.
type famAux struct {
	fam   core.ZFamily
	evals atomic.Int64
}

func (a *famAux) phi(s core.EvalSnapshot) core.EvalSnapshot {
	return core.EvalSnapshot{Kind: core.EvalPhiNormal, Ref: s.Ref, P1: s.P1, P2: s.P2}
}

func (a *famAux) EvalLevel(s core.EvalSnapshot, now time.Time) core.Level {
	a.evals.Add(1)
	if a.fam == core.ZPhiNormal {
		return a.phi(s).Level(now)
	}
	return core.Level(stats.Normal{Mu: s.P1, Sigma: s.P2}.CDF(time.Duration(now.UnixNano() - s.Ref).Seconds()))
}

func (a *famAux) ZScore(s core.EvalSnapshot, now time.Time) (float64, core.ZFamily) {
	if a.fam == core.ZPhiNormal {
		return a.phi(s).ZScore(now)
	}
	return stats.Normal{Mu: s.P1, Sigma: s.P2}.Z(time.Duration(now.UnixNano() - s.Ref).Seconds()), a.fam
}

// auxAtZ is phiAtZ for a famAux member.
func auxAtZ(now time.Time, a *famAux, z, sigma float64) core.EvalSnapshot {
	s := phiAtZ(now, z, sigma)
	s.Kind, s.Aux = core.EvalAuxKind, a
	return s
}

// kappaHook is the evaluation hook of a real κ detector with the given
// contribution; kappaAt pairs it with arbitrary parameters (durations in
// nanoseconds, as the detector publishes them).
func kappaHook(c kappa.Contribution) core.EvalAux {
	return kappa.New(gateStart, c, kappa.WithFixedInterval(time.Second)).EvalSnapshot().Aux
}

func kappaAt(now time.Time, hook core.EvalAux, elapsed, mean, sd time.Duration) core.EvalSnapshot {
	return core.EvalSnapshot{Kind: core.EvalAuxKind, Ref: now.Add(-elapsed).UnixNano(), P1: float64(mean), P2: float64(sd), Aux: hook}
}

// kappaAtZ is a κ snapshot under PLater at z = (Δ − μ)/σ, up to Δ's
// rounding to the nanosecond: μ = 100 s, σ = sigma.
func kappaAtZ(now time.Time, z float64, sigma time.Duration) core.EvalSnapshot {
	mean := 100 * time.Second
	return kappaAt(now, platerHook, mean+time.Duration(math.Round(z*float64(sigma))), mean, sigma)
}

var platerHook = kappaHook(kappa.PLater{})

// checkPair checks a newcomer against a root, in both walk orders, the
// newcomer on the smaller id.
func checkPair(t *testing.T, clk clock.Clock, label string, root, nw core.EvalSnapshot) {
	t.Helper()
	snaps := map[string]core.EvalSnapshot{"b-root": root, "a-new": nw}
	checkTopKExhaustive(t, label+" root first", pinnedMonitor(t, clk, []string{"b-root", "a-new"}, snaps))
	checkTopKExhaustive(t, label+" newcomer first", pinnedMonitor(t, clk, []string{"a-new", "b-root"}, snaps))
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
// 10 ms clock: each process beats at its own period (50–200 ms, ± jitter
// of it) from its own start until its own stop time (0.3–3 s; the end
// for the first alive ids), so at the end the fleet spreads from
// just-beaten to seconds silent.
func beatFleet(t *testing.T, m *service.Monitor, clk *clock.Manual, ids []string, alive int, jitter float64, seed int64) {
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
		if i < alive {
			s[i].stop = gateStart.Add(3 * time.Second)
		}
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
			p.next = now.Add(time.Duration(float64(p.period) * (1 + jitter*(2*rng.Float64()-1))))
		}
	}
}

// checkAcrossTime checks the monitor at a spread of instants after the
// fleet stops beating: levels from fresh to far into the series branch,
// and with fine set, first at 7 ms steps across the first 100 ms, where
// κ's live members go from the zero region through the one-term band.
func checkAcrossTime(t *testing.T, label string, m *service.Monitor, clk *clock.Manual, fine bool) {
	t.Helper()
	if fine {
		for i := 0; i < 15; i++ {
			checkTopKExhaustive(t, fmt.Sprintf("%s at +%v", label, time.Duration(i)*7*time.Millisecond), m)
			clk.Advance(7 * time.Millisecond)
		}
	}
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
	phiB, cdfB := core.ZPhiNormal.Bounds(), core.ZNormalCDF.Bounds()

	for _, kind := range []string{"phi", "kappa"} {
		t.Run(kind+"-fleet", func(t *testing.T) {
			// κ's fleets keep most members beating to the end, so the
			// fine steps see them cross from the zero region through the
			// one-term band while the rest are multi-term. Its jitter-free
			// fleet has σ at PLater's 1 ms floor, as a steady sender's
			// does: members spend most of each period in the zero region.
			alive, fine, jitters := 0, false, []float64{0.2}
			if kind == "kappa" {
				alive, fine, jitters = 270, true, []float64{0.2, 0}
			}
			for _, jitter := range jitters {
				for _, shards := range []int{1, 8} {
					clk := clock.NewManual(gateStart)
					f, err := detectors.Factory(kind, 100*time.Millisecond, "default")
					if err != nil {
						t.Fatal(err)
					}
					m := service.NewMonitor(clk, f, service.WithShardCount(shards))
					beatFleet(t, m, clk, fleetIDs(kind, 300), alive, jitter, int64(shards))
					checkAcrossTime(t, fmt.Sprintf("jitter %v, %d shards", jitter, shards), m, clk, fine)
				}
			}
		})
	}

	t.Run("near-ties", func(t *testing.T) {
		// A root at z and a newcomer δ below it, for δ a multiple of the
		// margin, and pairs an ulp apart in μ where float rounding leaves
		// the lower z's level no lower (so the newcomer's smaller id must
		// win the tie): each in both walk orders. φ-normal members, and
		// members of κ's family: famAux at the band's edges −37 and 5,
		// real κ snapshots inside it.
		clk := clock.NewManual(gateStart)
		now := clk.Now()
		cdf := &famAux{fam: core.ZNormalCDF}
		families := []struct {
			name string
			at   func(z, sigma float64) core.EvalSnapshot
			zs   []float64
		}{
			{"φ", func(z, sigma float64) core.EvalSnapshot { return phiAtZ(now, z, sigma) },
				[]float64{-2, -1, 0, 0.5, 3, 7.9999, 8 + 1e-9, 8.001, 40, 1000}},
			{"Φ", func(z, sigma float64) core.EvalSnapshot { return auxAtZ(now, cdf, z, sigma) },
				[]float64{-37, -36.9999, -20, -1, 0, 3, 4.9999, 5}},
		}
		flat := map[string]int{}
		for _, fam := range families {
			for _, z := range fam.zs {
				for _, sigma := range []float64{0.01, 0.1, 1} {
					root := fam.at(z, sigma)
					zr, f := root.ZScore(now)
					if f == core.ZNone {
						t.Fatalf("%s z %v: ZScore finds no family", fam.name, z)
					}
					for _, d := range []float64{0, 0.5, 1, 2} {
						checkPair(t, clk, fmt.Sprintf("%s z %v σ %v δ %v×margin", fam.name, z, sigma, d), root, fam.at(zr-d*f.Bounds().Margin, sigma))
					}
					for i := 0; i < 1024; i++ {
						nw := root
						nw.P1 = math.Nextafter(nw.P1, math.Inf(1))
						zr, _ := root.ZScore(now)
						if zn, _ := nw.ZScore(now); zn < zr && nw.Level(now) >= root.Level(now) {
							checkPair(t, clk, fmt.Sprintf("%s z %v σ %v flat pair", fam.name, z, sigma), root, nw)
							flat[fam.name]++
							break
						}
						root = nw
					}
				}
			}
		}
		for _, fam := range families {
			if flat[fam.name] < 5 {
				t.Errorf("%s: %d flat pairs found, want at least 5: the ulp near-tie cases test too little", fam.name, flat[fam.name])
			}
		}

		// Real κ: at σ = 1 s the margin is exactly 100 µs of Δ.
		for _, z := range []float64{-37, -20, -1, -0.001} {
			root := kappaAtZ(now, z, time.Second)
			zr, f := root.ZScore(now)
			if f != core.ZNormalCDF {
				t.Fatalf("κ z %v: ZScore family %v, want ZNormalCDF", z, f)
			}
			for _, d := range []float64{0, 0.5, 1, 2} {
				checkPair(t, clk, fmt.Sprintf("κ z %v δ %v×margin", z, d), root, kappaAtZ(now, zr-d*cdfB.Margin, time.Second))
			}
		}
		// Real κ pairs with the same exact z ≈ −8, Δ, μ and σ all scaled
		// by j: the float rounding of their seconds orders the computed z
		// and levels apart.
		found := false
		kappaJ := func(j int) core.EvalSnapshot {
			d := time.Duration(j)
			return kappaAt(now, platerHook, d*300_000_007, d*1_100_000_013, d*100_000_003)
		}
		for j := 1; j < 4096 && !found; j++ {
			a, b := kappaJ(j), kappaJ(j+1)
			za, _ := a.ZScore(now)
			zb, _ := b.ZScore(now)
			if za > zb {
				a, b, za, zb = b, a, zb, za
			}
			if za < zb && a.Level(now) >= b.Level(now) {
				checkPair(t, clk, fmt.Sprintf("κ j %d flat pair", j), b, a)
				found = true
			}
		}
		if !found {
			t.Error("no real κ flat pair near z = −8")
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
		// φ from z ≈ 1.3e154 on is +Inf, Φ from z ≈ 8.3 on is 1 — so
		// equal levels rank by id, not z, and the gate must stay off.
		// Each pair puts the lower z on the smaller id.
		clk := clock.NewManual(gateStart)
		now := clk.Now()
		at := func(sigma float64) core.EvalSnapshot {
			return core.EvalSnapshot{Kind: core.EvalPhiNormal, Ref: now.Add(-time.Second).UnixNano(), P2: sigma}
		}
		check := func(label string, root, nw core.EvalSnapshot) {
			t.Helper()
			zr, f := root.ZScore(now)
			zn, _ := nw.ZScore(now)
			if !(zr > f.Bounds().Ceiling && zn < zr-f.Bounds().Margin && nw.Level(now) == root.Level(now)) {
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
			if zn, _ := nw.ZScore(now); zn < zr-phiB.Margin && nw.Level(now) == root.Level(now) {
				check("z 1e15 ulp pair", root, nw)
				break
			}
			if i == 1<<16 {
				t.Fatal("no tied pair near z = 1e15")
			}
			root = nw
		}
		cdf := &famAux{fam: core.ZNormalCDF}
		check("Φ both 1", auxAtZ(now, cdf, 9, 0.1), auxAtZ(now, cdf, 8.6, 0.1))
	})

	t.Run("clamped-at-zero", func(t *testing.T) {
		// Deep negative z clamps φ and Φ to 0, so the whole fleet ties at
		// level 0 and ranks by id — here the opposite of z order. The
		// floors keep the gate off, past the zero bounds and short of
		// them; each family's zero bound is probed an ulp either side.
		clk := clock.NewManual(gateStart)
		now := clk.Now()
		ids := fleetIDs("c", 40)
		snaps := map[string]core.EvalSnapshot{}
		for i, id := range ids {
			snaps[id] = phiAtZ(now, -50+float64(i), 0.1)
		}
		slices.Reverse(ids) // walk from the highest z down
		checkTopKExhaustive(t, "φ all at level 0", pinnedMonitor(t, clk, ids, snaps))

		ids = fleetIDs("k", 40)
		for i, id := range ids {
			snaps[id] = kappaAtZ(now, -45+float64(i)/4, time.Second)
		}
		slices.Reverse(ids)
		checkTopKExhaustive(t, "κ −45 to −35.25", pinnedMonitor(t, clk, ids, snaps))

		// Below the floors but above the zero bounds: a root whose level
		// is 0 by evaluation, and a newcomer further down that ties it.
		cdf := &famAux{fam: core.ZNormalCDF}
		checkPair(t, clk, "φ 0-level pair", phiAtZ(now, -8.3, 1), phiAtZ(now, -8.4, 1))
		checkPair(t, clk, "κ 0-level pair", kappaAtZ(now, -39.8, time.Second), kappaAtZ(now, -39.9, time.Second))
		checkPair(t, clk, "Φ 0-level pair", auxAtZ(now, cdf, -38.6, 1), auxAtZ(now, cdf, -38.8, 1))

		for _, b := range []struct {
			name string
			at   func(z float64) core.EvalSnapshot
			zero float64
		}{
			{"φ", func(z float64) core.EvalSnapshot { return phiAtZ(now, z, 1) }, phiB.Zero},
			{"Φ", func(z float64) core.EvalSnapshot { return auxAtZ(now, cdf, z, 1) }, cdfB.Zero},
		} {
			ids := []string{"e-above", "d-at", "c-below", "b-up", "a-down"}
			snaps := map[string]core.EvalSnapshot{
				"a-down": b.at(b.zero - 1), "b-up": b.at(b.zero + 1),
				"c-below": b.at(math.Nextafter(b.zero, math.Inf(-1))), "d-at": b.at(b.zero), "e-above": b.at(math.Nextafter(b.zero, 0)),
			}
			for id, s := range snaps {
				if z, _ := s.ZScore(now); id != "b-up" && id != "a-down" && math.Abs(z-b.zero) > 1e-14 {
					t.Fatalf("%s %s: z %v is not within an ulp of the zero bound %v", b.name, id, z, b.zero)
				}
			}
			checkTopKExhaustive(t, b.name+" zero bound", pinnedMonitor(t, clk, ids, snaps))
			slices.Reverse(ids)
			checkTopKExhaustive(t, b.name+" zero bound reversed", pinnedMonitor(t, clk, ids, snaps))
		}
		// The real κ snapshot exactly at −40.
		checkPair(t, clk, "κ at the zero bound", kappaAtZ(now, cdfB.Zero, time.Second), kappaAtZ(now, cdfB.Zero-1e-9, time.Second))
	})

	t.Run("resolution", func(t *testing.T) {
		// ε > 0 quantizes levels into ties that rank by id, not z: the
		// gate stays off. Pinned snapshots make the ties exact; real φ
		// and κ fleets with ε > 0 run beside them.
		clk := clock.NewManual(gateStart)
		now := clk.Now()
		ids := fleetIDs("q", 40)
		snaps := map[string]core.EvalSnapshot{}
		for i, id := range ids {
			s := phiAtZ(now, 2+float64(i)*0.01, 0.1)
			s.Eps = 0.5
			snaps[id] = s
			s = kappaAtZ(now, -2.5+float64(i)*0.0125, time.Second)
			s.Eps = 0.01
			snaps["k"+id] = s
		}
		slices.Reverse(ids)
		checkTopKExhaustive(t, "pinned φ ε 0.5", pinnedMonitor(t, clk, ids, snaps))
		for i := range ids {
			ids[i] = "k" + ids[i]
		}
		checkTopKExhaustive(t, "pinned κ ε 0.01", pinnedMonitor(t, clk, ids, snaps))

		for _, fl := range []struct {
			name string
			f    service.Factory
		}{
			{"φ ε 0.5", func(_ string, at time.Time) core.Detector {
				return phi.New(at, phi.WithBootstrap(100*time.Millisecond, 25*time.Millisecond), phi.WithResolution(0.5))
			}},
			{"κ ε 0.01", func(_ string, at time.Time) core.Detector {
				return kappa.New(at, kappa.PLater{}, kappa.WithFixedInterval(100*time.Millisecond), kappa.WithResolution(0.01))
			}},
		} {
			clk = clock.NewManual(gateStart)
			m := service.NewMonitor(clk, fl.f, service.WithShardCount(4))
			beatFleet(t, m, clk, fleetIDs("eps", 200), 100, 0.2, 3)
			checkAcrossTime(t, fl.name, m, clk, true)
		}
	})

	t.Run("kappa-contributions", func(t *testing.T) {
		// κ under Step, Ramp and DistContribution: the level is not Φ(z)
		// of the estimate, so the gate stays off. Pinned members share
		// one Δ, so their levels tie, but differ in μ and σ, so a z
		// computed from the estimate would order them — lower z on the
		// smaller id. Real fleets under each contribution run beside
		// them.
		clk := clock.NewManual(gateStart)
		now := clk.Now()

		// Under PLater too once a second heartbeat is due: a root at
		// z = 4 (two terms, level 1.5) and a newcomer at z = 3.5 whose
		// five terms sum to 3.9.
		checkPair(t, clk, "PLater multi-term",
			kappaAt(now, platerHook, 200*time.Millisecond, 100*time.Millisecond, 25*time.Millisecond),
			kappaAt(now, platerHook, 45*time.Millisecond, 10*time.Millisecond, 10*time.Millisecond))
		contribs := []struct {
			name string
			c    kappa.Contribution
		}{
			{"step", kappa.Step{Timeout: 50 * time.Millisecond}},
			{"ramp", kappa.Ramp{Start: 0, End: 160 * time.Millisecond}},
			{"dist", kappa.DistContribution{Dist: stats.Normal{Mu: 0.1, Sigma: 0.02}, Saturate: 200 * time.Millisecond}},
		}
		for _, c := range contribs {
			hook := kappaHook(c.c)
			ids := fleetIDs(c.name, 40)
			snaps := map[string]core.EvalSnapshot{}
			for i, id := range ids {
				// z = −(10+i)/(1+0.3i): from −10 up to −3.9.
				mean := time.Duration(90+i) * time.Millisecond
				snaps[id] = kappaAt(now, hook, 80*time.Millisecond, mean, time.Millisecond+time.Duration(i)*300*time.Microsecond)
			}
			slices.Reverse(ids)
			checkTopKExhaustive(t, c.name+" pinned", pinnedMonitor(t, clk, ids, snaps))

			fclk := clock.NewManual(gateStart)
			m := service.NewMonitor(fclk, func(_ string, at time.Time) core.Detector {
				return kappa.New(at, c.c, kappa.WithFixedInterval(100*time.Millisecond))
			}, service.WithShardCount(4))
			beatFleet(t, m, fclk, fleetIDs(c.name, 200), 100, 0.2, 5)
			checkAcrossTime(t, c.name+" fleet", m, fclk, true)
		}
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
		// A root of one family never gates a newcomer of another: a Φ
		// root at z = 3 (level 0.9987) must not drop a φ newcomer at
		// z = 2.5 (level 2.2), nor a φ root at z = −0.5 (level 0.16) a
		// real κ newcomer at z = −0.6 (level 0.27).
		clk := clock.NewManual(gateStart)
		now := clk.Now()
		checkPair(t, clk, "Φ root, φ newcomer", auxAtZ(now, &famAux{fam: core.ZNormalCDF}, 3, 0.1), phiAtZ(now, 2.5, 0.1))
		checkPair(t, clk, "φ root, κ newcomer", phiAtZ(now, -0.5, 0.1), kappaAtZ(now, -0.6, time.Second))

		// One monitor running φ-normal, κ and simple side by side.
		kinds := map[string]service.Factory{}
		for _, kind := range []string{"phi", "kappa", "simple"} {
			f, err := detectors.Factory(kind, 100*time.Millisecond, "default")
			if err != nil {
				t.Fatal(err)
			}
			kinds[kind] = f
		}
		clk = clock.NewManual(gateStart)
		m := service.NewMonitor(clk, func(id string, at time.Time) core.Detector {
			return kinds[id[:strings.IndexByte(id, '-')]](id, at)
		}, service.WithShardCount(4))
		var ids []string
		for _, kind := range []string{"kappa", "phi", "simple"} {
			ids = append(ids, fleetIDs(kind, 100)...)
		}
		beatFleet(t, m, clk, ids, 150, 0.2, 11)
		checkAcrossTime(t, "φ/κ/simple", m, clk, true)
	})

	t.Run("all-equal", func(t *testing.T) {
		// Every member has the same snapshot, so every z equals the
		// root's and the gate never drops anyone: the answer is the
		// smallest ids.
		clk := clock.NewManual(gateStart)
		ids := fleetIDs("e", 50)
		snaps := map[string]core.EvalSnapshot{}
		for i, id := range ids {
			snaps[id] = phiAtZ(clk.Now(), 1.5, 0.1)
			snaps["k"+id] = kappaAtZ(clk.Now(), -1.5, time.Second)
			ids[i] = "k" + id
		}
		slices.Reverse(ids)
		checkTopKExhaustive(t, "κ all equal", pinnedMonitor(t, clk, ids, snaps))
		for i := range ids {
			ids[i] = ids[i][1:]
		}
		checkTopKExhaustive(t, "φ all equal", pinnedMonitor(t, clk, ids, snaps))
	})
}

// TestTopKSkipsEvaluations counts the level evaluations TopK makes on
// members of each family (famAux): none at or below the family's zero
// bound, and, walking a fleet from its highest z down, none beyond the
// first k once the gate is armed. The exhaustive comparison cannot see
// an evaluation skipped or not; this test can.
func TestTopKSkipsEvaluations(t *testing.T) {
	for _, fam := range []core.ZFamily{core.ZPhiNormal, core.ZNormalCDF} {
		clk := clock.NewManual(gateStart)
		now := clk.Now()
		a := &famAux{fam: fam}
		zero := fam.Bounds().Zero
		var below, band []string
		snaps := map[string]core.EvalSnapshot{}
		for i := 0; i < 100; i++ {
			id := fmt.Sprintf("z-%03d", i)
			below = append(below, id)
			snaps[id] = auxAtZ(now, a, zero-float64(i)/4, 0.1)
			id = fmt.Sprintf("b-%03d", i)
			band = append(band, id)
			snaps[id] = auxAtZ(now, a, 3-float64(i)/100, 0.1) // above both floors
		}
		for _, c := range []struct {
			name string
			ids  []string
			want int64
		}{
			{"at or below the zero bound", below, 0},
			{"in the band, highest z first", band, 4},
		} {
			m := pinnedMonitor(t, clk, c.ids, snaps)
			checkTopKExhaustive(t, c.name, m)
			before := a.evals.Load()
			_ = m.TopK(4, nil)
			if got := a.evals.Load() - before; got != c.want {
				t.Errorf("family %d, %s: TopK(4) evaluated %d levels, want %d", fam, c.name, got, c.want)
			}
		}
	}
}

// TestTopKGateUnderChurn runs the gated TopK while other goroutines
// rebind slots: each step deregisters a live id or registers a resting
// one into a freed slot. Every id is pinned to its own φ-normal or κ
// snapshot on a frozen clock, so every id has exactly one level, and a
// returned row pairing an id with any other level is a binding's
// identity read with another binding's parameters. Run under -race it
// also checks the gate's reads of the published cells.
func TestTopKGateUnderChurn(t *testing.T) {
	clk := clock.NewManual(gateStart)
	now := clk.Now()
	const pool = 160
	for _, c := range []struct {
		name string
		at   func(i int) core.EvalSnapshot
	}{
		// z rising from −1.5 in steps of 1/32 for φ, from −45 in steps
		// of 1/4 for κ (through its zero region into its band),
		// interleaved so neighbouring ids are far apart in level.
		{"phi", func(i int) core.EvalSnapshot { return phiAtZ(now, -1.5+float64((i*37)%pool)/32, 0.05) }},
		{"kappa", func(i int) core.EvalSnapshot { return kappaAtZ(now, -45+float64((i*37)%pool)/4, time.Second) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			snaps := map[string]core.EvalSnapshot{}
			for i, id := range fleetIDs("r", pool) {
				snaps[id] = c.at(i)
			}
			churnTopK(t, clk, snaps)
		})
	}
}

// churnTopK runs TopK against two churning goroutines over the pinned
// fleet snaps, ids fleetIDs("r", 160).
func churnTopK(t *testing.T, clk clock.Clock, snaps map[string]core.EvalSnapshot) {
	const live, pool = 96, 160
	ids := fleetIDs("r", pool)
	want := map[string]core.Level{}
	for _, id := range ids {
		want[id] = snaps[id].Level(clk.Now())
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
