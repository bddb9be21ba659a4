package kappa

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"accrual/internal/core"
	"accrual/internal/stats"
)

// snapAt is a κ snapshot of the hook a with the given estimate, Δ
// before now.
func snapAt(a *snapEval, now time.Time, elapsed, mean, sd time.Duration) core.EvalSnapshot {
	return core.EvalSnapshot{Kind: core.EvalAuxKind, Ref: now.Add(-elapsed).UnixNano(), P1: float64(mean), P2: float64(sd), Aux: a}
}

func TestZScoreDomain(t *testing.T) {
	now := start
	const mean, sd = 100 * time.Millisecond, 5 * time.Millisecond
	plater := newSnapEval(PLater{})
	cases := []struct {
		name    string
		a       *snapEval
		elapsed time.Duration
		eps     core.Level
		want    core.ZFamily
	}{
		{"one term", plater, 80 * time.Millisecond, 0, core.ZNormalCDF},
		{"just before the second term", plater, mean - 1, 0, core.ZNormalCDF},
		{"second heartbeat due", plater, mean, 0, core.ZNone},
		{"saturated", plater, 10 * mean, 0, core.ZNone},
		{"elapsed 0", plater, 0, 0, core.ZNone},
		{"elapsed < 0", plater, -time.Millisecond, 0, core.ZNone},
		{"ε > 0", plater, 80 * time.Millisecond, 0.01, core.ZNone},
		{"step", newSnapEval(Step{Timeout: 50 * time.Millisecond}), 80 * time.Millisecond, 0, core.ZNone},
		{"ramp", newSnapEval(Ramp{End: 150 * time.Millisecond}), 80 * time.Millisecond, 0, core.ZNone},
		{"dist", newSnapEval(DistContribution{Dist: stats.Normal{Mu: 0.1, Sigma: 0.01}, Saturate: time.Second}), 80 * time.Millisecond, 0, core.ZNone},
	}
	for _, c := range cases {
		s := snapAt(c.a, now, c.elapsed, mean, sd)
		s.Eps = c.eps
		z, fam := s.ZScore(now)
		if fam != c.want {
			t.Errorf("%s: family %v, want %v", c.name, fam, c.want)
			continue
		}
		if fam == core.ZNone {
			continue
		}
		if want := (c.elapsed.Seconds() - mean.Seconds()) / sd.Seconds(); math.Abs(z-want) > 1e-12 {
			t.Errorf("%s: z = %v, want %v", c.name, z, want)
		}
		if got, want := s.Level(now), core.Level(stats.Normal{Mu: mean.Seconds(), Sigma: sd.Seconds()}.CDF(c.elapsed.Seconds())); got != want {
			t.Errorf("%s: level %v, want Φ(z) = %v", c.name, got, want)
		}
	}
	// σ below PLater's floor is floored in z as in the level.
	s := snapAt(plater, now, 95*time.Millisecond, mean, 0)
	if z, _ := s.ZScore(now); math.Abs(z-(-5)) > 1e-9 {
		t.Errorf("σ = 0: z = %v, want −5 with σ floored to 1 ms", z)
	}
}

// TestZScoreLevelBounds pins what TopK relies on of κ's level as a
// function of its z (core.ZNormalCDF's bounds) against the float64
// arithmetic it is computed with, math.Erfc included: across the
// margin inside the band the level strictly rises, and at and below the
// zero bound it is exactly 0. A change to either — a new erfc, a
// reordered CDF — fails here rather than misranking TopK.
func TestZScoreLevelBounds(t *testing.T) {
	b := core.ZNormalCDF.Bounds()
	now := start
	a := newSnapEval(PLater{})
	rng := rand.New(rand.NewSource(1))
	// at returns a snapshot whose z is near target: random σ (some below
	// the 1 ms floor) and μ, with Δ rounded to the nanosecond.
	at := func(target float64) (core.EvalSnapshot, time.Duration, time.Duration) {
		sd := time.Duration(math.Exp(rng.Float64()*math.Log(1e7))) * time.Microsecond / 10 // 0.1 µs – 1 s
		sigma := PLater{}.sigma(Estimate{StdDev: sd})
		mean := time.Duration((-target + 1 + rng.Float64()*100) * float64(sigma))
		elapsed := mean + time.Duration(math.Round(target*float64(sigma)))
		return snapAt(a, now, elapsed, mean, sd), elapsed, mean
	}
	zOf := func(s core.EvalSnapshot) float64 {
		z, fam := s.ZScore(now)
		if fam != core.ZNormalCDF {
			t.Fatalf("snapshot %+v: family %v, want ZNormalCDF", s, fam)
		}
		return z
	}

	checked := 0
	for i := 0; i < 20000; i++ {
		target := -40 + rng.Float64()*40
		switch i % 4 {
		case 0: // the floor's edge
			target = -37.05 + rng.Float64()*0.1
		case 1: // just below κ's domain limit, z = 0
			target = -1e-5 - rng.Float64()*1e-3
		}
		root, _, _ := at(target)
		zr := zOf(root)
		lr := root.Level(now)
		if !(lr >= b.Floor && zr <= b.Ceiling) {
			continue
		}
		// The newcomer: another estimate, Δ lowered until its z is just
		// below the root's less the margin, as TopK's cut compares it.
		cut := zr - b.Margin
		nw, elapsed, mean := at(cut)
		for zOf(nw) >= cut {
			elapsed--
			nw = snapAt(a, now, elapsed, mean, time.Duration(nw.P2))
		}
		if ln := nw.Level(now); !(ln < lr) {
			t.Fatalf("z %v → level %v, but z %v (more than the margin below) → level %v", zr, lr, zOf(nw), ln)
		}
		checked++
	}
	if checked < 10000 {
		t.Errorf("only %d pairs inside the band", checked)
	}

	for i := 0; i < 2000; i++ {
		s, _, _ := at(b.Zero - rng.Float64()*60)
		if z := zOf(s); z <= b.Zero && s.Level(now) != 0 {
			t.Fatalf("z %v ≤ %v: level %v, want exactly 0", z, b.Zero, s.Level(now))
		}
	}
	// Exactly at the bound: Δ − μ = −40 s, σ = 1 s.
	s := snapAt(a, now, 60*time.Second, 100*time.Second, time.Second)
	if z := zOf(s); z != b.Zero || s.Level(now) != 0 {
		t.Errorf("at the zero bound: z %v, level %v; want %v and exactly 0", z, s.Level(now), b.Zero)
	}
}
