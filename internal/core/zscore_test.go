package core

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// TestZScoreLevelBounds pins what TopK relies on of φ-normal's level as
// a function of its z (ZPhiNormal's bounds) against the float64
// arithmetic it is computed with, math.Erfc and the asymptotic series
// included: across the margin inside the band the level strictly rises,
// and at and below the zero bound it is exactly 0. A change to either —
// a new erfc, a retuned LogTail — fails here rather than misranking
// TopK.
func TestZScoreLevelBounds(t *testing.T) {
	b := ZPhiNormal.Bounds()
	now := time.Date(2005, 3, 22, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(1))
	// at is a φ-normal snapshot one second after its last arrival, with
	// a random σ and μ = 1 − z·σ, so its z is target up to rounding.
	at := func(target float64) EvalSnapshot {
		sigma := math.Exp(rng.Float64()*math.Log(1e4)) / 1e3 // 1 ms – 10 s
		if math.Abs(target) > 1e3 {
			sigma = 1 / math.Abs(target) // keep μ near the elapsed second
		}
		return EvalSnapshot{Kind: EvalPhiNormal, Ref: now.Add(-time.Second).UnixNano(), P1: 1 - target*sigma, P2: sigma}
	}
	zOf := func(s EvalSnapshot) float64 {
		z, fam := s.ZScore(now)
		if fam != ZPhiNormal {
			t.Fatalf("snapshot %+v: family %v, want ZPhiNormal", s, fam)
		}
		return z
	}

	checked := 0
	for i := 0; i < 20000; i++ {
		var target float64
		switch i % 4 {
		case 0: // the floor's edge
			target = -2.01 + rng.Float64()*0.02
		case 1: // the series seam
			target = 8 + (rng.Float64()-0.5)*4e-4
		case 2: // far out, up to the ceiling
			target = math.Exp(rng.Float64() * math.Log(b.Ceiling))
		default:
			target = -9 + rng.Float64()*27
		}
		root := at(target)
		zr, lr := zOf(root), root.Level(now)
		if !(lr >= b.Floor && zr <= b.Ceiling) {
			continue
		}
		// The newcomer: another σ, μ raised until its z is just below
		// the root's less the margin, as TopK's cut compares it.
		cut := zr - b.Margin
		nw := at(cut)
		for step := 1e-17; zOf(nw) >= cut; step *= 2 {
			nw.P1 += step
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
		s := at(b.Zero - rng.Float64()*60)
		if z := zOf(s); z <= b.Zero && s.Level(now) != 0 {
			t.Fatalf("z %v ≤ %v: level %v, want exactly 0", z, b.Zero, s.Level(now))
		}
	}
	// Exactly at the bound: μ = 9.5 s, σ = 1 s.
	s := EvalSnapshot{Kind: EvalPhiNormal, Ref: now.Add(-time.Second).UnixNano(), P1: 1 - b.Zero, P2: 1}
	if z := zOf(s); z != b.Zero || s.Level(now) != 0 {
		t.Errorf("at the zero bound: z %v, level %v; want %v and exactly 0", z, s.Level(now), b.Zero)
	}
}
