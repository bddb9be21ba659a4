package stats

import (
	"math"
	"testing"
)

func TestNormalLogTailMatchesDirect(t *testing.T) {
	// In the range where erfc is well conditioned, LogTail must agree
	// with log(Tail).
	n := Normal{Mu: 2, Sigma: 0.5}
	for x := -1.0; x < 5.5; x += 0.1 {
		direct := math.Log(n.Tail(x))
		lt := n.LogTail(x)
		if math.Abs(lt-direct) > 1e-6*math.Max(1, math.Abs(direct)) {
			t.Errorf("LogTail(%v) = %v, log(Tail) = %v", x, lt, direct)
		}
	}
}

func TestNormalLogTailDeepTail(t *testing.T) {
	n := Normal{Mu: 0, Sigma: 1}
	// At z=40, Tail underflows to 0 but LogTail must stay finite and be
	// about -z^2/2 - log(z sqrt(2 pi)) ~ -804.6.
	lt := n.LogTail(40)
	if math.IsInf(lt, 0) || math.IsNaN(lt) {
		t.Fatalf("LogTail(40) = %v, want finite", lt)
	}
	approx := -800.0 - math.Log(40*math.Sqrt(2*math.Pi))
	if math.Abs(lt-approx) > 0.01 {
		t.Errorf("LogTail(40) = %v, want about %v", lt, approx)
	}
	if n.Tail(40) != 0 {
		t.Skipf("Tail(40) did not underflow on this platform")
	}
}

func TestNormalLogTailMonotone(t *testing.T) {
	// LogTail must decrease monotonically, in particular across the
	// switch-over between erfc and the asymptotic expansion (z = 8).
	n := Normal{Mu: 0, Sigma: 1}
	prev := n.LogTail(0)
	for z := 0.05; z < 60; z += 0.05 {
		cur := n.LogTail(z)
		if cur >= prev {
			t.Fatalf("LogTail not decreasing at z=%v: %v >= %v", z, cur, prev)
		}
		prev = cur
	}
	// A coarse grid steps over an inversion narrower than its step, so
	// probe the switch-over itself: every point just below 8 must lie
	// above every point at or just past it. A 3-term series inverts
	// here over about 6.6e-6 in z.
	for _, below := range []float64{1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4} {
		for _, above := range []float64{0, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4} {
			lo, hi := n.LogTail(8-below), n.LogTail(8+above)
			if hi >= lo {
				t.Errorf("LogTail(8+%g) = %.12g >= LogTail(8-%g) = %.12g", above, hi, below, lo)
			}
		}
	}
}

func TestNormalLogTailSwitchoverContinuity(t *testing.T) {
	// The two branches must agree near z=8 to high accuracy.
	n := Normal{Mu: 0, Sigma: 1}
	below := n.LogTail(7.999)
	above := n.LogTail(8.001)
	if math.Abs(below-above) > 0.02 {
		t.Errorf("discontinuity at switchover: %v vs %v", below, above)
	}
}

func TestNormalLogTailDegenerate(t *testing.T) {
	n := Normal{Mu: 5, Sigma: 0}
	if n.LogTail(4) != 0 {
		t.Error("below mu, tail is 1 so log tail is 0")
	}
	if !math.IsInf(n.LogTail(5), -1) {
		t.Error("at/above mu, tail is 0 so log tail is -Inf")
	}
}

func TestExponentialLogTail(t *testing.T) {
	e := Exponential{MeanValue: 2}
	for _, x := range []float64{0, 1, 10, 1e6} {
		want := -x / 2
		if got := e.LogTail(x); !almostEqual(got, want, 1e-12*math.Max(1, math.Abs(want))) {
			t.Errorf("LogTail(%v) = %v, want %v", x, got, want)
		}
	}
	if e.LogTail(-1) != 0 {
		t.Error("negative x has tail 1")
	}
	if !math.IsInf(Exponential{}.LogTail(1), -1) {
		t.Error("zero-mean exponential log tail should be -Inf")
	}
}

func TestErlangLogTailMatchesDirect(t *testing.T) {
	er := Erlang{K: 3, Lambda: 2}
	for x := 0.1; x < 20; x += 0.3 {
		direct := math.Log(er.Tail(x))
		lt := er.LogTail(x)
		if math.Abs(lt-direct) > 1e-9*math.Max(1, math.Abs(direct)) {
			t.Errorf("LogTail(%v) = %v, log(Tail) = %v", x, lt, direct)
		}
	}
}

func TestErlangLogTailDeep(t *testing.T) {
	er := Erlang{K: 4, Lambda: 1}
	lt := er.LogTail(2000)
	if math.IsInf(lt, 0) || math.IsNaN(lt) {
		t.Fatalf("deep Erlang LogTail = %v, want finite", lt)
	}
	// Dominant term is -lambda*x = -2000; the polynomial correction is
	// 3*ln(2000) - ln(3!) ~ 21.
	if lt > -1950 || lt < -2005 {
		t.Errorf("LogTail(2000) = %v, want around -1979", lt)
	}
	if er.LogTail(0) != 0 {
		t.Error("LogTail(0) should be 0")
	}
}

func TestLogTailDispatch(t *testing.T) {
	// Distributions without the fast path fall back to log(Tail).
	u := Uniform{A: 0, B: 2}
	if got, want := LogTail(u, 1), math.Log(0.5); !almostEqual(got, want, 1e-12) {
		t.Errorf("fallback LogTail = %v, want %v", got, want)
	}
	// Fast path dispatches.
	n := Normal{Mu: 0, Sigma: 1}
	if got, want := LogTail(n, 1), n.LogTail(1); got != want {
		t.Errorf("dispatch mismatch: %v vs %v", got, want)
	}
}
