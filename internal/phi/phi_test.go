package phi

import (
	"math"
	"testing"
	"time"

	"accrual/internal/core"
	"accrual/internal/stats"
)

var start = time.Date(2005, 3, 22, 0, 0, 0, 0, time.UTC)

const interval = 100 * time.Millisecond

// feedRegular delivers n heartbeats at the nominal interval with optional
// gaussian jitter from a seeded source, returning the last arrival time.
func feedRegular(d *Detector, n int, sigma float64, seed uint64) time.Time {
	rng := stats.NewRand(seed)
	at := start
	for i := 1; i <= n; i++ {
		gap := interval
		if sigma > 0 {
			j := time.Duration(rng.NormFloat64() * sigma * float64(time.Second))
			gap += j
			if gap < time.Millisecond {
				gap = time.Millisecond
			}
		}
		at = at.Add(gap)
		d.Report(core.Heartbeat{From: "p", Seq: uint64(i), Arrived: at})
	}
	return at
}

func TestPhiZeroWithoutData(t *testing.T) {
	d := New(start)
	if got := d.Phi(start.Add(time.Hour)); got != 0 {
		t.Errorf("phi with no samples = %v, want 0", got)
	}
}

func TestPhiZeroRightAfterHeartbeat(t *testing.T) {
	d := New(start)
	last := feedRegular(d, 20, 0.01, 1)
	if got := d.Phi(last); got != 0 {
		t.Errorf("phi at arrival instant = %v, want 0", got)
	}
}

func TestPhiMonotoneInTime(t *testing.T) {
	d := New(start)
	last := feedRegular(d, 50, 0.01, 2)
	prev := -1.0
	for off := time.Duration(0); off < 5*time.Second; off += 13 * time.Millisecond {
		cur := d.Phi(last.Add(off))
		if cur < prev {
			t.Fatalf("phi decreased at +%v: %v < %v", off, cur, prev)
		}
		prev = cur
	}
}

func TestPhiThresholdOneAtExpectedQuantile(t *testing.T) {
	// φ = 1 means P_later = 0.1: the elapsed time at which φ crosses 1
	// should be roughly mean + 1.2816·σ of the inter-arrival estimate.
	d := New(start)
	last := feedRegular(d, 500, 0.02, 3)
	mean := d.IntervalMean().Seconds()
	sd := d.IntervalStdDev().Seconds()
	wantCross := mean + 1.2816*sd
	var cross float64
	for off := 0.0; off < 1; off += 0.0005 {
		if d.Phi(last.Add(time.Duration(off*float64(time.Second)))) >= 1 {
			cross = off
			break
		}
	}
	if cross == 0 {
		t.Fatal("phi never crossed 1")
	}
	if math.Abs(cross-wantCross) > 0.01 {
		t.Errorf("phi=1 at %.4fs, want about %.4fs", cross, wantCross)
	}
}

func TestPhiGrowsWithoutSaturating(t *testing.T) {
	// Far past the crash, φ must keep increasing (no underflow plateau):
	// this is what the log-space tail computation buys us.
	d := New(start)
	last := feedRegular(d, 100, 0.005, 4)
	p1 := d.Phi(last.Add(10 * time.Second))
	p2 := d.Phi(last.Add(20 * time.Second))
	p3 := d.Phi(last.Add(40 * time.Second))
	if !(p1 > 300) {
		t.Errorf("phi at +10s = %v, want far past the float underflow (~308)", p1)
	}
	if !(p2 > p1 && p3 > p2) {
		t.Errorf("phi saturated: %v, %v, %v", p1, p2, p3)
	}
	if math.IsInf(p3, 1) || math.IsNaN(p3) {
		t.Errorf("phi overflowed to %v", p3)
	}
}

func TestPhiExponentialModel(t *testing.T) {
	d := New(start, WithModel(ModelExponential))
	last := feedRegular(d, 100, 0, 5)
	// For an exponential with mean m, phi(t) = (t/m)·log10(e).
	m := d.IntervalMean().Seconds()
	elapsed := 1.0
	want := elapsed / m * math.Log10(math.E)
	got := d.Phi(last.Add(time.Second))
	if math.Abs(got-want) > 0.01*want {
		t.Errorf("exponential phi = %v, want %v", got, want)
	}
}

func TestPhiMinStdDevGuard(t *testing.T) {
	// Perfectly regular heartbeats would give sigma=0 and infinite
	// confidence; the floor keeps phi finite just past the mean.
	d := New(start, WithMinStdDev(10*time.Millisecond))
	last := feedRegular(d, 100, 0, 6)
	got := d.Phi(last.Add(interval + 5*time.Millisecond))
	if math.IsInf(got, 1) {
		t.Error("phi infinite despite min stddev floor")
	}
	if got <= 0 {
		t.Errorf("phi = %v, want > 0 just past the mean", got)
	}
}

func TestPhiBootstrap(t *testing.T) {
	d := New(start, WithBootstrap(interval, interval/4))
	// No heartbeat yet: the detector still produces a sensible phi,
	// ramping with time since start.
	early := d.Phi(start.Add(interval / 2))
	late := d.Phi(start.Add(10 * interval))
	if late <= early {
		t.Errorf("bootstrap phi did not grow: %v -> %v", early, late)
	}
	if d.SampleCount() != 2 {
		t.Errorf("SampleCount = %d, want 2 bootstrap samples", d.SampleCount())
	}
}

func TestPhiStaleHeartbeatsIgnored(t *testing.T) {
	d := New(start)
	feedRegular(d, 10, 0, 7)
	lastBefore, _ := d.LastArrival()
	d.Report(core.Heartbeat{From: "p", Seq: 2, Arrived: lastBefore.Add(time.Hour)})
	lastAfter, _ := d.LastArrival()
	if !lastAfter.Equal(lastBefore) {
		t.Error("stale heartbeat advanced the last arrival")
	}
	if d.LastSeq() != 10 {
		t.Errorf("LastSeq = %d", d.LastSeq())
	}
}

func TestPhiSuspicionQuantised(t *testing.T) {
	d := New(start, WithResolution(0.5))
	last := feedRegular(d, 50, 0.01, 8)
	lvl := d.Suspicion(last.Add(400 * time.Millisecond))
	if r := math.Mod(float64(lvl), 0.5); r != 0 {
		t.Errorf("level %v not a multiple of 0.5", lvl)
	}
}

func TestPhiNegativeElapsed(t *testing.T) {
	d := New(start)
	last := feedRegular(d, 10, 0, 9)
	if got := d.Phi(last.Add(-time.Second)); got != 0 {
		t.Errorf("phi before last arrival = %v, want 0", got)
	}
}

func TestPhiAccruementAfterCrash(t *testing.T) {
	d := New(start)
	last := feedRegular(d, 200, 0.01, 10)
	var history []core.QueryRecord
	for i := 0; i < 2000; i++ {
		at := last.Add(time.Duration(i) * 25 * time.Millisecond)
		history = append(history, core.QueryRecord{At: at, Level: d.Suspicion(at)})
	}
	rep := core.CheckAccruement(history, 20, 0)
	if !rep.Holds {
		t.Fatalf("Accruement violated: %s", rep.Violation)
	}
	ub := core.CheckUpperBound(history, -1)
	if !ub.Holds {
		t.Fatalf("levels must stay finite: %s", ub.Violation)
	}
}

func TestPhiUpperBoundWhileAlive(t *testing.T) {
	// Over a long healthy run with stable jitter, φ stays modest.
	d := New(start)
	rng := stats.NewRand(11)
	at := start
	var maxPhi float64
	for i := 1; i <= 5000; i++ {
		gap := interval + time.Duration(rng.NormFloat64()*0.01*float64(time.Second))
		if gap < time.Millisecond {
			gap = time.Millisecond
		}
		at = at.Add(gap)
		d.Report(core.Heartbeat{From: "p", Seq: uint64(i), Arrived: at})
		if i > 50 {
			if p := d.Phi(at.Add(interval / 2)); p > maxPhi {
				maxPhi = p
			}
		}
	}
	if maxPhi > 12 {
		t.Errorf("max phi while alive = %v, implausibly high", maxPhi)
	}
}

func TestModelString(t *testing.T) {
	if ModelNormal.String() != "normal" || ModelExponential.String() != "exponential" {
		t.Error("model names")
	}
	if Model(9).String() != "model?" {
		t.Error("unknown model name")
	}
}

func TestPhiErlangModel(t *testing.T) {
	d := New(start, WithModel(ModelErlang))
	last := feedRegular(d, 500, 0.02, 12)
	// Moment matching: k ~ mean^2/var = (0.1/0.02)^2 = 25.
	snap := d.EvalSnapshot()
	if snap.Kind != core.EvalPhiErlang {
		t.Fatalf("snapshot kind = %v, want EvalPhiErlang", snap.Kind)
	}
	er := stats.Erlang{K: int(snap.P1), Lambda: snap.P2}
	if er.K < 15 || er.K > 40 {
		t.Errorf("fitted shape k = %d, want ~25", er.K)
	}
	if math.Abs(er.Mean()-0.1) > 0.01 {
		t.Errorf("fitted mean = %v, want ~0.1", er.Mean())
	}
	// Behaves like an accrual level: zero at arrival, growing after.
	if got := d.Phi(last); got != 0 {
		t.Errorf("phi at arrival = %v", got)
	}
	p1 := d.Phi(last.Add(500 * time.Millisecond))
	p2 := d.Phi(last.Add(5 * time.Second))
	if !(p1 > 0 && p2 > p1) {
		t.Errorf("erlang phi not accruing: %v -> %v", p1, p2)
	}
}

func TestPhiErlangShapeClamps(t *testing.T) {
	// Nearly deterministic intervals push k to the cap rather than
	// overflowing.
	d := New(start, WithModel(ModelErlang), WithMinStdDev(time.Microsecond))
	feedRegular(d, 300, 0.00001, 13)
	snap := d.EvalSnapshot()
	if snap.Kind != core.EvalPhiErlang {
		t.Fatal("no estimate")
	}
	if k := int(snap.P1); k != maxErlangShape {
		t.Errorf("k = %d, want cap %d", k, maxErlangShape)
	}
	// Extremely noisy intervals clamp k to 1 (exponential-like).
	d2 := New(start, WithModel(ModelErlang))
	rng := stats.NewRand(14)
	at := start
	for i := 1; i <= 300; i++ {
		gap := time.Duration((0.01 + rng.ExpFloat64()*0.3) * float64(time.Second))
		at = at.Add(gap)
		d2.Report(core.Heartbeat{From: "p", Seq: uint64(i), Arrived: at})
	}
	if k := int(d2.EvalSnapshot().P1); k > 3 {
		t.Errorf("noisy k = %d, want small", k)
	}
}

func TestPhiWindowSizeOption(t *testing.T) {
	d := New(start, WithWindowSize(8))
	feedRegular(d, 100, 0.01, 15)
	if d.SampleCount() != 8 {
		t.Errorf("SampleCount = %d, want 8 (window capped)", d.SampleCount())
	}
	if ModelErlang.String() != "erlang" {
		t.Error("erlang model name")
	}
}

func TestPhiDistDegenerateGuards(t *testing.T) {
	// An exponential/erlang estimate with non-positive mean (possible
	// only with pathological feeds) must not produce a distribution.
	d := New(start, WithModel(ModelExponential))
	d.window.Push(0)
	if d.EvalSnapshot().Kind != core.EvalZero {
		t.Error("zero-mean exponential estimate should be rejected")
	}
	d2 := New(start, WithModel(ModelErlang))
	d2.window.Push(0)
	if d2.EvalSnapshot().Kind != core.EvalZero {
		t.Error("zero-mean erlang estimate should be rejected")
	}
}

func TestPhiAcceptablePause(t *testing.T) {
	plain := New(start)
	tolerant := New(start, WithAcceptablePause(500*time.Millisecond))
	feedRegular(plain, 100, 0.01, 16)
	last := feedRegular(tolerant, 100, 0.01, 16)
	// 300ms past the last heartbeat: the plain detector is alarmed, the
	// tolerant one is still inside its grace period.
	q := last.Add(300 * time.Millisecond)
	if p, tp := plain.Phi(q), tolerant.Phi(q); tp >= p {
		t.Errorf("pause did not reduce phi: plain %v, tolerant %v", p, tp)
	}
	if tp := tolerant.Phi(q); tp > 0.5 {
		t.Errorf("tolerant phi = %v inside the grace period, want near 0", tp)
	}
	// Far past the pause, both accrue.
	if tp := tolerant.Phi(last.Add(5 * time.Second)); tp < 10 {
		t.Errorf("tolerant phi 5s late = %v, must still accrue", tp)
	}
	// Non-positive pauses are ignored.
	d := New(start, WithAcceptablePause(-time.Second))
	if d.acceptablePause != 0 {
		t.Error("negative pause should be ignored")
	}
}

// TestBootstrapSurvivesWindowSize pins Accruement (Property 1) for a
// process that beats once and dies: the bootstrap samples give the
// detector an estimate before a second beat, whatever order the
// bootstrap and window-size options are given in.
func TestBootstrapSurvivesWindowSize(t *testing.T) {
	orders := map[string][]Option{
		"bootstrap,size": {WithBootstrap(interval, interval/4), WithWindowSize(16)},
		"size,bootstrap": {WithWindowSize(16), WithBootstrap(interval, interval/4)},
	}
	var snaps []core.EvalSnapshot
	for name, opts := range orders {
		d := New(start, opts...)
		d.Report(core.Heartbeat{From: "p", Seq: 1, Arrived: start.Add(interval)})
		if n := d.SampleCount(); n != 2 {
			t.Errorf("%s: SampleCount after one beat = %d, want 2 bootstrap samples", name, n)
		}
		if c := d.TuneInfo().WindowSize; c != 16 {
			t.Errorf("%s: window size = %d, want 16", name, c)
		}
		if lvl := d.Suspicion(start.Add(time.Hour)); lvl < 1000 {
			t.Errorf("%s: level an hour after the only beat = %v, want it accrued", name, lvl)
		}
		snaps = append(snaps, d.EvalSnapshot())
	}
	if snaps[0] != snaps[1] {
		t.Errorf("option order changes the estimate: %+v vs %+v", snaps[0], snaps[1])
	}
}
