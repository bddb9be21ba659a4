package telemetry_test

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"accrual/internal/clock"
	"accrual/internal/core"
	"accrual/internal/qos"
	"accrual/internal/service"
	"accrual/internal/simple"
	"accrual/internal/telemetry"
	"accrual/internal/trace"
	"accrual/internal/transform"
)

var qosStart = time.Date(2005, 3, 22, 0, 0, 0, 0, time.UTC)

// TestOnlineMatchesOffline drives the online estimator and the offline
// internal/qos pipeline with the identical sampled level trace and
// requires the accuracy metrics to agree (the acceptance bound is 10%;
// streaming the same integer arithmetic should land far inside it).
func TestOnlineMatchesOffline(t *testing.T) {
	const (
		high, low = 2, 1
		step      = 50 * time.Millisecond
		steps     = 20_000 // 1000 seconds of observation
	)
	q := mustQoS(t, high, low)

	// The offline replica: the same Algorithm 3 interpreter over the
	// same sampled levels, recorded as a transition trace.
	var lvl core.Level
	hyst := transform.NewHysteresis(func(time.Time) core.Level { return lvl }, high, low)
	obs := trace.NewStatusObserver(core.Trusted)

	rnd := rand.New(rand.NewSource(7))
	now := qosStart
	for i := 0; i < steps; i++ {
		lvl = core.Level(rnd.Float64() * 3) // crosses both thresholds regularly
		q.Observe("p", lvl, now)
		obs.Observe(now, hyst.Query(now))
		now = now.Add(step)
	}
	end := now.Add(-step) // last observation time

	rep, err := qos.Evaluate(qos.Input{
		Transitions: obs.Transitions(),
		Start:       qosStart,
		End:         end,
	})
	if err != nil {
		t.Fatal(err)
	}
	est, ok := q.Estimate("p")
	if !ok {
		t.Fatal("no online estimate for p")
	}

	if est.STransitions != rep.STransitions || est.TTransitions != rep.TTransitions {
		t.Errorf("transitions online S=%d T=%d, offline S=%d T=%d",
			est.STransitions, est.TTransitions, rep.STransitions, rep.TTransitions)
	}
	if est.STransitions < 100 {
		t.Fatalf("trace too tame: only %d S-transitions", est.STransitions)
	}
	within := func(name string, got, want float64) {
		t.Helper()
		if want == 0 {
			t.Fatalf("%s: offline value is 0, trace not exercising the metric", name)
		}
		if rel := math.Abs(got-want) / math.Abs(want); rel > 0.10 {
			t.Errorf("%s: online %v vs offline %v (rel err %.4f > 10%%)", name, got, want, rel)
		}
	}
	within("lambda_m", est.LambdaM, rep.LambdaM)
	within("pa", est.PA, rep.PA)
	within("t_mr", est.TMR, rep.MeanMistakeRecurrence().Seconds())
	within("t_m", est.TM, rep.MeanMistakeDuration().Seconds())
	within("t_g", est.TG, rep.MeanGoodPeriod().Seconds())
	if est.Observed != end.Sub(qosStart) {
		t.Errorf("observed window = %v, want %v", est.Observed, end.Sub(qosStart))
	}
}

// TestFreshProcessNaN: before any time accrues or any duration sample
// exists, the estimates are NaN — the "not yet estimable" convention the
// exposition renders verbatim.
func TestFreshProcessNaN(t *testing.T) {
	q := mustQoS(t, 2, 1)
	q.Observe("p", 0, qosStart)
	est, ok := q.Estimate("p")
	if !ok {
		t.Fatal("no estimate")
	}
	for name, v := range map[string]float64{
		"lambda_m": est.LambdaM, "pa": est.PA, "t_mr": est.TMR, "t_m": est.TM, "t_g": est.TG,
	} {
		if !math.IsNaN(v) {
			t.Errorf("%s = %v, want NaN on a fresh process", name, v)
		}
	}
	if _, ok := q.Estimate("ghost"); ok {
		t.Error("estimate for an unobserved process")
	}
}

// TestDetectionTimeSample walks a crash through the estimator: mark the
// crash, let the reference interpreter suspect the process, deregister —
// the T_D sample must span crash → final S-transition.
func TestDetectionTimeSample(t *testing.T) {
	q := mustQoS(t, 2, 1)
	now := qosStart
	for i := 0; i < 10; i++ {
		q.Observe("p", 0.1, now)
		now = now.Add(time.Second)
	}
	crashAt := now
	if !q.MarkCrashed("p", crashAt) {
		t.Fatal("MarkCrashed on a tracked process returned false")
	}
	// The level climbs past the high threshold 3 seconds after the crash.
	q.Observe("p", 0.5, now.Add(time.Second))
	q.Observe("p", 5, now.Add(3*time.Second))
	q.Forget("p", now.Add(5*time.Second))

	count, mean, max := q.DetectionStats()
	if count != 1 {
		t.Fatalf("detection samples = %d, want 1", count)
	}
	if want := 3 * time.Second; mean != want || max != want {
		t.Errorf("T_D mean=%v max=%v, want %v", mean, max, want)
	}
	if q.Len() != 0 {
		t.Errorf("estimator state not dropped: %d procs", q.Len())
	}

	// Accuracy accounting stopped at the crash: the post-crash suspected
	// stretch must not count against P_A.
	if est, ok := q.Estimate("p"); ok {
		t.Fatalf("forgotten process still estimable: %+v", est)
	}
}

// TestDetectionRequiresCrashAndSuspicion: deregistering without a crash
// mark, or crashed-but-never-suspected, records nothing.
func TestDetectionRequiresCrashAndSuspicion(t *testing.T) {
	q := mustQoS(t, 2, 1)
	q.Observe("alive", 0.1, qosStart)
	q.Observe("alive", 5, qosStart.Add(time.Second)) // suspected, but no crash mark
	q.Forget("alive", qosStart.Add(2*time.Second))

	q.Observe("quiet", 0.1, qosStart)
	q.MarkCrashed("quiet", qosStart.Add(time.Second))
	q.Forget("quiet", qosStart.Add(2*time.Second)) // never suspected

	if count, _, _ := q.DetectionStats(); count != 0 {
		t.Errorf("detection samples = %d, want 0", count)
	}
	if q.MarkCrashed("ghost", qosStart) {
		t.Error("MarkCrashed on an unknown process returned true")
	}
}

// TestCrashFreezesAccuracyWindow: P_A and λ_M stop moving at the crash
// mark even as observations continue.
func TestCrashFreezesAccuracyWindow(t *testing.T) {
	q := mustQoS(t, 2, 1)
	now := qosStart
	for i := 0; i < 20; i++ {
		q.Observe("p", 0.1, now)
		now = now.Add(time.Second)
	}
	q.Observe("p", 0.1, now) // last in-window observation, at the crash instant
	q.MarkCrashed("p", now)
	before, _ := q.Estimate("p")
	for i := 1; i <= 20; i++ {
		q.Observe("p", 5, now.Add(time.Duration(i)*time.Second))
	}
	after, _ := q.Estimate("p")
	if before.PA != after.PA || before.Observed != after.Observed {
		t.Errorf("accuracy window moved after crash: before %+v after %+v", before, after)
	}
	if after.Status != core.Suspected {
		t.Errorf("status = %v, want suspected after the level spike", after.Status)
	}
}

// TestSampleFromMonitor exercises the LevelSource path against a real
// sharded Monitor under a manual clock.
func TestSampleFromMonitor(t *testing.T) {
	clk := clock.NewManual(qosStart)
	mon := service.NewMonitor(clk, func(_ string, start time.Time) core.Detector {
		return simple.New(start)
	})
	q := mustQoS(t, 2, 1)
	for seq := 1; seq <= 5; seq++ {
		at := clk.Advance(time.Second)
		_ = mon.Heartbeat(core.Heartbeat{From: "a", Seq: uint64(seq), Arrived: at})
		_ = mon.Heartbeat(core.Heartbeat{From: "b", Seq: uint64(seq), Arrived: at})
		q.Sample(mon)
	}
	// Stop b's heartbeats; the simple detector's level grows linearly and
	// the reference interpreter eventually suspects it.
	for i := 0; i < 10; i++ {
		at := clk.Advance(time.Second)
		_ = mon.Heartbeat(core.Heartbeat{From: "a", Seq: uint64(6 + i), Arrived: at})
		q.Sample(mon)
	}
	ests := q.Estimates()
	if len(ests) != 2 || ests[0].ID != "a" || ests[1].ID != "b" {
		t.Fatalf("estimates = %+v", ests)
	}
	if ests[0].Status != core.Trusted {
		t.Errorf("a: status %v, want trusted while heartbeating", ests[0].Status)
	}
	if ests[1].Status != core.Suspected {
		t.Errorf("b: status %v, want suspected after silence", ests[1].Status)
	}
	if pa := ests[0].PA; !(pa > 0.99) {
		t.Errorf("a: PA = %v, want ~1 for a healthy process", pa)
	}
	if s := ests[1].STransitions; s != 1 {
		t.Errorf("b: S-transitions = %d, want 1", s)
	}
}

// TestSamplerLoop drives the estimators from the monitor's background
// round (the loop that replaced the QoS sampler) against a wall-clock
// monitor briefly.
func TestSamplerLoop(t *testing.T) {
	mon := service.NewMonitor(clock.Wall{}, func(_ string, start time.Time) core.Detector {
		return simple.New(start)
	})
	_ = mon.Heartbeat(core.Heartbeat{From: "p", Seq: 1, Arrived: time.Now()})
	q := mustQoS(t, 2, 1)
	r := service.NewRunner(mon, 2*time.Millisecond, service.Consumers{QoS: q})
	r.Start()
	defer r.Stop()
	deadline := time.Now().Add(3 * time.Second)
	for r.Rounds() < 3 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if r.Rounds() < 3 {
		t.Fatal("runner never ran a round")
	}
	if r.LastRound().IsZero() {
		t.Error("LastRound still zero after rounds completed")
	}
	r.Stop()
	r.Stop() // idempotent
	if q.Len() != 1 {
		t.Errorf("sampled procs = %d, want 1", q.Len())
	}
	if est, ok := q.Estimate("p"); !ok || int64(est.Samples) != r.Rounds() {
		t.Errorf("estimate %+v (ok=%v), want one sample per round (%d)", est, ok, r.Rounds())
	}
}

// sameFloat is float equality with NaN equal to NaN: the estimates are
// NaN until estimable and the scrape renders them verbatim.
func sameFloat(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// gatherOne runs GatherEstimates over the single series and requires
// the row to carry exactly what Estimate(id) reports — all NaN when the
// estimators do not know the id.
func gatherOne(t *testing.T, q *telemetry.QoS, id string, series *telemetry.ProcSeries) telemetry.ProcRow {
	t.Helper()
	rows := []telemetry.ProcRow{{ID: id, Series: series, LambdaM: -1, PA: -1, TMR: -1, TM: -1, TG: -1}}
	q.GatherEstimates(rows)
	want, ok := q.Estimate(id)
	if !ok {
		nan := math.NaN()
		want = telemetry.Estimate{LambdaM: nan, PA: nan, TMR: nan, TM: nan, TG: nan}
	}
	r := rows[0]
	if !sameFloat(r.LambdaM, want.LambdaM) || !sameFloat(r.PA, want.PA) ||
		!sameFloat(r.TMR, want.TMR) || !sameFloat(r.TM, want.TM) || !sameFloat(r.TG, want.TG) {
		t.Errorf("gathered %+v, Estimate(%q) = %+v (known %v)", r, id, want, ok)
	}
	return r
}

// TestGatherEstimatesFollowsForgottenEstimator: a series caches its
// estimator, so a Forget that runs after the id's successor binding has
// already cached the predecessor's estimator must not leave the scrape
// rendering the orphan — nor may the cache hide a process the estimators
// simply have not met yet.
func TestGatherEstimatesFollowsForgottenEstimator(t *testing.T) {
	q := mustQoS(t, 2, 1)
	var series telemetry.ProcSeries
	series.Init("p")

	// Not sampled yet: all NaN, and again NaN on the cached-miss path.
	gatherOne(t, q, "p", &series)
	gatherOne(t, q, "p", &series)

	// The predecessor's history: a mistake and its correction, so every
	// estimate is a finite number the successor's cannot equal.
	at := qosStart
	for _, lvl := range []core.Level{0, 3, 3, 0, 0, 3, 0} {
		q.Observe("p", lvl, at)
		at = at.Add(time.Second)
	}
	old := gatherOne(t, q, "p", &series) // the series now holds the estimator
	if math.IsNaN(old.TM) || math.IsNaN(old.TMR) || old.LambdaM == 0 {
		t.Fatalf("fixture: predecessor estimates not finite: %+v", old)
	}

	// The late Forget deletes the estimator the series still points at.
	q.Forget("p", at)
	if r := gatherOne(t, q, "p", &series); !math.IsNaN(r.PA) {
		t.Errorf("forgotten estimator still rendered: %+v", r)
	}

	// The successor is sampled into a fresh estimator; the series must
	// find it.
	q.Observe("p", 0, at.Add(time.Second))
	q.Observe("p", 0, at.Add(2*time.Second))
	if r := gatherOne(t, q, "p", &series); r.PA != 1 || r.LambdaM != 0 {
		t.Errorf("successor estimates = %+v, want P_A 1 and lambda_M 0", r)
	}
	// And keeps following it through the cache.
	q.Observe("p", 3, at.Add(3*time.Second))
	q.Observe("p", 3, at.Add(4*time.Second))
	gatherOne(t, q, "p", &series)
}
