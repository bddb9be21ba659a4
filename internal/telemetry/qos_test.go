package telemetry_test

import (
	"context"
	"math"
	"math/rand"
	"slices"
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

// fleet is a LevelSource over hand-set levels: each bound id has a
// series and a level, the way a service.Monitor yields them, so a test
// can feed the estimators one observation at a time.
type fleet struct {
	now    time.Time
	only   string // when set, EachSeries yields this id alone
	ids    []string
	series map[string]*telemetry.ProcSeries
	levels map[string]core.Level
}

func newFleet() *fleet {
	return &fleet{series: map[string]*telemetry.ProcSeries{}, levels: map[string]core.Level{}}
}

func (f *fleet) Now() time.Time { return f.now }

func (f *fleet) EachSeries(_ time.Time, fn func(*telemetry.ProcSeries, core.Level)) {
	for _, id := range f.ids {
		if f.only == "" || id == f.only {
			fn(f.series[id], f.levels[id])
		}
	}
}

func (f *fleet) SeriesOf(id string) *telemetry.ProcSeries { return f.series[id] }

// observe feeds q one observation of id at level lvl and time at,
// binding id first if it is not bound.
func (f *fleet) observe(q *telemetry.QoS, id string, lvl core.Level, at time.Time) {
	if f.series[id] == nil {
		s := new(telemetry.ProcSeries)
		s.Init(id)
		f.series[id] = s
		f.ids = append(f.ids, id)
	}
	f.now, f.levels[id], f.only = at, lvl, id
	q.Sample(f)
	f.only = ""
}

// deregister unbinds id and hands its series to q.Forget, as
// service.Monitor.Deregister does; a later observe binds id afresh.
func (f *fleet) deregister(q *telemetry.QoS, id string, at time.Time) {
	s := f.series[id]
	delete(f.series, id)
	delete(f.levels, id)
	f.ids = slices.DeleteFunc(f.ids, func(x string) bool { return x == id })
	q.Forget(s, at)
}

// TestOnlineMatchesOffline drives the online estimator and the offline
// internal/qos pipeline with the identical sampled level trace. Both
// fold it through the same accounting core (qos.Run), so the accuracy
// metrics must agree exactly — and for a crash-marked process, so must
// the detection time recorded at deregistration.
func TestOnlineMatchesOffline(t *testing.T) {
	const (
		high, low = 2, 1
		step      = 50 * time.Millisecond
		steps     = 20_000 // 1000 seconds of observation
	)
	for _, tc := range []struct {
		name    string
		crashAt int // step of the crash mark; 0 = never crashes
	}{
		{"correct", 0},
		{"crashed", 12_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := mustQoS(t, high, low)
			f := newFleet()

			// The offline replica: the same Algorithm 3 interpreter over
			// the same sampled levels, recorded as a transition trace.
			var lvl core.Level
			hyst := transform.NewHysteresis(func(time.Time) core.Level { return lvl }, high, low)
			obs := trace.NewStatusObserver(core.Trusted)

			rnd := rand.New(rand.NewSource(7))
			now := qosStart
			var crashAt time.Time
			for i := 0; i < steps; i++ {
				lvl = core.Level(rnd.Float64() * 3) // crosses both thresholds regularly
				if i >= steps-10 {
					lvl = 3 // end suspected, so a crash counts as detected
				}
				f.observe(q, "p", lvl, now)
				obs.Observe(now, hyst.Query(now))
				if tc.crashAt > 0 && i == tc.crashAt {
					crashAt = now.Add(step / 2)
					q.MarkCrashed("p", crashAt)
				}
				now = now.Add(step)
			}
			end := now.Add(-step) // last observation time

			rep, err := qos.Evaluate(qos.Input{
				Transitions: obs.Transitions(),
				Start:       qosStart,
				End:         end,
				CrashAt:     crashAt,
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
			same := func(name string, got, want float64) {
				t.Helper()
				if want == 0 {
					t.Fatalf("%s: offline value is 0, trace not exercising the metric", name)
				}
				if got != want {
					t.Errorf("%s: online %v, offline %v", name, got, want)
				}
			}
			same("lambda_m", est.LambdaM, rep.LambdaM)
			same("pa", est.PA, rep.PA)
			same("t_mr", est.TMR, rep.MeanMistakeRecurrence().Seconds())
			same("t_m", est.TM, rep.MeanMistakeDuration().Seconds())
			same("t_g", est.TG, rep.MeanGoodPeriod().Seconds())
			if est.Observed != rep.AccuracyWindow {
				t.Errorf("observed window = %v, offline %v", est.Observed, rep.AccuracyWindow)
			}

			f.deregister(q, "p", end)
			count, td, _ := q.DetectionStats()
			switch {
			case crashAt.IsZero():
				if count != 0 {
					t.Errorf("%d detections of a process never marked crashed", count)
				}
			case !rep.Detected || rep.TD <= 0:
				t.Fatalf("fixture: offline report %+v, want a detection after the crash", rep)
			case count != 1 || td != rep.TD:
				t.Errorf("online detections %d with T_D %v, offline T_D %v", count, td, rep.TD)
			}
		})
	}
}

// TestFreshProcessNaN: before any time accrues or any duration sample
// exists, the estimates are NaN — the "not yet estimable" convention the
// exposition renders verbatim.
func TestFreshProcessNaN(t *testing.T) {
	q := mustQoS(t, 2, 1)
	f := newFleet()
	f.observe(q, "p", 0, qosStart)
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
	f := newFleet()
	now := qosStart
	for i := 0; i < 10; i++ {
		f.observe(q, "p", 0.1, now)
		now = now.Add(time.Second)
	}
	crashAt := now
	if !q.MarkCrashed("p", crashAt) {
		t.Fatal("MarkCrashed on a tracked process returned false")
	}
	// The level climbs past the high threshold 3 seconds after the crash.
	f.observe(q, "p", 0.5, now.Add(time.Second))
	f.observe(q, "p", 5, now.Add(3*time.Second))
	f.deregister(q, "p", now.Add(5*time.Second))

	count, mean, max := q.DetectionStats()
	if count != 1 {
		t.Fatalf("detection samples = %d, want 1", count)
	}
	if want := 3 * time.Second; mean != want || max != want {
		t.Errorf("T_D mean=%v max=%v, want %v", mean, max, want)
	}
	if est, ok := q.Estimate("p"); ok {
		t.Fatalf("forgotten process still estimable: %+v", est)
	}
}

// TestDetectionRequiresCrashAndSuspicion: deregistering without a crash
// mark, or crashed-but-never-suspected, records nothing.
func TestDetectionRequiresCrashAndSuspicion(t *testing.T) {
	q := mustQoS(t, 2, 1)
	f := newFleet()
	f.observe(q, "alive", 0.1, qosStart)
	f.observe(q, "alive", 5, qosStart.Add(time.Second)) // suspected, but no crash mark
	f.deregister(q, "alive", qosStart.Add(2*time.Second))

	f.observe(q, "quiet", 0.1, qosStart)
	q.MarkCrashed("quiet", qosStart.Add(time.Second))
	f.deregister(q, "quiet", qosStart.Add(2*time.Second)) // never suspected

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
	f := newFleet()
	now := qosStart
	for i := 0; i < 20; i++ {
		f.observe(q, "p", 0.1, now)
		now = now.Add(time.Second)
	}
	f.observe(q, "p", 0.1, now) // last in-window observation, at the crash instant
	q.MarkCrashed("p", now)
	before, _ := q.Estimate("p")
	for i := 1; i <= 20; i++ {
		f.observe(q, "p", 5, now.Add(time.Duration(i)*time.Second))
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
	var ests [2]telemetry.Estimate
	for i, id := range []string{"a", "b"} {
		est, ok := q.Estimate(id)
		if !ok || est.ID != id {
			t.Fatalf("%s: estimate %+v (ok=%v)", id, est, ok)
		}
		ests[i] = est
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
	r := service.NewRunner(mon, service.Consumers{QoS: q})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := clock.Every(ctx, 2*time.Millisecond, r.Round)
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
	cancel()
	<-done
	if est, ok := q.Estimate("p"); !ok || int64(est.Samples) != r.Rounds() {
		t.Errorf("estimate %+v (ok=%v), want one sample per round (%d)", est, ok, r.Rounds())
	}
}
