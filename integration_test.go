// Cross-module integration tests: the full pipeline (simulator →
// detector → interpreter → QoS metrics), failure injection (partitions,
// clock drift, crashed senders over real UDP), transformation
// composition, and property-based checks of the QoS theorems on random
// level traces.
package accrual_test

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"accrual"
	"accrual/internal/core"
	"accrual/internal/kappa"
	"accrual/internal/phi"
	"accrual/internal/qos"
	"accrual/internal/service"
	"accrual/internal/sim"
	"accrual/internal/stats"
	"accrual/internal/trace"
	"accrual/internal/transform"
	"accrual/internal/transport"
)

// TestPipelineSimToQoS runs the whole stack end to end: simulated
// heartbeats with jitter and delay feed a φ detector; a two-threshold
// interpreter produces transitions; the QoS evaluator scores them.
func TestPipelineSimToQoS(t *testing.T) {
	s := sim.New(21)
	net := sim.NewNetwork(s, sim.Link{
		Delay: sim.RandomDelay{Dist: stats.Normal{Mu: 0.01, Sigma: 0.004}, Min: time.Millisecond},
		Loss:  sim.BernoulliLoss{P: 0.01},
	})
	start := s.Now()
	det := phi.New(start, phi.WithBootstrap(100*time.Millisecond, 25*time.Millisecond))
	crashAt := start.Add(45 * time.Second)
	end := start.Add(60 * time.Second)
	em := &sim.Emitter{
		Sim: s, Net: net, From: "p", To: "q",
		Interval: 100 * time.Millisecond,
		Jitter:   stats.Normal{Mu: 0, Sigma: 0.008},
		CrashAt:  crashAt,
		Until:    end,
		Sink:     func(hb core.Heartbeat) { det.Report(hb) },
	}
	em.Start()
	bin := transform.NewHysteresis(transform.FromDetector(det), 5, 0.5)
	obs := trace.NewStatusObserver(core.Trusted)
	pr := &sim.Prober{
		Sim: s, Every: 20 * time.Millisecond, Until: end,
		Query: func(now time.Time) { obs.Observe(now, bin.Query(now)) },
	}
	pr.Start()
	s.RunUntil(end)

	rep, err := qos.Evaluate(qos.Input{
		Transitions: obs.Transitions(),
		Start:       start, End: end, CrashAt: crashAt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Detected {
		t.Fatal("crash not detected by the full pipeline")
	}
	if rep.TD <= 0 || rep.TD > 2*time.Second {
		t.Errorf("TD = %v, want (0, 2s]", rep.TD)
	}
	if rep.PA < 0.98 {
		t.Errorf("PA = %v, want near 1 at threshold 5", rep.PA)
	}
}

// TestClockDriftStillWorks injects sender-side clock drift (the θ of the
// paper's model): a fast sender and a slow sender are both correctly
// handled by the adaptive estimator — the levels stay bounded while
// alive and accrue after the crash.
func TestClockDriftStillWorks(t *testing.T) {
	for _, rate := range []float64{0.9, 1.0, 1.1} {
		s := sim.New(22)
		net := sim.NewNetwork(s, sim.Link{Delay: sim.ConstantDelay(5 * time.Millisecond)})
		start := s.Now()
		det := phi.New(start, phi.WithBootstrap(100*time.Millisecond, 25*time.Millisecond))
		crashAt := start.Add(30 * time.Second)
		end := start.Add(40 * time.Second)
		em := &sim.Emitter{
			Sim: s, Net: net, From: "p", To: "q",
			Interval:  100 * time.Millisecond,
			DriftRate: rate,
			Jitter:    stats.Normal{Mu: 0, Sigma: 0.005},
			CrashAt:   crashAt,
			Until:     end,
			Sink:      func(hb core.Heartbeat) { det.Report(hb) },
		}
		em.Start()
		var maxAlive core.Level
		pr := &sim.Prober{
			Sim: s, Every: 50 * time.Millisecond, Until: crashAt,
			Query: func(now time.Time) {
				if l := det.Suspicion(now); l > maxAlive {
					maxAlive = l
				}
			},
		}
		pr.Start()
		s.RunUntil(end)
		if maxAlive > 10 {
			t.Errorf("rate %v: max alive level %v, want bounded", rate, maxAlive)
		}
		if l := det.Suspicion(end); l < 20 {
			t.Errorf("rate %v: post-crash level %v, want accrued", rate, l)
		}
	}
}

// TestPartitionRaisesAndHealsSuspicion cuts the network for five seconds:
// the κ level must climb during the partition and collapse once it heals
// (the recovery property that makes accrual detectors usable with
// partition-prone networks).
func TestPartitionRaisesAndHealsSuspicion(t *testing.T) {
	s := sim.New(23)
	net := sim.NewNetwork(s, sim.Link{Delay: sim.ConstantDelay(2 * time.Millisecond)})
	start := s.Now()
	partFrom := start.Add(20 * time.Second)
	partTo := partFrom.Add(5 * time.Second)
	net.Partition("p", "q", partFrom, partTo)

	det := kappa.New(start, kappa.PLater{}, kappa.WithFixedInterval(100*time.Millisecond))
	end := start.Add(40 * time.Second)
	em := &sim.Emitter{
		Sim: s, Net: net, From: "p", To: "q",
		Interval: 100 * time.Millisecond,
		Until:    end,
		Sink:     func(hb core.Heartbeat) { det.Report(hb) },
	}
	em.Start()
	s.RunUntil(partTo.Add(-time.Second))
	during := det.Suspicion(s.Now())
	if during < 10 {
		t.Errorf("level during partition = %v, want tens of missed heartbeats", during)
	}
	s.RunUntil(partTo.Add(2 * time.Second))
	after := det.Suspicion(s.Now())
	if after > 1 {
		t.Errorf("level after heal = %v, want collapsed", after)
	}
	s.RunUntil(end)
}

// TestTransformComposition composes Algorithm 2 (binary→accrual) with
// Algorithm 1 (accrual→binary): starting from a stabilising ◇P source,
// the composition must eventually agree with the source's verdict.
func TestTransformComposition(t *testing.T) {
	for _, faulty := range []bool{false, true} {
		stable := core.Trusted
		if faulty {
			stable = core.Suspected
		}
		i := 0
		pre := []core.Status{
			core.Suspected, core.Trusted, core.Suspected, core.Trusted,
		}
		src := binaryFunc(func(time.Time) core.Status {
			if i < len(pre) {
				st := pre[i]
				i++
				return st
			}
			return stable
		})
		acc := transform.NewBinaryToAccrual(src, 1)
		alg := transform.NewAccrualToBinary(transform.FromDetector(acc))
		var last core.Status
		for q := 0; q < 5000; q++ {
			last = alg.Query(benchStart.Add(time.Duration(q) * time.Second))
		}
		if last != stable {
			t.Errorf("faulty=%v: composition converged to %v, want %v", faulty, last, stable)
		}
	}
}

type binaryFunc func(time.Time) core.Status

func (f binaryFunc) Query(now time.Time) core.Status { return f(now) }

// TestTheorem1PropertyRandomTraces verifies the Theorem 1 containment on
// random level traces and random threshold pairs: wherever D_T2 suspects,
// D_T1 suspects (T1 <= T2), for both D_T and D'_T with shared T0.
func TestTheorem1PropertyRandomTraces(t *testing.T) {
	f := func(levelsRaw []float64, t1Raw, t2Raw float64, seed uint8) bool {
		if len(levelsRaw) == 0 {
			return true
		}
		t1 := core.Level(math.Abs(t1Raw))
		t2 := core.Level(math.Abs(t2Raw))
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		levels := make([]core.Level, 0, len(levelsRaw))
		for _, l := range levelsRaw {
			if math.IsNaN(l) || math.IsInf(l, 0) {
				continue
			}
			levels = append(levels, core.Level(math.Abs(l)))
		}
		mk := func() transform.LevelFunc {
			i := 0
			return func(time.Time) core.Level {
				l := levels[i%len(levels)]
				i++
				return l
			}
		}
		if len(levels) == 0 {
			return true
		}
		low := t1 / 2 // shared T0 below both thresholds
		d1c := transform.NewConstantThreshold(mk(), t1)
		d2c := transform.NewConstantThreshold(mk(), t2)
		d1h := transform.NewHysteresis(mk(), t1, low)
		d2h := transform.NewHysteresis(mk(), t2, low)
		for q := 0; q < 3*len(levels); q++ {
			at := benchStart.Add(time.Duration(q) * time.Second)
			s1c, s2c := d1c.Query(at), d2c.Query(at)
			if s2c == core.Suspected && s1c != core.Suspected {
				return false
			}
			s1h, s2h := d1h.Query(at), d2h.Query(at)
			if s2h == core.Suspected && s1h != core.Suspected {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQoSBoundsProperty checks structural invariants of the QoS report on
// random alternating transition traces: PA within [0,1], non-negative
// durations, counts consistent.
func TestQoSBoundsProperty(t *testing.T) {
	f := func(gapsRaw []uint16, crashOffset uint16) bool {
		start := benchStart
		at := start
		var trs []core.Transition
		kind := core.STransition
		for _, g := range gapsRaw {
			at = at.Add(time.Duration(g%10000+1) * time.Millisecond)
			trs = append(trs, core.Transition{At: at, Kind: kind})
			if kind == core.STransition {
				kind = core.TTransition
			} else {
				kind = core.STransition
			}
		}
		end := at.Add(time.Second)
		var crash time.Time
		if crashOffset%2 == 1 {
			crash = start.Add(time.Duration(crashOffset) * time.Millisecond)
		}
		rep, err := qos.Evaluate(qos.Input{
			Transitions: trs, Start: start, End: end, CrashAt: crash,
		})
		if err != nil {
			return false
		}
		if rep.PA < 0 || rep.PA > 1+1e-12 {
			return false
		}
		if rep.TD < 0 || rep.LambdaM < 0 {
			return false
		}
		if len(rep.MistakeDurations) > rep.STransitions {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestUDPCrashDetectionEndToEnd exercises the real transport: two senders
// heartbeat a monitor over loopback UDP; one stops; an application over
// the monitor must suspect exactly that one.
func TestUDPCrashDetectionEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time UDP test skipped in -short mode")
	}
	const interval = 20 * time.Millisecond
	mon := accrual.NewMonitor(accrual.WallClock(), func(_ string, start time.Time) accrual.Detector {
		return accrual.NewPhiDetector(start, interval)
	})
	listener, err := transport.Listen("127.0.0.1:0", mon)
	if err != nil {
		t.Fatal(err)
	}
	defer listener.Close()

	mkSender := func(id string) *transport.Sender {
		s, err := transport.NewSender(id, listener.Addr().String(), interval)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	alive := mkSender("alive")
	defer alive.Stop()
	doomed := mkSender("doomed")

	app := mon.NewApp("test", accrual.ConstantPolicy(8))
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("senders never registered")
		}
		procs := mon.Processes()
		if len(procs) == 2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(500 * time.Millisecond) // warm the estimators
	doomed.Stop()

	deadline = time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("crash never detected over UDP")
		}
		suspects := app.Poll()
		if len(suspects) == 1 && suspects[0] == "doomed" {
			break
		}
		if len(suspects) > 1 {
			t.Fatalf("wrongly suspected: %v", suspects)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st, err := app.Status("alive"); err != nil || st != accrual.Trusted {
		t.Errorf("alive sender: %v %v", st, err)
	}
}

// TestServiceWatcherOverSimulatedCluster wires the Watcher, Monitor and
// simulator together: a crash produces exactly one S-transition event for
// the crashed node.
func TestServiceWatcherOverSimulatedCluster(t *testing.T) {
	s := sim.New(29)
	net := sim.NewNetwork(s, sim.Link{Delay: sim.ConstantDelay(3 * time.Millisecond)})
	mon := service.NewMonitor(s, func(_ string, start time.Time) core.Detector {
		return phi.New(start, phi.WithBootstrap(100*time.Millisecond, 25*time.Millisecond))
	})
	end := sim.Epoch.Add(30 * time.Second)
	for _, id := range []string{"a", "b", "c"} {
		crash := time.Time{}
		if id == "b" {
			crash = sim.Epoch.Add(15 * time.Second)
		}
		em := &sim.Emitter{
			Sim: s, Net: net, From: id, To: "monitor",
			Interval: 100 * time.Millisecond,
			CrashAt:  crash,
			Until:    end,
			Sink:     func(hb core.Heartbeat) { _ = mon.Heartbeat(hb) },
		}
		em.Start()
	}
	var events []string
	app := mon.NewApp("app", service.ConstantPolicy(8),
		service.WithTransitionHandler(func(proc string, tr core.Transition, st core.Status) {
			events = append(events, proc+":"+st.String())
		}))
	pr := &sim.Prober{
		Sim: s, Every: 100 * time.Millisecond, Until: end,
		Query: func(time.Time) { app.Poll() },
	}
	pr.Start()
	s.RunUntil(end)
	if len(events) != 1 || events[0] != "b:suspected" {
		t.Errorf("events = %v, want exactly [b:suspected]", events)
	}
}

// TestNetworkFlapping injects repeated partitions between the monitored
// pair: each flap must produce exactly one S-transition and one
// T-transition under a hysteresis interpreter — no flapping amplification
// and no missed outage.
func TestNetworkFlapping(t *testing.T) {
	s := sim.New(31)
	net := sim.NewNetwork(s, sim.Link{Delay: sim.ConstantDelay(2 * time.Millisecond)})
	const flaps = 4
	for i := 0; i < flaps; i++ {
		from := sim.Epoch.Add(time.Duration(20+i*30) * time.Second)
		net.Partition("p", "q", from, from.Add(10*time.Second))
	}
	start := s.Now()
	det := kappa.New(start, kappa.PLater{}, kappa.WithFixedInterval(100*time.Millisecond))
	end := start.Add(time.Duration(20+flaps*30) * time.Second)
	em := &sim.Emitter{
		Sim: s, Net: net, From: "p", To: "q",
		Interval: 100 * time.Millisecond,
		Until:    end,
		Sink:     func(hb core.Heartbeat) { det.Report(hb) },
	}
	em.Start()
	bin := transform.NewHysteresis(transform.FromDetector(det), 8, 0.5)
	obs := trace.NewStatusObserver(core.Trusted)
	pr := &sim.Prober{
		Sim: s, Every: 50 * time.Millisecond, Until: end,
		Query: func(now time.Time) { obs.Observe(now, bin.Query(now)) },
	}
	pr.Start()
	s.RunUntil(end)

	trs := obs.Transitions()
	sCount, tCount := 0, 0
	for _, tr := range trs {
		if tr.Kind == core.STransition {
			sCount++
		} else {
			tCount++
		}
	}
	if sCount != flaps || tCount != flaps {
		t.Errorf("transitions: %d S / %d T, want %d each (one per flap)\n%v",
			sCount, tCount, flaps, trs)
	}
	if obs.Current() != core.Trusted {
		t.Error("final status should be trusted after the last heal")
	}
}

// TestClassifyLiveDetectors drives the §4.3 class checker end to end: a
// full detector matrix over the simulator classifies as ◇P_ac.
func TestClassifyLiveDetectors(t *testing.T) {
	monitors := []string{"q1", "q2"}
	targets := []struct {
		id     string
		faulty bool
	}{
		{"p-faulty", true},
		{"r-correct", false},
	}
	var pairs []core.PairHistory
	for mi, mon := range monitors {
		for ti, tgt := range targets {
			w := accuracyWorkloadLite()
			if tgt.faulty {
				w.CrashAfter = 30 * time.Second
			}
			seed := uint64(100 + mi*10 + ti)
			run := runLitePair(seed, w)
			stableAfter := 0
			if tgt.faulty {
				// Skip to well after the crash for the accruement check.
				for i, rec := range run.history {
					if rec.At.After(run.crashAt.Add(time.Second)) {
						stableAfter = i
						break
					}
				}
			}
			pairs = append(pairs, core.PairHistory{
				Monitor: mon, Target: tgt.id, Faulty: tgt.faulty,
				History: run.history, StableAfter: stableAfter,
			})
		}
	}
	rep := core.Classify(pairs, 0, -1)
	if rep.Class != core.ClassEventuallyPerfectAccrual {
		t.Fatalf("class = %v, violations %v", rep.Class, rep.Violations)
	}
}

type liteWorkload struct {
	CrashAfter time.Duration
}

func accuracyWorkloadLite() liteWorkload { return liteWorkload{} }

type liteRun struct {
	history []core.QueryRecord
	crashAt time.Time
}

// runLitePair is a compact pair runner for the classification test: φ
// detector, 60s horizon, 100ms queries.
func runLitePair(seed uint64, w liteWorkload) liteRun {
	s := sim.New(seed)
	net := sim.NewNetwork(s, sim.Link{
		Delay: sim.RandomDelay{Dist: stats.Normal{Mu: 0.01, Sigma: 0.004}, Min: time.Millisecond},
	})
	start := s.Now()
	det := phi.New(start, phi.WithBootstrap(100*time.Millisecond, 25*time.Millisecond))
	var crashAt time.Time
	if w.CrashAfter > 0 {
		crashAt = start.Add(w.CrashAfter)
	}
	end := start.Add(60 * time.Second)
	em := &sim.Emitter{
		Sim: s, Net: net, From: "p", To: "q",
		Interval: 100 * time.Millisecond,
		Jitter:   stats.Normal{Mu: 0, Sigma: 0.008},
		CrashAt:  crashAt,
		Until:    end,
		Sink:     func(hb core.Heartbeat) { det.Report(hb) },
	}
	em.Start()
	run := liteRun{crashAt: crashAt}
	pr := &sim.Prober{
		Sim: s, Every: 100 * time.Millisecond, Until: end,
		Query: func(now time.Time) {
			run.history = append(run.history, core.QueryRecord{At: now, Level: det.Suspicion(now)})
		},
	}
	pr.Start()
	s.RunUntil(end)
	return run
}
