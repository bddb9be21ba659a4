// Command fdbench runs parameter sweeps over the failure detectors and
// prints CSV series suitable for plotting — the finer-grained companion
// to fdsim's tables.
//
// Sweeps:
//
//	threshold  φ threshold vs detection time and mistake rate (E1 curve)
//	window     φ estimation-window size vs detection time and mistakes
//	loss       heartbeat loss rate vs mistake rate per detector
//	interval   heartbeat interval vs detection time at a fixed threshold
//	gst        windowed mistake rate across a global stabilisation time
//	batch      sender coalescing window vs detection time and mistakes
//	           (the latency cost of batched heartbeat transport)
//
// Usage:
//
//	fdbench -sweep threshold [-seed 42]
//	fdbench -bench ingest|query|scrape|all [-bench-out DIR] [-procs 100,10000]
//
// With -bench, fdbench runs a hot-path micro-benchmark through
// testing.Benchmark and writes a machine-readable BENCH_<name>.json
// (ops/sec, ns/op, allocs/op; format in README.md) into -bench-out —
// the artifact CI archives on every run. The scrape benchmark sweeps
// the -procs registry sizes (comma-separated), writing one artifact per
// size: BENCH_scrape.json for the canonical 100-process point,
// BENCH_scrape_<n>.json for the others.
//
// The manyprocs benchmark is the membership-scale sweep: for each
// -manyprocs-sizes registry size crossed with the Default and Compact
// memory profiles it registers that many processes on the real service
// stack, then records ns/beat under a parallel hammer and resident
// bytes per process into a single BENCH_manyprocs.json. It is not part
// of "all" — a 1M-process point deliberately needs an explicit ask.
//
// The walk benchmark measures the lock-free evaluation plane: for each
// -walk-sizes registry size it times one full-fleet pass through every
// snapshot read path — EachLevel, TopK(64) and EachInfo — over the
// daemon's default φ detector, and writes the size × path matrix to a
// single BENCH_walk.json (ns per pass, ns per process, allocs). The 1M
// point makes it too heavy for "all"; CI runs it capped at 100k.
//
// The federation benchmark measures the gossip plane: AFG1 digest
// encode (one EncodeRound over a 10k-process registry) and decode
// ns/op, plus a measured cross-peer crash-detection time over two real
// gossiping peers on loopback, written to BENCH_federation.json. Like
// manyprocs it spins real sockets and so is not part of "all".
//
// The autotune benchmark closes the QoS loop: a manual-clock chen fleet
// behind a faultinject channel (30% loss, delay jitter) is steered by
// the internal/autotune controller toward a detection-time target, and
// the per-round convergence trace — achieved T_D versus target, knob
// positions, and the suspicion-continuity bound at every applied
// retune — is written to BENCH_autotune.json. The run fails unless the
// achieved T_D lands within 15% of the target within 10 rounds with
// continuity preserved. Deterministic (seeded faults, virtual time), so
// it is CI-gateable, but it is a convergence check rather than a
// micro-benchmark and so is not part of "all".
package main

import (
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"strconv"
	"strings"
	"time"

	"accrual/internal/chen"
	"accrual/internal/core"
	"accrual/internal/kappa"
	"accrual/internal/phi"
	"accrual/internal/qos"
	"accrual/internal/sim"
	"accrual/internal/simple"
	"accrual/internal/stats"
	"accrual/internal/trace"
	"accrual/internal/transform"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("fdbench", flag.ContinueOnError)
	var (
		sweep    = fs.String("sweep", "threshold", "sweep to run: threshold, window, loss, interval, gst, batch")
		seed     = fs.Uint64("seed", 42, "base random seed")
		bench    = fs.String("bench", "", "run a micro-benchmark instead of a sweep: ingest, query, scrape, batch, walk, manyprocs, federation, autotune or all")
		benchOut = fs.String("bench-out", ".", "directory for BENCH_<name>.json results")
		procs    = fs.String("procs", "100", "comma-separated registry sizes for the scrape benchmark")
		manySz   = fs.String("manyprocs-sizes", "10000,100000,1000000", "comma-separated registry sizes for the manyprocs benchmark")
		walkSz   = fs.String("walk-sizes", "10000,100000,1000000", "comma-separated registry sizes for the walk benchmark")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *bench != "" {
		sizes, err := parseProcs(*procs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fdbench: %v\n", err)
			return 2
		}
		manySizes, err := parseProcs(*manySz)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fdbench: %v\n", err)
			return 2
		}
		walkSizes, err := parseProcs(*walkSz)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fdbench: %v\n", err)
			return 2
		}
		if err := runBenchmarks(*bench, *benchOut, sizes, manySizes, walkSizes); err != nil {
			fmt.Fprintf(os.Stderr, "fdbench: %v\n", err)
			return 2
		}
		return 0
	}
	switch *sweep {
	case "threshold":
		sweepThreshold(*seed)
	case "window":
		sweepWindow(*seed)
	case "loss":
		sweepLoss(*seed)
	case "interval":
		sweepInterval(*seed)
	case "gst":
		sweepGST(*seed)
	case "batch":
		sweepBatch(*seed)
	default:
		fmt.Fprintf(os.Stderr, "fdbench: unknown sweep %q\n", *sweep)
		return 2
	}
	return 0
}

// parseProcs parses the -procs comma list into positive registry sizes.
func parseProcs(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("invalid -procs entry %q", f)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-procs is empty")
	}
	return out, nil
}

const hbInterval = 100 * time.Millisecond

type runResult struct {
	history []core.QueryRecord
	start   time.Time
	end     time.Time
	crashAt time.Time
}

// runPair is a local copy of the experiment harness's pair runner with
// explicit knobs for the sweeps.
func runPair(seed uint64, det core.Detector, interval time.Duration, loss sim.LossModel,
	crashAfter, horizon time.Duration) runResult {
	delay := sim.RandomDelay{Dist: stats.Normal{Mu: 0.010, Sigma: 0.005}, Min: time.Millisecond}
	return runPairLink(seed, det, interval, delay, loss, crashAfter, horizon)
}

// runPairLink is runPair with the link delay model exposed, for sweeps
// that perturb delivery latency itself (the batch sweep).
func runPairLink(seed uint64, det core.Detector, interval time.Duration, delay sim.DelayModel,
	loss sim.LossModel, crashAfter, horizon time.Duration) runResult {
	s := sim.New(seed)
	net := sim.NewNetwork(s, sim.Link{
		Delay: delay,
		Loss:  loss,
	})
	start := s.Now()
	var crashAt time.Time
	if crashAfter > 0 {
		crashAt = start.Add(crashAfter)
	}
	end := start.Add(horizon)
	em := &sim.Emitter{
		Sim: s, Net: net, From: "p", To: "q",
		Interval: interval,
		Jitter:   stats.Normal{Mu: 0, Sigma: 0.010},
		CrashAt:  crashAt,
		Until:    end,
		Sink:     func(hb core.Heartbeat) { det.Report(hb) },
	}
	em.Start()
	res := runResult{start: start, end: end, crashAt: crashAt}
	pr := &sim.Prober{
		Sim: s, Every: 20 * time.Millisecond, Until: end,
		Query: func(now time.Time) {
			res.history = append(res.history, core.QueryRecord{At: now, Level: det.Suspicion(now)})
		},
	}
	pr.Start()
	s.RunUntil(end)
	return res
}

// metricsAt interprets a recorded run with a constant threshold.
func metricsAt(res runResult, threshold core.Level) (td time.Duration, detected bool, mistakesPerMin float64) {
	i := 0
	src := func(time.Time) core.Level {
		l := res.history[i].Level
		i++
		return l
	}
	obs := trace.NewStatusObserver(core.Trusted)
	b := transform.NewConstantThreshold(src, threshold)
	for _, rec := range res.history {
		obs.Observe(rec.At, b.Query(rec.At))
	}
	trs := obs.Transitions()
	// Detection time: last transition must be an S-transition.
	if !res.crashAt.IsZero() {
		if last, ok := obs.LastTransition(); ok && last.Kind == core.STransition {
			detected = true
			if last.At.After(res.crashAt) {
				td = last.At.Sub(res.crashAt)
			}
		}
	}
	// Mistake rate over the pre-crash (or full) window.
	accEnd := res.end
	if !res.crashAt.IsZero() {
		accEnd = res.crashAt
	}
	s := 0
	for _, tr := range trs {
		if tr.Kind == core.STransition && tr.At.Before(accEnd) {
			s++
		}
	}
	mins := accEnd.Sub(res.start).Minutes()
	if mins > 0 {
		mistakesPerMin = float64(s) / mins
	}
	return td, detected, mistakesPerMin
}

func phiDet(start time.Time) core.Detector {
	return phi.New(start, phi.WithBootstrap(hbInterval, hbInterval/4))
}

func sweepThreshold(seed uint64) {
	fmt.Println("threshold,td_ms,lambda_m_per_min")
	crash := runPair(seed, phiDet(sim.Epoch), hbInterval, sim.NoLoss{}, 60*time.Second, 90*time.Second)
	acc := runPair(seed+1, phiDet(sim.Epoch), hbInterval, sim.NoLoss{}, 0, 10*time.Minute)
	for th := 0.25; th <= 16; th *= 1.2 {
		td, ok, _ := metricsAt(crash, core.Level(th))
		_, _, lam := metricsAt(acc, core.Level(th))
		if !ok {
			continue
		}
		fmt.Printf("%.3f,%.1f,%.4f\n", th, float64(td.Microseconds())/1000, lam)
	}
}

func sweepWindow(seed uint64) {
	fmt.Println("window,td_ms,lambda_m_per_min")
	for _, w := range []int{10, 25, 50, 100, 200, 500, 1000} {
		mk := func(start time.Time) core.Detector {
			return phi.New(start, phi.WithWindowSize(w),
				phi.WithBootstrap(hbInterval, hbInterval/4))
		}
		crash := runPair(seed, mk(sim.Epoch), hbInterval, sim.NoLoss{}, 60*time.Second, 90*time.Second)
		acc := runPair(seed+1, mk(sim.Epoch), hbInterval, sim.NoLoss{}, 0, 10*time.Minute)
		td, ok, _ := metricsAt(crash, 3)
		_, _, lam := metricsAt(acc, 3)
		if !ok {
			continue
		}
		fmt.Printf("%d,%.1f,%.4f\n", w, float64(td.Microseconds())/1000, lam)
	}
}

func sweepLoss(seed uint64) {
	fmt.Println("loss_rate,detector,lambda_m_per_min")
	dets := []struct {
		name string
		mk   func(start time.Time) core.Detector
		th   core.Level
	}{
		{"simple", func(s time.Time) core.Detector { return simple.New(s) }, 0.5},
		{"chen", func(s time.Time) core.Detector { return chen.New(s, hbInterval) }, 0.4},
		{"phi", phiDet, 8},
		{"kappa", func(s time.Time) core.Detector { return kappa.New(s, kappa.PLater{}) }, 4},
	}
	for _, p := range []float64{0, 0.01, 0.02, 0.05, 0.1, 0.2} {
		for _, d := range dets {
			acc := runPair(seed, d.mk(sim.Epoch), hbInterval,
				sim.BernoulliLoss{P: p}, 0, 10*time.Minute)
			_, _, lam := metricsAt(acc, d.th)
			fmt.Printf("%.2f,%s,%.4f\n", p, d.name, lam)
		}
	}
}

func sweepInterval(seed uint64) {
	fmt.Println("interval_ms,td_ms")
	for _, iv := range []time.Duration{
		20 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond,
		200 * time.Millisecond, 500 * time.Millisecond, time.Second,
	} {
		mk := phi.New(sim.Epoch, phi.WithBootstrap(iv, iv/4))
		crash := runPair(seed, mk, iv, sim.NoLoss{}, 60*time.Second, 90*time.Second)
		td, ok, _ := metricsAt(crash, 3)
		if !ok {
			continue
		}
		fmt.Printf("%d,%.1f\n", iv.Milliseconds(), float64(td.Microseconds())/1000)
	}
}

// coalesceDelay models sender-side batching on top of a base network
// delay: a beat collected into a pending batch waits somewhere between
// zero (the flush that sends it was already due) and the full flush
// window before it reaches the wire, uniformly spread across the window.
type coalesceDelay struct {
	base sim.DelayModel
	hold time.Duration
}

func (d coalesceDelay) Delay(rng *rand.Rand) time.Duration {
	dl := d.base.Delay(rng)
	if d.hold > 0 {
		dl += time.Duration(rng.Int64N(int64(d.hold) + 1))
	}
	return dl
}

// sweepBatch prints the latency cost of heartbeat coalescing: detection
// time and mistake rate of a φ detector as the sender's flush window
// (WithBatch maxDelay) grows from zero to multiple heartbeat intervals.
// The held beats arrive later and with more arrival-time spread, so both
// T_D and the estimator's variance pay for the saved syscalls — this
// curve is the quantitative form of the guidance in docs/TUNING.md.
func sweepBatch(seed uint64) {
	fmt.Println("flush_ms,td_ms,lambda_m_per_min")
	base := sim.RandomDelay{Dist: stats.Normal{Mu: 0.010, Sigma: 0.005}, Min: time.Millisecond}
	for _, flush := range []time.Duration{
		0, 10 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond,
		100 * time.Millisecond, 200 * time.Millisecond, 500 * time.Millisecond,
	} {
		delay := coalesceDelay{base: base, hold: flush}
		crash := runPairLink(seed, phiDet(sim.Epoch), hbInterval, delay,
			sim.NoLoss{}, 60*time.Second, 90*time.Second)
		acc := runPairLink(seed+1, phiDet(sim.Epoch), hbInterval, delay,
			sim.NoLoss{}, 0, 10*time.Minute)
		td, ok, _ := metricsAt(crash, 3)
		_, _, lam := metricsAt(acc, 3)
		if !ok {
			continue
		}
		fmt.Printf("%d,%.1f,%.4f\n", flush.Milliseconds(), float64(td.Microseconds())/1000, lam)
	}
}

// sweepGST prints the windowed mistake rate of a φ detector across a
// partial-synchrony run: chaos (heavy loss, wild delays) before GST at
// t=120s, bounded behaviour after. The series shows λ_M collapsing once
// the model's bounds take hold — the empirical face of "eventually
// perfect".
func sweepGST(seed uint64) {
	fmt.Println("window_end_s,lambda_m_per_min,pa")
	s := sim.New(seed)
	gst := sim.Epoch.Add(120 * time.Second)
	net := sim.NewNetwork(s, sim.Link{
		Delay: sim.GSTDelay{
			Sim: s, GST: gst,
			Before: sim.RandomDelay{Dist: stats.Uniform{A: 0.01, B: 0.5}},
			After:  sim.RandomDelay{Dist: stats.Normal{Mu: 0.01, Sigma: 0.005}, Min: time.Millisecond},
		},
		Loss: sim.GSTLoss{Sim: s, GST: gst, Before: sim.BernoulliLoss{P: 0.5}},
	})
	start := s.Now()
	det := phiDet(start)
	end := start.Add(6 * time.Minute)
	em := &sim.Emitter{
		Sim: s, Net: net, From: "p", To: "q",
		Interval: hbInterval,
		Jitter:   stats.Normal{Mu: 0, Sigma: 0.01},
		Until:    end,
		Sink:     func(hb core.Heartbeat) { det.Report(hb) },
	}
	em.Start()
	bin := transform.NewConstantThreshold(transform.FromDetector(det), 2)
	obs := trace.NewStatusObserver(core.Trusted)
	pr := &sim.Prober{
		Sim: s, Every: 20 * time.Millisecond, Until: end,
		Query: func(now time.Time) { obs.Observe(now, bin.Query(now)) },
	}
	pr.Start()
	s.RunUntil(end)

	points, err := qos.Series(qos.Input{
		Transitions: obs.Transitions(), Start: start, End: end,
	}, 30*time.Second, 10*time.Second)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fdbench: %v\n", err)
		return
	}
	for _, p := range points {
		fmt.Printf("%.0f,%.3f,%.5f\n", p.At.Sub(start).Seconds(), p.LambdaM*60, p.PA)
	}
}
