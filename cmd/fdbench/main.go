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
//	fdbench -bench scrape|walk|manyprocs|federation|autotune [-bench-out DIR]
//
// Every sweep but gst runs on the experiment harness's pair runner
// (experiments.RunPair) over its LAN workload, varying one knob, and
// scores each run with qos.Evaluate, the evaluator behind the fdsim
// tables; gst drives its own simulator because its delay and loss
// models switch at the stabilisation time.
//
// With -bench, fdbench runs one benchmark of the daemon-shaped stack
// and writes a machine-readable BENCH_<name>.json (format in README.md)
// into -bench-out, the artifact CI archives on every run. The daemon's
// per-call hot paths (ingest, query, batch decode) are measured and
// zero-alloc gated by the Go benchmarks and tests of the packages that
// own them, not here.
//
// The scrape benchmark measures one full /v1/metrics render through
// testing.Benchmark, sweeping the -procs registry sizes
// (comma-separated) with one artifact per size: BENCH_scrape.json for
// the canonical 100-process point, BENCH_scrape_<n>.json for the
// others.
//
// The manyprocs benchmark is the membership-scale sweep: for each
// -manyprocs-sizes registry size crossed with the Default and Compact
// memory profiles it registers that many processes on the real service
// stack, then records ns/beat under a parallel hammer and resident
// bytes per process into a single BENCH_manyprocs.json.
//
// The walk benchmark measures the lock-free evaluation plane: for each
// -walk-sizes registry size it times one full-fleet pass through every
// snapshot read path — EachLevel, TopK(64) and EachInfo — over the
// daemon's default φ detector, and writes the size × path matrix to a
// single BENCH_walk.json (ns per pass, ns per process, allocs). CI runs
// it capped at 100k.
//
// Scrape, walk and manyprocs build their registries through the
// daemon's own detector factory (internal/detectors), so they measure
// the detector accruald ships.
//
// The federation benchmark measures the gossip plane: AFG1 digest
// encode (one EncodeRound over a 10k-process registry) and decode
// ns/op, plus a measured cross-peer crash-detection time over two real
// gossiping peers on loopback, written to BENCH_federation.json.
//
// The autotune benchmark closes the QoS loop: a manual-clock chen fleet
// behind a faultinject channel (30% loss, delay jitter) is steered by
// the internal/autotune controller toward a detection-time target, and
// the per-round convergence trace — achieved T_D versus target, knob
// positions, and the suspicion-continuity bound at every applied
// retune — is written to BENCH_autotune.json. The run fails unless the
// achieved T_D lands within 15% of the target within 10 rounds with
// continuity preserved. Deterministic (seeded faults, virtual time), so
// it is CI-gateable.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"strconv"
	"strings"
	"time"

	"accrual/internal/chen"
	"accrual/internal/core"
	"accrual/internal/experiments"
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
		bench    = fs.String("bench", "", "run a benchmark instead of a sweep: scrape, walk, manyprocs, federation or autotune")
		benchOut = fs.String("bench-out", ".", "directory for BENCH_<name>.json results")
		procs    = fs.String("procs", "100", "comma-separated registry sizes for the scrape benchmark")
		manySz   = fs.String("manyprocs-sizes", "10000,100000,1000000", "comma-separated registry sizes for the manyprocs benchmark")
		walkSz   = fs.String("walk-sizes", "10000,100000,1000000", "comma-separated registry sizes for the walk benchmark")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *bench != "" {
		if err := runBenchmarks(*bench, *benchOut, *procs, *manySz, *walkSz); err != nil {
			fmt.Fprintf(os.Stderr, "fdbench: %v\n", err)
			return 2
		}
		return 0
	}
	sw, ok := sweeps[*sweep]
	if !ok {
		fmt.Fprintf(os.Stderr, "fdbench: unknown sweep %q\n", *sweep)
		return 2
	}
	if err := sw(os.Stdout, *seed); err != nil {
		fmt.Fprintf(os.Stderr, "fdbench: %v\n", err)
		return 1
	}
	return 0
}

// parseProcs parses the comma list given to the named flag into
// positive registry sizes.
func parseProcs(name, s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("invalid %s entry %q", name, f)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s is empty", name)
	}
	return out, nil
}

const hbInterval = 100 * time.Millisecond

// sweeps maps each -sweep name to its runner, which writes one CSV
// series to w.
var sweeps = map[string]func(w io.Writer, seed uint64) error{
	"threshold": sweepThreshold,
	"window":    sweepWindow,
	"loss":      sweepLoss,
	"interval":  sweepInterval,
	"gst":       sweepGST,
	"batch":     sweepBatch,
}

func phiDet(start time.Time) core.Detector {
	return phi.New(start, phi.WithBootstrap(hbInterval, hbInterval/4))
}

// score interprets a recorded run with a constant threshold.
func score(run experiments.PairRun, threshold core.Level) qos.Report {
	return run.Evaluate(experiments.ApplyThreshold(run.History, threshold))
}

// ms renders a detection time in milliseconds, to the microsecond.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func sweepThreshold(w io.Writer, seed uint64) error {
	fmt.Fprintln(w, "threshold,td_ms,lambda_m_per_min")
	crash := experiments.RunPair(seed, phiDet, experiments.CrashWorkload())
	acc := experiments.RunPair(seed+1, phiDet, experiments.AccuracyWorkload())
	for th := 0.25; th <= 16; th *= 1.2 {
		if rep := score(crash, core.Level(th)); rep.Detected {
			fmt.Fprintf(w, "%.3f,%.1f,%.4f\n", th, ms(rep.TD), score(acc, core.Level(th)).LambdaM*60)
		}
	}
	return nil
}

func sweepWindow(w io.Writer, seed uint64) error {
	fmt.Fprintln(w, "window,td_ms,lambda_m_per_min")
	for _, size := range []int{10, 25, 50, 100, 200, 500, 1000} {
		mk := func(start time.Time) core.Detector {
			return phi.New(start, phi.WithWindowSize(size),
				phi.WithBootstrap(hbInterval, hbInterval/4))
		}
		crash := experiments.RunPair(seed, mk, experiments.CrashWorkload())
		acc := experiments.RunPair(seed+1, mk, experiments.AccuracyWorkload())
		if rep := score(crash, 3); rep.Detected {
			fmt.Fprintf(w, "%d,%.1f,%.4f\n", size, ms(rep.TD), score(acc, 3).LambdaM*60)
		}
	}
	return nil
}

func sweepLoss(w io.Writer, seed uint64) error {
	fmt.Fprintln(w, "loss_rate,detector,lambda_m_per_min")
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
		wl := experiments.AccuracyWorkload()
		wl.Loss = sim.BernoulliLoss{P: p}
		for _, d := range dets {
			acc := experiments.RunPair(seed, d.mk, wl)
			fmt.Fprintf(w, "%.2f,%s,%.4f\n", p, d.name, score(acc, d.th).LambdaM*60)
		}
	}
	return nil
}

func sweepInterval(w io.Writer, seed uint64) error {
	fmt.Fprintln(w, "interval_ms,td_ms")
	for _, iv := range []time.Duration{
		20 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond,
		200 * time.Millisecond, 500 * time.Millisecond, time.Second,
	} {
		wl := experiments.CrashWorkload()
		wl.Interval = iv
		crash := experiments.RunPair(seed, func(start time.Time) core.Detector {
			return phi.New(start, phi.WithBootstrap(iv, iv/4))
		}, wl)
		if rep := score(crash, 3); rep.Detected {
			fmt.Fprintf(w, "%d,%.1f\n", iv.Milliseconds(), ms(rep.TD))
		}
	}
	return nil
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
func sweepBatch(w io.Writer, seed uint64) error {
	fmt.Fprintln(w, "flush_ms,td_ms,lambda_m_per_min")
	for _, flush := range []time.Duration{
		0, 10 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond,
		100 * time.Millisecond, 200 * time.Millisecond, 500 * time.Millisecond,
	} {
		crashWl, accWl := experiments.CrashWorkload(), experiments.AccuracyWorkload()
		crashWl.Delay = coalesceDelay{base: crashWl.Delay, hold: flush}
		accWl.Delay = coalesceDelay{base: accWl.Delay, hold: flush}
		crash := experiments.RunPair(seed, phiDet, crashWl)
		acc := experiments.RunPair(seed+1, phiDet, accWl)
		if rep := score(crash, 3); rep.Detected {
			fmt.Fprintf(w, "%d,%.1f,%.4f\n", flush.Milliseconds(), ms(rep.TD), score(acc, 3).LambdaM*60)
		}
	}
	return nil
}

// sweepGST prints the windowed mistake rate of a φ detector across a
// partial-synchrony run: chaos (heavy loss, wild delays) before GST at
// t=120s, bounded behaviour after. The series shows λ_M collapsing once
// the model's bounds take hold — the empirical face of "eventually
// perfect".
func sweepGST(w io.Writer, seed uint64) error {
	fmt.Fprintln(w, "window_end_s,lambda_m_per_min,pa")
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
		return err
	}
	for _, p := range points {
		fmt.Fprintf(w, "%.0f,%.3f,%.5f\n", p.At.Sub(start).Seconds(), p.LambdaM*60, p.PA)
	}
	return nil
}
