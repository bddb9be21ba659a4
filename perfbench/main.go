// Command perfbench is the repository's benchmark: it starts the shipped
// accruald as a separate process and drives it over loopback UDP and one
// keep-alive HTTP connection in a closed loop of fixed-work cycles. The
// end-to-end metrics are the daemon's CPU time per operation and the
// set-up time; a traced run reports per-layer metrics instead. It is
// started by perfbench/run.sh; README.md has the definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// watchdogLimit ends a run that hangs, well inside the 180 s the
// contract gives a run.
const watchdogLimit = 150 * time.Second

// setUps is how many cold set-ups a run times for setup_s.
const setUps = 5

func main() {
	var (
		daemonBin = flag.String("daemon", "", "path of the accruald binary (run.sh builds and passes it)")
		outDir    = flag.String("out", "", "directory for daemon logs and span dumps")
		wlName    = flag.String("workload", "", "workload: packet-path, batch-fleet or read-heavy")
		seed      = flag.Uint64("seed", 1, "seed of every generated input")
		seconds   = flag.Int("seconds", 25, "length of the measured window")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	)
	flag.Parse()
	w, ok := findWorkload(*wlName)
	if !ok || *daemonBin == "" || *outDir == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bash perfbench/run.sh --workload packet-path|batch-fleet|read-heavy --seed <n> --seconds <s> --trace 0|1")
		os.Exit(2)
	}

	// Every way out stops the daemon and waits for it: the normal flow,
	// a signal, and the watchdog.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		select {
		case s := <-sigs:
			fmt.Fprintf(os.Stderr, "perfbench: %v, stopping\n", s)
		case <-time.After(watchdogLimit):
			fmt.Fprintf(os.Stderr, "perfbench: still running after %v, giving up\n", watchdogLimit)
		}
		stopLive()
		os.Exit(1)
	}()

	r := &run{w: w, seed: *seed, window: time.Duration(*seconds) * time.Second, daemonBin: *daemonBin, outDir: *outDir}
	var res *result
	var err error
	if *trace == 1 {
		res, err = r.traced()
	} else {
		res, err = r.endToEnd()
	}
	stopLive()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	res.print()
}

// run is one invocation of the benchmark.
type run struct {
	w         workload
	seed      uint64
	window    time.Duration
	daemonBin string
	outDir    string
}

// newHTTPClient returns a client that keeps exactly one connection to
// the daemon alive and never asks for compression.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
}

// coldStart times one set-up from exec to a daemon that has registered
// and warmed the whole fleet and answered a scrape and a ranking.
func (r *run) coldStart(tr *tracer) (*bench, time.Duration, error) {
	hc := newHTTPClient()
	start := time.Now()
	d, err := startDaemon(r.daemonBin, r.w.detector, filepath.Join(r.outDir, "accruald-"+r.w.name+".log"), hc)
	if err != nil {
		return nil, 0, err
	}
	b, err := newBench(r.w, newPlan(r.w, r.seed), d, hc, tr)
	if err != nil {
		return nil, 0, err
	}
	if err := b.setUp(); err != nil {
		b.close()
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return b, time.Since(start), nil
}

// retire stops a bench's daemon and releases its connections.
func (b *bench) retire() {
	b.close()
	b.hc.CloseIdleConnections()
	b.d.stop()
}

// windowStats is what the cycle loop leaves behind.
type windowStats struct {
	cycles      []cycleSample
	wall        time.Duration
	before      procSample
	after       procSample
	first, last *exposition // scrapes at the edges of the window
	clientCPU   time.Duration
}

// measure runs cycles until the window is over. The last cycle is
// always completed, so every cycle does the same work.
func (r *run) measure(b *bench) (*windowStats, error) {
	ws := &windowStats{}
	var err error
	if err = b.scrape(); err != nil {
		return nil, err
	}
	ws.first = b.lastScrape
	if ws.before, err = sampleProc(b.d.pid); err != nil {
		return nil, err
	}
	cpu0 := selfCPU(syscall.RUSAGE_SELF)
	start := time.Now()
	prevCPU, prevEnd := b.daemonCPU(), start
	for prevEnd.Sub(start) < r.window {
		if b.tr != nil {
			b.tr.cycle++
		}
		cs, endCPU, err := b.cycle(prevCPU, prevEnd)
		if err != nil {
			return nil, err
		}
		ws.cycles = append(ws.cycles, cs)
		prevCPU, prevEnd = endCPU, prevEnd.Add(cs.cycleWall)
	}
	ws.wall = prevEnd.Sub(start)
	ws.clientCPU = selfCPU(syscall.RUSAGE_SELF) - cpu0
	if ws.after, err = sampleProc(b.d.pid); err != nil {
		return nil, err
	}
	// Conservation at the end: everything written is delivered and the
	// loss counters, the kernel's included, still read zero.
	if err := b.endPhase(); err != nil {
		return nil, err
	}
	ws.last = b.lastScrape
	if ws.first == nil || ws.last == nil {
		return nil, fmt.Errorf("no parsed scrape at the edges of the window: %v", b.problems)
	}
	return ws, nil
}

// endToEnd is the --trace 0 run: five cold set-ups, the fifth daemon
// serves the window.
func (r *run) endToEnd() (*result, error) {
	var b *bench
	var setups []float64
	for i := 0; i < setUps; i++ {
		if b != nil {
			b.retire()
		}
		nb, took, err := r.coldStart(nil)
		if err != nil {
			return nil, err
		}
		if nb.failed > 0 {
			return nil, fmt.Errorf("set-up %d failed its checks: %v", i+1, nb.problems)
		}
		b = nb
		setups = append(setups, took.Seconds())
	}
	defer b.retire()
	ws, err := r.measure(b)
	if err != nil {
		return nil, err
	}
	res := newResult(b)
	res.add("setup_s", median(setups), "s", len(setups))
	res.addCycleCPU(ws, "beat_cpu_us", "topk_cpu_ms", "scrape_cpu_ms", "cycle_cpu_ms")
	return res, nil
}

// cycleValues maps every cycle to one number.
func cycleValues(ws *windowStats, f func(cs *cycleSample) float64) []float64 {
	out := make([]float64, len(ws.cycles))
	for i := range ws.cycles {
		out[i] = f(&ws.cycles[i])
	}
	return out
}

// cycleCPUMetrics are the CPU-per-operation figures a cycle yields: the
// unit, and how one cycle's readings give the figure.
var cycleCPUMetrics = map[string]struct {
	unit string
	per  func(cs *cycleSample, w workload) float64
}{
	"beat_cpu_us":   {"us", func(cs *cycleSample, _ workload) float64 { return micros(cs.ingestCPU) / float64(cs.beats) }},
	"status_cpu_us": {"us", func(cs *cycleSample, w workload) float64 { return micros(cs.statusCPU) / float64(w.status) }},
	"topk_cpu_ms":   {"ms", func(cs *cycleSample, w workload) float64 { return micros(cs.topkCPU) / 1e3 / float64(w.topk) }},
	"scrape_cpu_ms": {"ms", func(cs *cycleSample, w workload) float64 { return micros(cs.scrapeCPU) / 1e3 / float64(w.scrapes) }},
	"cycle_cpu_ms":  {"ms", func(cs *cycleSample, _ workload) float64 { return micros(cs.cycleCPU) / 1e3 }},
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// cycleCPU returns the named figure for every cycle of the window.
func cycleCPU(ws *windowStats, w workload, name string) []float64 {
	per := cycleCPUMetrics[name].per
	return cycleValues(ws, func(cs *cycleSample) float64 { return per(cs, w) })
}

// addCycleCPU reports the named figures, each as the median over the
// window's cycles.
func (res *result) addCycleCPU(ws *windowStats, names ...string) {
	for _, name := range names {
		res.addSamples(name, cycleCPUMetrics[name].unit, cycleCPU(ws, res.b.w, name))
	}
}

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
	n          int     // samples behind the value
	q1, q3     float64 // quartiles of the samples, when there are enough
}

// result collects a run's metrics in the order they are reported.
type result struct {
	b       *bench
	metrics []metric
}

func newResult(b *bench) *result { return &result{b: b} }

func (res *result) add(name string, value float64, unit string, n int) {
	res.metrics = append(res.metrics, metric{name: name, unit: unit, value: finite(value), n: n})
}

// addSamples reports the median of samples, with their quartiles beside
// it on the readable line.
func (res *result) addSamples(name, unit string, samples []float64) {
	m := metric{name: name, unit: unit, value: finite(median(samples)), n: len(samples)}
	if len(samples) >= 2 {
		m.q1, _, m.q3 = quartiles(samples)
	}
	res.metrics = append(res.metrics, m)
}

// print writes one readable line per metric and then the result object
// the contract asks for as the last line.
func (res *result) print() {
	b := res.b
	for _, p := range b.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   b.failed == 0,
		Attempted: b.sent + b.httpOps,
		Failed:    b.failed,
		Metrics:   make(map[string]value, len(res.metrics)),
	}
	for _, m := range res.metrics {
		line := fmt.Sprintf("%s %v %s n=%d", m.name, m.value, m.unit, m.n)
		if m.q1 != 0 || m.q3 != 0 {
			line += fmt.Sprintf(" q1=%v q3=%v", m.q1, m.q3)
		}
		fmt.Println(line)
		out.Metrics[m.name] = value{Value: m.value, Unit: m.unit}
	}
	enc, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(enc))
}
