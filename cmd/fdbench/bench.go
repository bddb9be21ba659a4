package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"accrual/internal/clock"
	"accrual/internal/core"
	"accrual/internal/service"
	"accrual/internal/simple"
	"accrual/internal/telemetry"
	"accrual/internal/transport"
)

// benchResult is the machine-readable record one micro-benchmark emits,
// written to BENCH_<name>.json. The format is documented in README.md
// and consumed by CI's fdbench smoke job.
type benchResult struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// Extra carries benchmark-specific metrics reported via
	// b.ReportMetric (e.g. the batch bench's beats/frame).
	Extra map[string]float64 `json:"extra,omitempty"`
}

// benchmarks maps -bench names to the functions testing.Benchmark runs.
// All of them exercise the telemetry-instrumented paths, so the emitted
// numbers are the observable daemon's, not an uninstrumented ideal's.
// "scrape" is handled separately by runBenchmarks: it sweeps over the
// -procs registry sizes.
var benchmarks = map[string]func(*testing.B){
	"ingest": benchIngest,
	"query":  benchQuery,
	"batch":  benchBatch,
}

func benchMonitor() (*service.Monitor, *telemetry.Hub) {
	hub := telemetry.NewHub()
	clk := clock.NewManual(time.Date(2005, 3, 22, 0, 0, 0, 0, time.UTC))
	mon := service.NewMonitor(clk, func(_ string, start time.Time) core.Detector {
		return simple.New(start)
	}, service.WithTelemetry(hub))
	return mon, hub
}

// benchIngest measures the instrumented heartbeat hot path with one
// goroutine per core, each hammering its own process — the same shape as
// the repo's BenchmarkIngestParallel.
func benchIngest(b *testing.B) {
	mon, _ := benchMonitor()
	arrived := mon.Now()
	var nextID atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		id := fmt.Sprintf("proc-%d", nextID.Add(1))
		var seq uint64
		for pb.Next() {
			seq++
			if err := mon.Heartbeat(core.Heartbeat{From: id, Seq: seq, Arrived: arrived}); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// benchQuery measures the instrumented suspicion query path.
func benchQuery(b *testing.B) {
	mon, _ := benchMonitor()
	if err := mon.Heartbeat(core.Heartbeat{From: "p", Seq: 1, Arrived: mon.Now()}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := mon.Suspicion("p"); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// benchBatch measures the userspace half of the coalesced heartbeat
// pipeline per beat: encode 32 beats into one AFB1 frame with a reused
// encoder, decode it with a warm id interner, and ingest the batch
// through Monitor.HeartbeatBatch (one hash and one shard probe per
// beat). Sockets are deliberately excluded so the number is
// deterministic and the zero-alloc gate in CI is meaningful; the
// syscall amortisation on top of this is measured by the repo's
// BenchmarkIngestBatch over real loopback sockets.
func benchBatch(b *testing.B) {
	mon, _ := benchMonitor()
	const batch = 32
	beats := make([]core.Heartbeat, batch)
	arrived := mon.Now()
	for i := range beats {
		beats[i] = core.Heartbeat{From: fmt.Sprintf("proc-%02d", i), Seq: 1, Arrived: arrived}
	}
	mon.HeartbeatBatch(beats) // register everyone up front
	enc := transport.NewBatchEncoder(batch)
	intern := transport.NewIDInterner()
	scratch := make([]core.Heartbeat, 0, batch)
	seq := uint64(1)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += batch {
		seq++
		enc.Reset()
		for i := range beats {
			beats[i].Seq = seq
			if err := enc.Add(beats[i]); err != nil {
				b.Fatal(err)
			}
		}
		decoded, err := transport.UnmarshalBatch(enc.Bytes(), scratch[:0], intern)
		if err != nil {
			b.Fatal(err)
		}
		for i := range decoded {
			decoded[i].Arrived = arrived
		}
		if acc, rej := mon.HeartbeatBatch(decoded); acc != batch || rej != 0 {
			b.Fatalf("HeartbeatBatch = (%d, %d), want (%d, 0)", acc, rej, batch)
		}
	}
	b.ReportMetric(batch, "beats/frame")
}

// countWriter counts bytes and discards them — the scrape benchmark's
// sink, so the measured allocations are the render's own, not a
// response recorder's.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// benchScrapeN returns a benchmark measuring one full /v1/metrics render
// over a procs-process registry with live QoS estimates, via the API's
// exported WriteMetrics (the exact render the HTTP handler streams). The
// registry runs the detector accruald ships (walkFactory) and the clock
// ends one interval past the last arrival, so the render evaluates and
// formats a real level per process. A warm-up render primes the writer
// pool, the header cache and the per-shard id order before the timer
// starts, so the loop measures the steady state a scraper sees.
func benchScrapeN(procs int) func(*testing.B) {
	return func(b *testing.B) {
		hub := telemetry.NewHub()
		clk := clock.NewManual(time.Date(2005, 3, 22, 0, 0, 0, 0, time.UTC))
		mon := service.NewMonitor(clk, walkFactory, service.WithTelemetry(hub))
		arrived := mon.Now()
		for i := 0; i < procs; i++ {
			id := fmt.Sprintf("proc-%06d", i)
			if err := mon.Heartbeat(core.Heartbeat{From: id, Seq: 1, Arrived: arrived}); err != nil {
				b.Fatal(err)
			}
		}
		clk.Advance(walkInterval)
		hub.QoS().Sample(mon)
		api := transport.NewAPI(mon, transport.WithAPITelemetry(hub))
		cw := &countWriter{}
		if err := api.WriteMetrics(cw); err != nil {
			b.Fatal(err)
		}
		exposition := cw.n
		cw.n = 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := api.WriteMetrics(cw); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(exposition), "exposition_bytes")
		b.ReportMetric(float64(procs), "procs")
	}
}

// writeBenchResult renders one testing.BenchmarkResult to
// BENCH_<artifact>.json in outDir and prints a one-line summary.
func writeBenchResult(artifact string, r testing.BenchmarkResult, outDir string) error {
	nsPerOp := float64(r.T.Nanoseconds()) / float64(r.N)
	res := benchResult{
		Name:        artifact,
		N:           r.N,
		NsPerOp:     nsPerOp,
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if nsPerOp > 0 {
		res.OpsPerSec = 1e9 / nsPerOp
	}
	if len(r.Extra) > 0 {
		res.Extra = make(map[string]float64, len(r.Extra))
		for k, v := range r.Extra {
			res.Extra[k] = v
		}
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	path := filepath.Join(outDir, "BENCH_"+artifact+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("%s: %d iterations, %.1f ns/op, %.0f ops/sec, %d allocs/op -> %s\n",
		artifact, res.N, res.NsPerOp, res.OpsPerSec, res.AllocsPerOp, path)
	return nil
}

// runBenchmarks executes the named benchmark ("all" for every one
// except manyprocs, which is heavy enough to require an explicit ask)
// and writes BENCH_<name>.json files into outDir, printing a one-line
// summary per benchmark to stdout. The scrape benchmark runs once per
// entry of scrapeProcs; the canonical 100-process point lands in
// BENCH_scrape.json, other sizes in BENCH_scrape_<procs>.json. The
// manyprocs benchmark sweeps manySizes × {default, compact} into a
// single BENCH_manyprocs.json.
func runBenchmarks(name, outDir string, scrapeProcs, manySizes, walkSizes []int) error {
	var names []string
	switch {
	case name == "all":
		names = []string{"ingest", "query", "batch", "scrape"}
	case name == "scrape":
		names = []string{"scrape"}
	case name == "walk":
		names = []string{"walk"}
	case name == "manyprocs":
		names = []string{"manyprocs"}
	case name == "federation":
		names = []string{"federation"}
	case name == "autotune":
		names = []string{"autotune"}
	default:
		if _, ok := benchmarks[name]; !ok {
			return fmt.Errorf("unknown benchmark %q (want ingest, query, scrape, batch, walk, manyprocs, federation, autotune or all)", name)
		}
		names = []string{name}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	for _, n := range names {
		if n == "federation" {
			if err := runFederation(outDir); err != nil {
				return err
			}
			continue
		}
		if n == "autotune" {
			if err := runAutotune(outDir); err != nil {
				return err
			}
			continue
		}
		if n == "manyprocs" {
			if len(manySizes) == 0 {
				manySizes = []int{10000, 100000, 1000000}
			}
			if err := runManyprocs(manySizes, outDir); err != nil {
				return err
			}
			continue
		}
		if n == "walk" {
			if len(walkSizes) == 0 {
				walkSizes = []int{10000, 100000, 1000000}
			}
			if err := runWalk(walkSizes, outDir); err != nil {
				return err
			}
			continue
		}
		if n == "scrape" {
			if len(scrapeProcs) == 0 {
				scrapeProcs = []int{100}
			}
			for _, procs := range scrapeProcs {
				artifact := "scrape"
				if procs != 100 {
					artifact = fmt.Sprintf("scrape_%d", procs)
				}
				if err := writeBenchResult(artifact, testing.Benchmark(benchScrapeN(procs)), outDir); err != nil {
					return err
				}
			}
			continue
		}
		if err := writeBenchResult(n, testing.Benchmark(benchmarks[n]), outDir); err != nil {
			return err
		}
	}
	return nil
}
