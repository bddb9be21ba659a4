package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"accrual/internal/clock"
	"accrual/internal/core"
	"accrual/internal/service"
	"accrual/internal/telemetry"
	"accrual/internal/transport"
)

// benchResult is the machine-readable record one scrape benchmark emits,
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
	// b.ReportMetric (the scrape bench's procs and exposition_bytes).
	Extra map[string]float64 `json:"extra,omitempty"`
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

// runBenchmarks runs the named benchmark and writes its BENCH_*.json
// artifacts into outDir. procs, manySz and walkSz are the comma lists
// of the -procs, -manyprocs-sizes and -walk-sizes flags: the scrape
// benchmark runs once per -procs size, the manyprocs and walk
// benchmarks sweep their sizes into one artifact each.
func runBenchmarks(name, outDir, procs, manySz, walkSz string) error {
	scrapeProcs, err := parseProcs("-procs", procs)
	if err != nil {
		return err
	}
	manySizes, err := parseProcs("-manyprocs-sizes", manySz)
	if err != nil {
		return err
	}
	walkSizes, err := parseProcs("-walk-sizes", walkSz)
	if err != nil {
		return err
	}
	benches := map[string]func() error{
		"scrape":     func() error { return runScrape(scrapeProcs, outDir) },
		"walk":       func() error { return runWalk(walkSizes, outDir) },
		"manyprocs":  func() error { return runManyprocs(manySizes, outDir) },
		"federation": func() error { return runFederation(outDir) },
		"autotune":   func() error { return runAutotune(outDir) },
	}
	bench, ok := benches[name]
	if !ok {
		return fmt.Errorf("unknown benchmark %q (want scrape, walk, manyprocs, federation or autotune)", name)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return bench()
}

// runScrape benchmarks the render at each registry size; the canonical
// 100-process point lands in BENCH_scrape.json, other sizes in
// BENCH_scrape_<procs>.json.
func runScrape(sizes []int, outDir string) error {
	for _, procs := range sizes {
		artifact := "scrape"
		if procs != 100 {
			artifact = fmt.Sprintf("scrape_%d", procs)
		}
		if err := writeBenchResult(artifact, testing.Benchmark(benchScrapeN(procs)), outDir); err != nil {
			return err
		}
	}
	return nil
}
