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
	"accrual/internal/detectors"
	"accrual/internal/service"
)

// walkDetector names the detector the walk and scrape benchmarks
// evaluate, and walkInterval its expected heartbeat interval: accruald's
// defaults (-detector phi -interval 1s), so they measure the level
// function the daemon actually ships with rather than the cheapest one.
const (
	walkDetector = "phi"
	walkInterval = time.Second
)

// walkFactory builds walkDetector the way accruald's default flags do.
var walkFactory = mustFactory(walkDetector, walkInterval, "default")

// mustFactory is the daemon's detectors.Factory for a kind known to
// exist.
func mustFactory(kind string, interval time.Duration, profile string) service.Factory {
	f, err := detectors.Factory(kind, interval, profile)
	if err != nil {
		panic(err)
	}
	return f
}

// walkPoint is one cell of the evaluation-plane sweep: a registry size
// crossed with one full-fleet read path. NsPerOp is one complete pass
// over the whole registry; NsPerProc is that divided by the membership,
// the number the ≥5× read-path speedup target is stated in.
type walkPoint struct {
	Procs       int     `json:"procs"`
	Path        string  `json:"path"`
	Shards      int     `json:"shards"`
	NsPerOp     float64 `json:"ns_per_op"`
	NsPerProc   float64 `json:"ns_per_proc"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// walkBenchResult is the single BENCH_walk.json artifact: the full
// size × path matrix in one committed file.
type walkBenchResult struct {
	Name     string      `json:"name"`
	Detector string      `json:"detector"`
	Points   []walkPoint `json:"points"`
}

// walkMonitor registers procs processes and advances the clock so every
// entry carries a live eval snapshot — the steady state the walk paths
// read. Large registries get the 512-shard layout the membership-scale
// guidance prescribes.
func walkMonitor(procs int) *service.Monitor {
	shards := 64
	if procs > 100_000 {
		shards = 512
	}
	clk := clock.NewManual(time.Date(2005, 3, 22, 0, 0, 0, 0, time.UTC))
	mon := service.NewMonitor(clk, walkFactory, service.WithShardCount(shards))
	arrived := mon.Now()
	for i := 0; i < procs; i++ {
		id := fmt.Sprintf("proc-%07d", i)
		if err := mon.Heartbeat(core.Heartbeat{From: id, Seq: 1, Arrived: arrived}); err != nil {
			panic(fmt.Sprintf("walk: register %s: %v", id, err))
		}
	}
	clk.Advance(time.Second)
	return mon
}

// walkBenchmarks returns the read-path benchmarks for one prepared
// monitor. Each path makes one full-fleet pass per op; the sink defeats
// dead-code elimination without allocating.
func walkBenchmarks(mon *service.Monitor) []struct {
	path string
	fn   func(*testing.B)
} {
	var sink atomic.Uint64
	levelFn := func(id string, lvl core.Level) { sink.Add(uint64(len(id))) }
	infoFn := func(info service.ProcessInfo) { sink.Add(uint64(len(info.ID))) }
	return []struct {
		path string
		fn   func(*testing.B)
	}{
		{"each_level", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mon.EachLevel(levelFn)
			}
		}},
		{"top_k", func(b *testing.B) {
			dst := make([]service.RankedProcess, 0, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = mon.TopK(64, dst[:0])
			}
		}},
		{"each_info", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mon.EachInfo(infoFn)
			}
		}},
	}
}

// runWalk sweeps registry sizes across the three full-fleet read paths
// and writes the whole matrix to BENCH_walk.json in outDir.
func runWalk(sizes []int, outDir string) error {
	res := walkBenchResult{Name: "walk", Detector: walkDetector}
	for _, procs := range sizes {
		mon := walkMonitor(procs)
		for _, wb := range walkBenchmarks(mon) {
			r := testing.Benchmark(wb.fn)
			nsPerOp := float64(r.T.Nanoseconds()) / float64(r.N)
			pt := walkPoint{
				Procs:       procs,
				Path:        wb.path,
				Shards:      mon.ShardCount(),
				NsPerOp:     nsPerOp,
				NsPerProc:   nsPerOp / float64(procs),
				AllocsPerOp: r.AllocsPerOp(),
				BytesPerOp:  r.AllocedBytesPerOp(),
			}
			res.Points = append(res.Points, pt)
			fmt.Printf("walk: procs=%d path=%s shards=%d %.0f ns/op, %.2f ns/proc, %d allocs/op\n",
				pt.Procs, pt.Path, pt.Shards, pt.NsPerOp, pt.NsPerProc, pt.AllocsPerOp)
		}
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	path := filepath.Join(outDir, "BENCH_walk.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("walk: %d points -> %s\n", len(res.Points), path)
	return nil
}
