package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"accrual/internal/clock"
	"accrual/internal/core"
	"accrual/internal/service"
	"accrual/internal/telemetry"
)

// manyprocsPoint is one cell of the membership-scale sweep: a registry
// size crossed with a memory profile, measured on the real service
// stack (slab registry and its id index, φ detectors with profile-sized
// windows, telemetry on).
type manyprocsPoint struct {
	Procs   int    `json:"procs"`
	Profile string `json:"profile"`
	Shards  int    `json:"shards"`
	Window  int    `json:"window"`
	// NsPerBeat is the steady-state cost of one ingested heartbeat
	// under a parallel hammer that also queries suspicion levels.
	NsPerBeat float64 `json:"ns_per_beat"`
	// HeapBytesPerProc is the marginal live-heap cost of one monitored
	// process: (heap after registration - heap before) / procs, after
	// double GC on both sides. Id string bytes are excluded (they are
	// generated before the baseline and shared with the caller).
	HeapBytesPerProc float64 `json:"heap_bytes_per_proc"`
	// RSSBytes is the process resident set after registration.
	RSSBytes int64 `json:"rss_bytes"`
	// RSSBytesPerProc is RSSBytes / procs: what one monitored process
	// costs in resident memory at this scale, runtime baseline
	// amortised over the membership.
	RSSBytesPerProc float64 `json:"rss_bytes_per_proc"`
}

// manyprocsResult is the single BENCH_manyprocs.json artifact: the full
// size × profile matrix, so the scaling curve 10k → 100k → 1M is one
// committed file.
type manyprocsResult struct {
	Name     string           `json:"name"`
	Detector string           `json:"detector"`
	Points   []manyprocsPoint `json:"points"`
}

// readRSS returns the resident set size in bytes from /proc/self/statm,
// or 0 where that interface does not exist.
func readRSS() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var size, resident int64
	if _, err := fmt.Sscan(string(data), &size, &resident); err != nil {
		return 0
	}
	return resident * int64(os.Getpagesize())
}

// manyprocsIDs builds the id universe once per size, outside the heap
// measurement window, so the registry cost measured is the monitor's
// own structures rather than the caller's key strings.
func manyprocsIDs(procs int) []string {
	ids := make([]string, procs)
	for i := range ids {
		ids[i] = fmt.Sprintf("proc-%07d", i)
	}
	return ids
}

// runManyprocsPoint registers procs processes under the given profile
// and measures per-process memory and per-beat ingest cost.
func runManyprocsPoint(ids []string, profile string) manyprocsPoint {
	procs := len(ids)
	const interval = 100 * time.Millisecond
	factory := mustFactory("phi", interval, profile)
	window := factory("", time.Time{}).TuneInfo().WindowSize

	// Settle the heap so the registration delta is the registry's own.
	debug.FreeOSMemory()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	hub := telemetry.NewHub()
	clk := clock.NewManual(time.Date(2005, 3, 22, 0, 0, 0, 0, time.UTC))
	mon := service.NewMonitor(clk, factory, service.WithTelemetry(hub))

	arrived := mon.Now()
	for i, id := range ids {
		if err := mon.Heartbeat(core.Heartbeat{From: id, Seq: 1, Arrived: arrived}); err != nil {
			panic(fmt.Sprintf("manyprocs: register %s: %v", ids[i], err))
		}
	}

	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	rss := readRSS()

	// Parallel hammer: every worker owns a contiguous id range, beats
	// it for enough rounds to total ~2M heartbeats, and queries the
	// suspicion level every 8th beat — ingest and read paths together,
	// the shape a loaded daemon actually runs.
	rounds := 2
	if procs < 1_000_000 {
		rounds = (2_000_000 + procs - 1) / procs
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > procs {
		workers = procs
	}
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		lo := procs * w / workers
		hi := procs * (w + 1) / workers
		wg.Add(1)
		go func(own []string) {
			defer wg.Done()
			beat := 0
			for r := 0; r < rounds; r++ {
				seq := uint64(2 + r)
				for _, id := range own {
					if err := mon.Heartbeat(core.Heartbeat{From: id, Seq: seq, Arrived: arrived}); err != nil {
						panic(fmt.Sprintf("manyprocs: beat %s: %v", id, err))
					}
					if beat%8 == 0 {
						if _, err := mon.Suspicion(id); err != nil {
							panic(fmt.Sprintf("manyprocs: query %s: %v", id, err))
						}
					}
					beat++
				}
			}
		}(ids[lo:hi])
	}
	wg.Wait()
	elapsed := time.Since(start)
	totalBeats := procs * rounds

	pt := manyprocsPoint{
		Procs:     procs,
		Profile:   profile,
		Shards:    mon.ShardCount(),
		Window:    window,
		NsPerBeat: float64(elapsed.Nanoseconds()) / float64(totalBeats),
		RSSBytes:  rss,
	}
	if heapDelta := int64(after.HeapAlloc) - int64(before.HeapAlloc); heapDelta > 0 {
		pt.HeapBytesPerProc = float64(heapDelta) / float64(procs)
	}
	if rss > 0 {
		pt.RSSBytesPerProc = float64(rss) / float64(procs)
	}
	runtime.KeepAlive(mon)
	return pt
}

// runManyprocs sweeps registry sizes crossed with the Default and
// Compact profiles and writes the whole curve to
// BENCH_manyprocs.json in outDir.
func runManyprocs(sizes []int, outDir string) error {
	res := manyprocsResult{Name: "manyprocs", Detector: "phi"}
	for _, procs := range sizes {
		ids := manyprocsIDs(procs)
		for _, profile := range []string{"default", "compact"} {
			pt := runManyprocsPoint(ids, profile)
			res.Points = append(res.Points, pt)
			fmt.Printf("manyprocs: procs=%d profile=%s shards=%d window=%d %.1f ns/beat, %.1f heap B/proc, %.1f rss B/proc\n",
				pt.Procs, pt.Profile, pt.Shards, pt.Window, pt.NsPerBeat, pt.HeapBytesPerProc, pt.RSSBytesPerProc)
		}
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	path := filepath.Join(outDir, "BENCH_manyprocs.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("manyprocs: %d points -> %s\n", len(res.Points), path)
	return nil
}
