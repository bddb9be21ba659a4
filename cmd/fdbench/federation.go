package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"accrual/internal/clock"
	"accrual/internal/core"
	"accrual/internal/federation"
	"accrual/internal/service"
	"accrual/internal/simple"
	"accrual/internal/telemetry"
	"accrual/internal/transport"
)

// federationResult is the single BENCH_federation.json artifact: the
// AFG1 codec's per-frame cost on a populated registry plus a measured
// cross-peer crash-detection time over real loopback gossip.
type federationResult struct {
	Name string `json:"name"`
	// Encode side: one EncodeRound (registry walk, top-k selection,
	// group rollup, AFG1 framing) over Procs processes in Groups groups.
	Procs             int     `json:"procs"`
	Groups            int     `json:"groups"`
	TopK              int     `json:"top_k"`
	FrameBytes        int     `json:"frame_bytes"`
	EncodeNsPerOp     float64 `json:"encode_ns_per_op"`
	EncodeAllocsPerOp int64   `json:"encode_allocs_per_op"`
	// Decode side: one UnmarshalDigest of that frame with a warm
	// interner.
	DecodeNsPerOp     float64 `json:"decode_ns_per_op"`
	DecodeAllocsPerOp int64   `json:"decode_allocs_per_op"`
	// End-to-end: two gossiping peers on loopback, a worker heartbeating
	// only to the first; seconds from the worker stopping until the
	// second peer's merged view crosses the suspicion threshold.
	GossipIntervalMs      float64 `json:"gossip_interval_ms"`
	CrashThreshold        float64 `json:"crash_threshold"`
	CrashDetectionSeconds float64 `json:"crash_detection_seconds"`
	VisibilitySeconds     float64 `json:"visibility_seconds"`
}

const (
	fedBenchProcs  = 10000
	fedBenchGroups = 16
)

// fedBenchPeer builds a populated monitor + federation pair on a manual
// clock: fedBenchProcs processes spread over fedBenchGroups groups, all
// heartbeating once so every entry carries a live arrival stamp.
func fedBenchPeer() *federation.Federation {
	hub := telemetry.NewHub()
	clk := clock.NewManual(time.Date(2005, 3, 22, 0, 0, 0, 0, time.UTC))
	mon := service.NewMonitor(clk, func(_ string, start time.Time) core.Detector {
		return simple.New(start)
	}, service.WithTelemetry(hub), service.WithGroupFn(func(id string) string {
		return id[:len("grp-00")]
	}))
	arrived := mon.Now()
	for i := 0; i < fedBenchProcs; i++ {
		id := fmt.Sprintf("grp-%02d-proc-%05d", i%fedBenchGroups, i)
		if err := mon.Heartbeat(core.Heartbeat{From: id, Seq: 1, Arrived: arrived}); err != nil {
			panic(fmt.Sprintf("federation bench: register %s: %v", id, err))
		}
	}
	clk.Advance(3 * time.Second) // give the suspects non-zero levels and ages
	fed, err := federation.New(federation.Config{
		Self:    "bench",
		Monitor: mon,
		Hub:     hub,
		Clock:   clk,
	})
	if err != nil {
		panic(fmt.Sprintf("federation bench: %v", err))
	}
	return fed
}

// fedBenchFrame renders one representative AFG1 frame: the same shape
// EncodeRound emits for the benchmark registry (default top-k suspects,
// every group rollup).
func fedBenchFrame() []byte {
	// EncodeRound keeps its frame private; render an equivalent one.
	d := transport.Digest{
		Origin: "bench",
		Seq:    1,
		Sent:   time.Date(2005, 3, 22, 0, 0, 3, 0, time.UTC),
		Procs:  fedBenchProcs,
	}
	for i := 0; i < federation.DefaultTopK; i++ {
		d.Suspects = append(d.Suspects, transport.DigestSuspect{
			ID:    fmt.Sprintf("grp-%02d-proc-%05d", i%fedBenchGroups, i),
			Level: 3,
			Age:   3 * time.Second,
		})
	}
	for g := 0; g < fedBenchGroups; g++ {
		d.Groups = append(d.Groups, transport.DigestGroup{
			Group:  fmt.Sprintf("grp-%02d", g),
			Procs:  fedBenchProcs / fedBenchGroups,
			Impact: 3 * fedBenchProcs / fedBenchGroups,
			Max:    3,
		})
	}
	buf, err := transport.MarshalDigest(&d)
	if err != nil {
		panic(fmt.Sprintf("federation bench: %v", err))
	}
	return buf
}

// fedCrashDetection runs the cross-peer e2e on loopback: two gossiping
// daemons-in-miniature, a worker heartbeating only to the first, and a
// wall-clock stopwatch from the worker's crash until the second peer's
// merged view crosses the threshold. Also returns how long initial
// visibility took.
func fedCrashDetection(interval time.Duration, threshold float64) (visibility, detection time.Duration, err error) {
	type peer struct {
		mon *service.Monitor
		ln  *transport.Listener
		fed atomic.Pointer[federation.Federation]
	}
	names := []string{"alpha", "bravo"}
	peers := make([]*peer, len(names))
	for i, name := range names {
		p := &peer{}
		group := name
		p.mon = service.NewMonitor(clock.Wall{}, func(_ string, start time.Time) core.Detector {
			return simple.New(start)
		}, service.WithGroupFn(func(string) string { return group }))
		p.ln, err = transport.Listen("127.0.0.1:0", p.mon,
			transport.WithDigestHandler(func(d *transport.Digest, arrived time.Time) {
				if f := p.fed.Load(); f != nil {
					f.HandleDigest(d, arrived)
				}
			}))
		if err != nil {
			return 0, 0, err
		}
		defer p.ln.Close()
		peers[i] = p
	}
	for i, p := range peers {
		fed, ferr := federation.New(federation.Config{
			Self:     names[i],
			Peers:    []string{peers[1-i].ln.Addr().String()},
			Monitor:  p.mon,
			Interval: interval,
			Fanout:   1,
			Seed:     uint64(i + 1),
		})
		if ferr != nil {
			return 0, 0, ferr
		}
		p.fed.Store(fed)
		defer fed.Close()
	}
	// Gossip as accruald schedules it: one round now, then one per
	// interval; the deferred join runs before the sockets close.
	ctx, cancel := context.WithCancel(context.Background())
	loops := make([]<-chan struct{}, len(peers))
	for i, p := range peers {
		fed := p.fed.Load()
		fed.Round()
		loops[i] = clock.Every(ctx, interval, fed.Round)
	}
	defer func() {
		cancel()
		for _, done := range loops {
			<-done
		}
	}()
	alpha, bravo := peers[0], peers[1]

	sender, err := transport.NewSender("worker-1", alpha.ln.Addr().String(), interval/2)
	if err != nil {
		return 0, 0, err
	}
	if err := sender.Start(); err != nil {
		return 0, 0, err
	}

	level := func() (float64, bool) {
		info := bravo.fed.Load().ClusterInfo()
		for _, s := range info.Suspects {
			if s.ID == "worker-1" {
				return s.Level, true
			}
		}
		return 0, false
	}
	wait := func(timeout time.Duration, cond func() bool) bool {
		deadline := time.Now().Add(timeout)
		for time.Now().Before(deadline) {
			if cond() {
				return true
			}
			time.Sleep(time.Millisecond)
		}
		return false
	}

	t0 := time.Now()
	if !wait(10*time.Second, func() bool { _, ok := level(); return ok }) {
		sender.Stop()
		return 0, 0, fmt.Errorf("worker never became visible on the remote peer")
	}
	visibility = time.Since(t0)

	sender.Stop()
	t1 := time.Now()
	if !wait(30*time.Second, func() bool { l, ok := level(); return ok && l > threshold }) {
		return visibility, 0, fmt.Errorf("crash never crossed threshold %v on the remote peer", threshold)
	}
	return visibility, time.Since(t1), nil
}

// runFederation measures the AFG1 codec and the loopback crash-detection
// e2e and writes BENCH_federation.json into outDir.
func runFederation(outDir string) error {
	fed := fedBenchPeer()
	frameBytes, err := fed.EncodeRound()
	if err != nil {
		return fmt.Errorf("federation bench: %w", err)
	}
	enc := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := fed.EncodeRound(); err != nil {
				b.Fatal(err)
			}
		}
	})

	frame := fedBenchFrame()
	intern := transport.NewIDInterner()
	var d transport.Digest
	if err := transport.UnmarshalDigest(frame, &d, intern); err != nil {
		return fmt.Errorf("federation bench: %w", err)
	}
	dec := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := transport.UnmarshalDigest(frame, &d, intern); err != nil {
				b.Fatal(err)
			}
		}
	})

	const (
		gossipInterval = 20 * time.Millisecond
		threshold      = 0.5
	)
	visibility, detection, err := fedCrashDetection(gossipInterval, threshold)
	if err != nil {
		return fmt.Errorf("federation bench: %w", err)
	}

	res := federationResult{
		Name:                  "federation",
		Procs:                 fedBenchProcs,
		Groups:                fedBenchGroups,
		TopK:                  federation.DefaultTopK,
		FrameBytes:            frameBytes,
		EncodeNsPerOp:         float64(enc.T.Nanoseconds()) / float64(enc.N),
		EncodeAllocsPerOp:     enc.AllocsPerOp(),
		DecodeNsPerOp:         float64(dec.T.Nanoseconds()) / float64(dec.N),
		DecodeAllocsPerOp:     dec.AllocsPerOp(),
		GossipIntervalMs:      float64(gossipInterval.Microseconds()) / 1000,
		CrashThreshold:        threshold,
		CrashDetectionSeconds: detection.Seconds(),
		VisibilitySeconds:     visibility.Seconds(),
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	path := filepath.Join(outDir, "BENCH_federation.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("federation: encode %.0f ns/op (%d B frame, %d allocs/op), decode %.0f ns/op (%d allocs/op), crash detected cross-peer in %.2fs -> %s\n",
		res.EncodeNsPerOp, res.FrameBytes, res.EncodeAllocsPerOp,
		res.DecodeNsPerOp, res.DecodeAllocsPerOp, res.CrashDetectionSeconds, path)
	return nil
}
