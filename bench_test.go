// Benchmarks regenerating every experiment of EXPERIMENTS.md (one bench
// per table/figure; the bench body runs the full experiment and checks
// its claims) plus the micro-benchmarks of the detection pipeline (E12)
// and the ablation benches called out in DESIGN.md.
package accrual_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"accrual/internal/bertier"
	"accrual/internal/chen"
	"accrual/internal/clock"
	"accrual/internal/core"
	"accrual/internal/experiments"
	"accrual/internal/kappa"
	"accrual/internal/phi"
	"accrual/internal/qos"
	"accrual/internal/service"
	"accrual/internal/simple"
	"accrual/internal/stats"
	"accrual/internal/telemetry"
	"accrual/internal/transform"
	"accrual/internal/transport"
)

// benchExperiment runs one full experiment per iteration — at the
// canonical seed, so every iteration is the identical deterministic
// computation — and fails the bench if any paper claim check fails.
// (Seed-space robustness is covered by TestExperimentsAlternateSeed in
// internal/experiments, not by the benchmarks.)
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	run := experiments.Registry()[id]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		table := run(42)
		if !table.Passed() {
			for _, c := range table.Checks {
				if !c.Pass {
					b.Fatalf("%s check %s failed: %s", id, c.Name, c.Detail)
				}
			}
		}
	}
}

func BenchmarkE1ThresholdSweep(b *testing.B)     { benchExperiment(b, "E1") }
func BenchmarkE2TwoThreshold(b *testing.B)       { benchExperiment(b, "E2") }
func BenchmarkE3AccrualToBinary(b *testing.B)    { benchExperiment(b, "E3") }
func BenchmarkE4BinaryToAccrual(b *testing.B)    { benchExperiment(b, "E4") }
func BenchmarkE5Adversary(b *testing.B)          { benchExperiment(b, "E5") }
func BenchmarkE6DetectorComparison(b *testing.B) { benchExperiment(b, "E6") }
func BenchmarkE7AccruementRate(b *testing.B)     { benchExperiment(b, "E7") }
func BenchmarkE8PhiCalibration(b *testing.B)     { benchExperiment(b, "E8") }
func BenchmarkE9MultiQoS(b *testing.B)           { benchExperiment(b, "E9") }
func BenchmarkE10Consensus(b *testing.B)         { benchExperiment(b, "E10") }
func BenchmarkE11BagOfTasks(b *testing.B)        { benchExperiment(b, "E11") }
func BenchmarkE13GossipScale(b *testing.B)       { benchExperiment(b, "E13") }
func BenchmarkE14ReplicatedLog(b *testing.B)     { benchExperiment(b, "E14") }

var benchStart = time.Date(2005, 3, 22, 0, 0, 0, 0, time.UTC)

// warmDetector feeds n regular heartbeats and returns the last arrival.
func warmDetector(d core.Detector, n int) time.Time {
	at := benchStart
	for i := 1; i <= n; i++ {
		at = at.Add(100 * time.Millisecond)
		d.Report(core.Heartbeat{From: "p", Seq: uint64(i), Arrived: at})
	}
	return at
}

func benchDetectors() []struct {
	name string
	mk   func() core.Detector
} {
	return []struct {
		name string
		mk   func() core.Detector
	}{
		{"Simple", func() core.Detector { return simple.New(benchStart) }},
		{"Chen", func() core.Detector { return chen.New(benchStart, 100*time.Millisecond) }},
		{"Phi", func() core.Detector {
			return phi.New(benchStart, phi.WithBootstrap(100*time.Millisecond, 25*time.Millisecond))
		}},
		{"Kappa", func() core.Detector { return kappa.New(benchStart, kappa.PLater{}) }},
	}
}

// BenchmarkIngest measures the monitoring half of the pipeline (E12):
// heartbeat ingestion per detector.
func BenchmarkIngest(b *testing.B) {
	for _, d := range benchDetectors() {
		b.Run(d.name, func(b *testing.B) {
			det := d.mk()
			at := warmDetector(det, 1000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at = at.Add(100 * time.Millisecond)
				det.Report(core.Heartbeat{From: "p", Seq: uint64(1001 + i), Arrived: at})
			}
		})
	}
}

// BenchmarkQuery measures the interpretation input half (E12): suspicion
// queries in the healthy steady state.
func BenchmarkQuery(b *testing.B) {
	for _, d := range benchDetectors() {
		b.Run(d.name, func(b *testing.B) {
			det := d.mk()
			at := warmDetector(det, 1000)
			q := at.Add(50 * time.Millisecond)
			var sink core.Level
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += det.Suspicion(q)
			}
			_ = sink
		})
	}
}

// BenchmarkQueryCrashed measures queries long after a crash, where κ must
// not degrade with the number of missed heartbeats.
func BenchmarkQueryCrashed(b *testing.B) {
	for _, d := range benchDetectors() {
		b.Run(d.name, func(b *testing.B) {
			det := d.mk()
			at := warmDetector(det, 1000)
			q := at.Add(time.Hour) // 36k missed heartbeats
			var sink core.Level
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += det.Suspicion(q)
			}
			_ = sink
		})
	}
}

// simpleMonitorFactory is the cheapest detector, so the Monitor benches
// below measure the service's locking overhead, not detector math.
func simpleMonitorFactory(_ string, start time.Time) core.Detector {
	return simple.New(start)
}

// BenchmarkIngestParallel measures heartbeat ingest throughput with one
// goroutine per core, each hammering its own monitored process — the
// workload the sharded registry is built for: heartbeats for different
// processes must never contend. The bare/telemetry sub-benchmarks pin
// the cost of the striped counters on the hot path: telemetry must stay
// zero-alloc and within a few ns/op of bare.
func BenchmarkIngestParallel(b *testing.B) {
	for _, variant := range []struct {
		name string
		opts []service.MonitorOption
	}{
		{"bare", nil},
		{"telemetry", []service.MonitorOption{service.WithTelemetry(telemetry.NewHub())}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			mon := service.NewMonitor(clock.NewManual(benchStart), simpleMonitorFactory, variant.opts...)
			var nextID atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				id := fmt.Sprintf("proc-%d", nextID.Add(1))
				at := benchStart
				var seq uint64
				for pb.Next() {
					seq++
					at = at.Add(100 * time.Millisecond)
					if err := mon.Heartbeat(core.Heartbeat{From: id, Seq: seq, Arrived: at}); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// TestIngestHotPathZeroAlloc is the allocation budget as a plain test, so
// `go test ./...` (and CI) catches a regression without anyone reading
// benchmark output: the instrumented heartbeat and query paths must not
// allocate in steady state.
func TestIngestHotPathZeroAlloc(t *testing.T) {
	mon := service.NewMonitor(clock.NewManual(benchStart), simpleMonitorFactory,
		service.WithTelemetry(telemetry.NewHub()))
	at := benchStart
	var seq uint64
	if err := mon.Heartbeat(core.Heartbeat{From: "p", Seq: 1, Arrived: at}); err != nil {
		t.Fatal(err)
	}
	seq = 1
	if allocs := testing.AllocsPerRun(1000, func() {
		seq++
		at = at.Add(100 * time.Millisecond)
		if err := mon.Heartbeat(core.Heartbeat{From: "p", Seq: seq, Arrived: at}); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("instrumented heartbeat ingest: %.1f allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, err := mon.Suspicion("p"); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("instrumented suspicion query: %.1f allocs/op, want 0", allocs)
	}
}

// newScrapeAPI builds a telemetry-wired API over a procs-process
// registry with live QoS estimates — the fixture behind the scrape
// benchmark and its zero-alloc gate. The clock ends past the last
// arrival, so every level the render evaluates is a non-trivial one.
func newScrapeAPI(tb testing.TB, procs int, factory service.Factory) (*transport.API, *service.Monitor) {
	tb.Helper()
	hub := telemetry.NewHub()
	clk := clock.NewManual(benchStart)
	mon := service.NewMonitor(clk, factory, service.WithTelemetry(hub))
	for seq := uint64(1); seq <= 3; seq++ {
		at := clk.Advance(time.Second)
		for i := 0; i < procs; i++ {
			id := fmt.Sprintf("proc-%06d", i)
			if err := mon.Heartbeat(core.Heartbeat{From: id, Seq: seq, Arrived: at}); err != nil {
				tb.Fatal(err)
			}
		}
	}
	clk.Advance(1500 * time.Millisecond)
	hub.QoS().Sample(mon)
	return transport.NewAPI(mon, transport.WithAPITelemetry(hub)), mon
}

// countingDiscard counts bytes and drops them, so scrape measurements
// cover only the render itself.
type countingDiscard struct{ n int64 }

func (c *countingDiscard) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// BenchmarkScrape measures one full /v1/metrics render over a warm
// 100-process registry — the pooled, append-encoded exposition path.
func BenchmarkScrape(b *testing.B) {
	api, _ := newScrapeAPI(b, 100, simpleMonitorFactory)
	cw := &countingDiscard{}
	if err := api.WriteMetrics(cw); err != nil { // warm pools and header cache
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
}

// TestScrapeSteadyStateZeroAlloc is the scrape allocation budget as a
// plain test: after a warm-up render, a full /v1/metrics render must not
// allocate, and a cursor page may allocate at most once (the
// continuation bookkeeping). Nor may it sort: the per-shard id order is
// cached against the membership, which these renders do not change.
func TestScrapeSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector defeats sync.Pool reuse; allocation budget not meaningful")
	}
	// Every detector kind the daemon can run: the render evaluates one
	// level per process, so a level function that allocates shows here.
	for _, k := range []struct {
		name    string
		factory service.Factory
	}{
		{"simple", simpleMonitorFactory},
		{"chen", func(_ string, st time.Time) core.Detector { return chen.New(st, time.Second) }},
		{"phi", func(_ string, st time.Time) core.Detector {
			return phi.New(st, phi.WithBootstrap(time.Second, time.Second/4))
		}},
		{"phi-erlang", func(_ string, st time.Time) core.Detector {
			return phi.New(st, phi.WithBootstrap(time.Second, time.Second/4), phi.WithModel(phi.ModelErlang))
		}},
		{"kappa", func(_ string, st time.Time) core.Detector {
			return kappa.New(st, kappa.PLater{}, kappa.WithFixedInterval(time.Second))
		}},
		{"bertier", func(_ string, st time.Time) core.Detector { return bertier.New(st, time.Second) }},
	} {
		t.Run(k.name, func(t *testing.T) {
			api, mon := newScrapeAPI(t, 100, k.factory)
			cw := &countingDiscard{}
			if err := api.WriteMetrics(cw); err != nil {
				t.Fatal(err)
			}
			rebuilds := mon.ShardOrderRebuilds()
			if allocs := testing.AllocsPerRun(100, func() {
				if err := api.WriteMetrics(cw); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("steady-state scrape render: %.1f allocs/op, want 0", allocs)
			}
			if allocs := testing.AllocsPerRun(100, func() {
				if _, err := api.WriteMetricsPage(cw, 0, 10); err != nil {
					t.Fatal(err)
				}
			}); allocs > 1 {
				t.Errorf("cursor page render: %.1f allocs/op, want <= 1", allocs)
			}
			if got := mon.ShardOrderRebuilds() - rebuilds; got != 0 {
				t.Errorf("steady-state renders rebuilt %d shard orders, want 0", got)
			}
		})
	}
}

// BenchmarkQueryParallel measures suspicion-query throughput with one
// goroutine per core querying across a warm 128-process registry.
func BenchmarkQueryParallel(b *testing.B) {
	mon := service.NewMonitor(clock.Wall{}, simpleMonitorFactory)
	const procs = 128
	ids := make([]string, procs)
	at := time.Now()
	for i := range ids {
		ids[i] = fmt.Sprintf("proc-%d", i)
		if err := mon.Heartbeat(core.Heartbeat{From: ids[i], Seq: 1, Arrived: at}); err != nil {
			b.Fatal(err)
		}
	}
	var nextOff atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(nextOff.Add(31)) // co-prime stride spreads goroutines over ids
		for pb.Next() {
			i++
			if _, err := mon.Suspicion(ids[i%procs]); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkMonitorManyProcs measures a 10k-process fan-in: parallel
// ingest across the whole membership with a suspicion query mixed in
// every eighth operation, the shape of a large gossip-scale deployment.
func BenchmarkMonitorManyProcs(b *testing.B) {
	mon := service.NewMonitor(clock.Wall{}, simpleMonitorFactory)
	const procs = 10_000
	ids := make([]string, procs)
	at := time.Now()
	for i := range ids {
		ids[i] = fmt.Sprintf("proc-%05d", i)
		if err := mon.Heartbeat(core.Heartbeat{From: ids[i], Seq: 1, Arrived: at}); err != nil {
			b.Fatal(err)
		}
	}
	// One global sequence counter: values are unique and increasing, so
	// every process sees a strictly increasing heartbeat stream no matter
	// how goroutines interleave over the id space.
	var seq atomic.Uint64
	seq.Store(1)
	var nextOff atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(nextOff.Add(7919)) // co-prime stride over the 10k ids
		for pb.Next() {
			i++
			id := ids[i%procs]
			if i%8 == 0 {
				if _, err := mon.Suspicion(id); err != nil {
					b.Error(err)
					return
				}
				continue
			}
			hb := core.Heartbeat{From: id, Seq: seq.Add(1), Arrived: at}
			if err := mon.Heartbeat(hb); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkTransformAlgorithm1 measures one query step of the paper's
// Algorithm 1.
func BenchmarkTransformAlgorithm1(b *testing.B) {
	det := phi.New(benchStart, phi.WithBootstrap(100*time.Millisecond, 25*time.Millisecond))
	at := warmDetector(det, 1000)
	alg := transform.NewAccrualToBinary(transform.FromDetector(det))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alg.Query(at.Add(time.Duration(i) * time.Millisecond))
	}
}

// BenchmarkQoSEvaluate measures metric computation over a 1000-transition
// trace.
func BenchmarkQoSEvaluate(b *testing.B) {
	var trs []core.Transition
	at := benchStart
	for i := 0; i < 1000; i++ {
		at = at.Add(time.Second)
		kind := core.STransition
		if i%2 == 1 {
			kind = core.TTransition
		}
		trs = append(trs, core.Transition{At: at, Kind: kind})
	}
	in := qos.Input{Transitions: trs, Start: benchStart, End: at.Add(time.Minute)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := qos.Evaluate(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPacketCodec measures the UDP wire codec round trip.
func BenchmarkPacketCodec(b *testing.B) {
	hb := core.Heartbeat{From: "worker-042", Seq: 7, Sent: benchStart}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, err := transport.MarshalHeartbeat(hb)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := transport.UnmarshalHeartbeat(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWindowPush measures the sliding-window estimator update.
func BenchmarkWindowPush(b *testing.B) {
	w := stats.NewWindow(200)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Push(float64(i % 100))
	}
}

// BenchmarkAblationWindow sweeps the φ estimation window size — the
// estimator-freshness vs noise tradeoff called out in DESIGN.md.
func BenchmarkAblationWindow(b *testing.B) {
	for _, size := range []int{10, 50, 200, 1000} {
		b.Run(fmt.Sprintf("w%d", size), func(b *testing.B) {
			det := phi.New(benchStart, phi.WithWindowSize(size),
				phi.WithBootstrap(100*time.Millisecond, 25*time.Millisecond))
			at := warmDetector(det, 2*size)
			q := at.Add(50 * time.Millisecond)
			var sink core.Level
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at = at.Add(100 * time.Millisecond)
				det.Report(core.Heartbeat{From: "p", Seq: uint64(2*size + i + 1), Arrived: at})
				sink += det.Suspicion(q)
			}
			_ = sink
		})
	}
}

// BenchmarkAblationPhiDist compares the φ detector's distribution models.
func BenchmarkAblationPhiDist(b *testing.B) {
	for _, m := range []phi.Model{phi.ModelNormal, phi.ModelExponential} {
		b.Run(m.String(), func(b *testing.B) {
			det := phi.New(benchStart, phi.WithModel(m),
				phi.WithBootstrap(100*time.Millisecond, 25*time.Millisecond))
			at := warmDetector(det, 1000)
			q := at.Add(250 * time.Millisecond)
			var sink float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += det.Phi(q)
			}
			_ = sink
		})
	}
}

// BenchmarkAblationKappaContribution compares κ contribution functions.
func BenchmarkAblationKappaContribution(b *testing.B) {
	contribs := []struct {
		name string
		c    kappa.Contribution
	}{
		{"step", kappa.Step{Timeout: 150 * time.Millisecond}},
		{"ramp", kappa.Ramp{Start: 50 * time.Millisecond, End: 250 * time.Millisecond}},
		{"plater", kappa.PLater{}},
	}
	for _, c := range contribs {
		b.Run(c.name, func(b *testing.B) {
			det := kappa.New(benchStart, c.c)
			at := warmDetector(det, 1000)
			q := at.Add(450 * time.Millisecond)
			var sink core.Level
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += det.Suspicion(q)
			}
			_ = sink
		})
	}
}
