package transport

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"accrual/internal/clock"
	"accrual/internal/core"
	"accrual/internal/detectors"
	"accrual/internal/service"
	"accrual/internal/simple"
	"accrual/internal/telemetry"
)

// refFNV1a is the registry's shard hash, restated so the reference
// render below shares no code with the scrape it checks.
func refFNV1a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// referencePerProcessSection renders the per-process section the way
// the scrape did before it cached anything: group the live ids by
// shard, sort each group from scratch, ask QoS.Estimate per id, and
// render every line through the label-escaping Sample path.
func referencePerProcessSection(mon *service.Monitor, q *telemetry.QoS) []byte {
	levels := map[string]core.Level{}
	mon.EachLevel(func(id string, lvl core.Level) { levels[id] = lvl })
	byShard := make([][]string, mon.ShardCount())
	for id := range levels {
		s := refFNV1a(id) & uint32(mon.ShardCount()-1)
		byShard[s] = append(byShard[s], id)
	}
	var buf bytes.Buffer
	mw := telemetry.NewMetricWriterChunked(&buf, 0)
	for _, ids := range byShard {
		sort.Strings(ids)
		for _, id := range ids {
			est, ok := q.Estimate(id)
			if !ok { // registered, never sampled: every estimate NaN
				nan := math.NaN()
				est = telemetry.Estimate{LambdaM: nan, PA: nan, TMR: nan, TM: nan, TG: nan}
			}
			proc := telemetry.Label{Name: "proc", Value: id}
			mw.Sample(telemetry.MetricSuspicionLevel, float64(levels[id]), proc)
			mw.Sample(telemetry.MetricQoSLambdaM, est.LambdaM, proc)
			mw.Sample(telemetry.MetricQoSPA, est.PA, proc)
			mw.Sample(telemetry.MetricQoSTMR, est.TMR, proc)
			mw.Sample(telemetry.MetricQoSTM, est.TM, proc)
			mw.Sample(telemetry.MetricQoSTG, est.TG, proc)
		}
	}
	mw.Flush()
	return buf.Bytes()
}

func scrapedPerProcessSection(a *API) []byte {
	var buf bytes.Buffer
	mw := telemetry.NewMetricWriterChunked(&buf, 0)
	a.writePerProcessSamples(mw, 0, 0)
	mw.Flush()
	return buf.Bytes()
}

func requireReferenceRender(t *testing.T, a *API, when string) {
	t.Helper()
	got, want := scrapedPerProcessSection(a), referencePerProcessSection(a.mon, a.hub.QoS())
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: per-process section differs from the reference render\n--- got ---\n%s\n--- want ---\n%s", when, got, want)
	}
}

// TestScrapeEqualsReferenceRenderThroughChurn holds the cached scrape —
// label rendered at bind, shard order cached per membership epoch,
// estimator reached through the binding — to the uncached reference
// after every kind of membership change, between scrapes and during
// them, including an id that needs every label escape. It also pins the
// cost side: scrapes of an unchanged membership rebuild no order.
func TestScrapeEqualsReferenceRenderThroughChurn(t *testing.T) {
	epoch := time.Date(2005, 3, 22, 0, 0, 0, 0, time.UTC)
	clk := clock.NewManual(epoch)
	hub := telemetry.NewHub()
	mon := service.NewMonitor(clk, func(_ string, start time.Time) core.Detector {
		return simple.New(start)
	}, service.WithTelemetry(hub), service.WithShardCount(8))
	api := NewAPI(mon, WithAPITelemetry(hub))
	q := hub.QoS()

	const weird = "we\"ird\\proc\nname"
	id := func(i int) string { return fmt.Sprintf("proc-%03d", i) }
	beat := func(id string, seq uint64) {
		t.Helper()
		if err := mon.Heartbeat(core.Heartbeat{From: id, Seq: seq, Arrived: clk.Now()}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 120; i++ {
		beat(id(i), 1)
	}
	beat(weird, 1)
	requireReferenceRender(t, api, "registered, never sampled")

	clk.Advance(time.Second)
	q.Sample(mon)
	clk.Advance(3 * time.Second) // silent past the reference threshold
	q.Sample(mon)
	for i := 0; i < 120; i += 2 {
		beat(id(i), 2) // half the fleet recovers: T-transitions, finite T_M
	}
	clk.Advance(time.Second)
	q.Sample(mon)
	requireReferenceRender(t, api, "sampled")
	if !bytes.Contains(scrapedPerProcessSection(api), []byte(`accrual_suspicion_level{proc="we\"ird\\proc\nname"} `)) {
		t.Errorf("escaped id not rendered as the golden escaping rows are")
	}

	rebuilds := mon.ShardOrderRebuilds()
	for i := 0; i < 5; i++ {
		clk.Advance(time.Second)
		q.Sample(mon)
		requireReferenceRender(t, api, "steady state")
	}
	if got := mon.ShardOrderRebuilds(); got != rebuilds {
		t.Errorf("steady-state scrapes rebuilt %d shard orders, want 0", got-rebuilds)
	}

	// Between scrapes: leave, join, and leave-and-rejoin (sampled and not).
	for i := 0; i < 20; i++ {
		mon.Deregister(id(i))
	}
	mon.Deregister(weird)
	requireReferenceRender(t, api, "after deregistrations")
	for i := 200; i < 230; i++ {
		beat(id(i), 1)
	}
	for i := 0; i < 10; i++ {
		beat(id(i), 1) // same ids, new bindings, fresh estimators to come
	}
	requireReferenceRender(t, api, "after registrations, before sampling")
	clk.Advance(time.Second)
	q.Sample(mon)
	requireReferenceRender(t, api, "after registrations, sampled")

	// During scrapes: churn, ingest and sampling run against concurrent
	// renders; each time the writers stop, the next render must be exact.
	for round := 0; round < 3; round++ {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		worker := func(fn func(i int)) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					fn(i)
				}
			}()
		}
		worker(func(i int) { mon.Deregister(id(20 + (i*7)%100)) })
		worker(func(i int) {
			now := clk.Advance(time.Millisecond)
			_ = mon.Heartbeat(core.Heartbeat{From: id(20 + i%100), Seq: uint64(10 + i), Arrived: now})
		})
		worker(func(i int) { q.Sample(mon) })
		for r := 0; r < 30; r++ {
			_ = scrapedPerProcessSection(api)
		}
		close(stop)
		wg.Wait()
		clk.Advance(time.Second)
		q.Sample(mon)
		requireReferenceRender(t, api, fmt.Sprintf("quiesced after concurrent churn, round %d", round))
	}
}

// TestLateDeregistrationNoticeKeepsLivesApart is the deregister →
// re-register → late notice interleaving end to end, through the
// Monitor. Deregister tells the QoS layer only after releasing its shard
// lock; here a sampling round holds that notice back while p registers
// again and the round observes the successor at the same instant. The
// notice must still finalise the predecessor's own estimator: exactly one
// detection, a successor that counts only its own samples and carries no
// crash mark, and no scrape that renders the predecessor's T_M.
func TestLateDeregistrationNoticeKeepsLivesApart(t *testing.T) {
	epoch := time.Date(2005, 3, 22, 0, 0, 0, 0, time.UTC)
	clk := clock.NewManual(epoch)
	hub := telemetry.NewHub()
	mon := service.NewMonitor(clk, func(_ string, start time.Time) core.Detector {
		return simple.New(start)
	}, service.WithTelemetry(hub))
	api := NewAPI(mon, WithAPITelemetry(hub))
	q := hub.QoS()
	beat := func(seq uint64) {
		t.Helper()
		if err := mon.Heartbeat(core.Heartbeat{From: "p", Seq: seq, Arrived: clk.Now()}); err != nil {
			t.Fatal(err)
		}
	}
	renderedTM := func(tm float64) bool {
		return strings.Contains(string(scrapedPerProcessSection(api)), fmt.Sprintf("%s{proc=\"p\"} %v\n", telemetry.MetricQoSTM, tm))
	}

	// First life: one mistake, corrected (a T_M no fresh estimator can
	// show), then a crash mark and a suspicion 4s after it.
	beat(1)
	q.Sample(mon)
	clk.Advance(5 * time.Second)
	q.Sample(mon)
	beat(2)
	q.Sample(mon)
	clk.Advance(time.Second)
	q.Sample(mon)
	q.MarkCrashed("p", clk.Now())
	clk.Advance(4 * time.Second)
	q.Sample(mon)
	pred, _ := q.Estimate("p")
	if pred.Status != core.Suspected || pred.TTransitions != 1 || !renderedTM(pred.TM) {
		t.Fatalf("fixture: first life %+v, want suspected after one corrected mistake", pred)
	}

	// Deregister while a round holds the estimator lock, so its notice
	// waits; the successor binds and the round observes it meanwhile.
	q.BeginRound()
	deregistered := make(chan bool)
	go func() { deregistered <- mon.Deregister("p") }()
	for deadline := time.Now().Add(10 * time.Second); mon.Known("p"); runtime.Gosched() {
		if time.Now().After(deadline) {
			q.EndRound()
			t.Fatal("Deregister never unbound p")
		}
	}
	beat(1)
	now := mon.Now()
	mon.EachSeries(now, func(s *telemetry.ProcSeries, lvl core.Level) { q.ObserveSeries(s, lvl, now) })
	q.EndRound()
	if !<-deregistered {
		t.Fatal("Deregister(p) = false")
	}

	if count, td, _ := q.DetectionStats(); count != 1 || td != 4*time.Second {
		t.Errorf("detections = %d with T_D %v, want 1 with 4s", count, td)
	}
	succ, ok := q.Estimate("p")
	if !ok || succ.Samples != 1 || succ.STransitions != 0 || succ.Status != core.Trusted {
		t.Errorf("successor estimate %+v (ok=%v), want one trusted sample of its own", succ, ok)
	}
	requireReferenceRender(t, api, "successor sampled once")
	if renderedTM(pred.TM) {
		t.Errorf("scrape renders the predecessor's T_M %v", pred.TM)
	}

	// The successor carries no crash mark: suspected and deregistered,
	// it is no detection.
	clk.Advance(5 * time.Second)
	q.Sample(mon)
	requireReferenceRender(t, api, "successor suspected")
	if renderedTM(pred.TM) {
		t.Errorf("scrape renders the predecessor's T_M %v", pred.TM)
	}
	if est, _ := q.Estimate("p"); est.Status != core.Suspected {
		t.Fatalf("fixture: successor %+v, want suspected after 5s of silence", est)
	}
	mon.Deregister("p")
	if count, _, _ := q.DetectionStats(); count != 1 {
		t.Errorf("detections = %d after the unmarked successor left, want 1", count)
	}
}

// failAfter accepts n bytes, then fails every write.
type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n < len(p) {
		f.n = 0
		return 0, errors.New("client went away")
	}
	f.n -= len(p)
	return len(p), nil
}

// TestScrapeStopsWalkingForAGoneClient: once a flush has failed, the
// render must stop visiting shards — their walk and estimate gather are
// real work even when every Sample is a no-op.
func TestScrapeStopsWalkingForAGoneClient(t *testing.T) {
	clk := clock.NewManual(time.Date(2005, 3, 22, 0, 0, 0, 0, time.UTC))
	hub := telemetry.NewHub()
	mon := service.NewMonitor(clk, func(_ string, start time.Time) core.Detector {
		return simple.New(start)
	}, service.WithTelemetry(hub), service.WithShardCount(64))
	for i := 0; i < 640; i++ {
		if err := mon.Heartbeat(core.Heartbeat{From: fmt.Sprintf("proc-%04d", i), Seq: 1, Arrived: clk.Now()}); err != nil {
			t.Fatal(err)
		}
	}
	api := NewAPI(mon, WithAPITelemetry(hub))
	visited := 0
	api.onScrapeShard = func(int) { visited++ }

	if err := api.WriteMetrics(&failAfter{n: 1 << 30}); err != nil {
		t.Fatal(err)
	}
	if visited != 64 {
		t.Fatalf("healthy render visited %d shards, want 64", visited)
	}

	// A 1-byte chunk flushes after every line: the sink takes the global
	// section plus a few shards' worth of bytes, then fails.
	var whole bytes.Buffer
	if err := api.WriteMetrics(&whole); err != nil {
		t.Fatal(err)
	}
	perShard := len(scrapedPerProcessSection(api)) / 64
	budget := whole.Len() - 60*perShard // dies about four shards in
	visited = 0
	mw := telemetry.AcquireMetricWriter(&failAfter{n: budget}, 1)
	api.writeMetricsBody(mw, 0, 0)
	mw.Flush()
	if mw.Err() == nil {
		t.Fatal("sink never failed")
	}
	mw.Release()
	if visited < 1 || visited > 8 {
		t.Errorf("render against a sink that failed about four shards in visited %d shards, want a handful, not all 64", visited)
	}
}

// scrapeWalkLookahead restates how many rows ahead the id-ordered walk
// (service's scrapeLookahead) and the estimate gather (telemetry's
// estimateLookahead) prefetch, so the table below puts a shard's row
// count on each side of both.
const scrapeWalkLookahead, gatherLookahead = 16, 8

// perProcessPart cuts the per-process samples out of a full exposition:
// everything after the last per-process header.
func perProcessPart(t *testing.T, full []byte) []byte {
	t.Helper()
	tail := []byte("# TYPE " + telemetry.MetricQoSTG + " gauge\n")
	i := bytes.Index(full, tail)
	if i < 0 {
		t.Fatalf("no %s header in the exposition", telemetry.MetricQoSTG)
	}
	return full[i+len(tail):]
}

// TestScrapeWalkAcrossLookahead holds a full WriteMetrics render to the
// uncached reference for one shard holding 0, 1, D−1, D, D+1 and 3D
// processes, D the walk's prefetch distance (and the gather's on each
// side of its own), for the two production detector kinds. On the
// largest shard it then rebinds a slot inside the prefetch window of the
// walk's first row between two scrapes: the departed id must be gone,
// its successor rendered once, under its own id and its own values.
func TestScrapeWalkAcrossLookahead(t *testing.T) {
	d := scrapeWalkLookahead
	sizes := []int{0, 1, gatherLookahead - 1, gatherLookahead, gatherLookahead + 1, d - 1, d, d + 1, 3 * d}
	for _, kind := range []string{"phi", "kappa"} {
		factory, err := detectors.Factory(kind, time.Second, "default")
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range sizes {
			t.Run(fmt.Sprintf("%s/%d", kind, n), func(t *testing.T) {
				epoch := time.Date(2005, 3, 22, 0, 0, 0, 0, time.UTC)
				clk := clock.NewManual(epoch)
				hub := telemetry.NewHub()
				mon := service.NewMonitor(clk, factory, service.WithTelemetry(hub), service.WithShardCount(1))
				api := NewAPI(mon, WithAPITelemetry(hub))
				q := hub.QoS()
				// Registration order is the reverse of id order, so slab
				// order and the walk's order disagree.
				id := func(i int) string { return fmt.Sprintf("walk-%03d", n-1-i) }
				for seq := uint64(1); seq <= 4; seq++ {
					for i := 0; i < n; i++ {
						if i%3 == 0 && seq > 2 {
							continue // a third of the fleet falls silent
						}
						if err := mon.Heartbeat(core.Heartbeat{From: id(i), Seq: seq, Arrived: clk.Now()}); err != nil {
							t.Fatal(err)
						}
					}
					clk.Advance(time.Second)
					if seq%2 == 0 {
						q.Sample(mon)
					}
				}
				clk.Advance(3 * time.Second)
				q.Sample(mon)

				check := func(when string) []byte {
					t.Helper()
					var full bytes.Buffer
					if err := api.WriteMetrics(&full); err != nil {
						t.Fatal(err)
					}
					got, want := perProcessPart(t, full.Bytes()), referencePerProcessSection(mon, q)
					if !bytes.Equal(got, want) {
						t.Fatalf("%s: per-process section differs from the reference render\n--- got ---\n%s\n--- want ---\n%s", when, got, want)
					}
					return got
				}
				check("first scrape")
				check("second scrape")
				if n != 3*d {
					return
				}

				// Row d/2 of the id order sits inside the window the walk
				// prefetches from its first row. Free its slot and bind a
				// newcomer, which takes the freed slot over, between two
				// scrapes.
				gone := fmt.Sprintf("walk-%03d", d/2)
				if !mon.Deregister(gone) {
					t.Fatalf("deregister %s: not registered", gone)
				}
				const newcomer = "walk-zzz"
				if err := mon.Heartbeat(core.Heartbeat{From: newcomer, Seq: 1, Arrived: clk.Now()}); err != nil {
					t.Fatal(err)
				}
				clk.Advance(time.Second)
				out := check("after the rebind")
				if bytes.Contains(out, []byte(`proc="`+gone+`"`)) {
					t.Errorf("departed %s still rendered", gone)
				}
				if c := bytes.Count(out, []byte(telemetry.MetricSuspicionLevel+`{proc="`+newcomer+`"}`)); c != 1 {
					t.Errorf("newcomer %s rendered %d times, want once", newcomer, c)
				}
				q.Sample(mon)
				check("after the rebind, sampled")
			})
		}
	}
}
