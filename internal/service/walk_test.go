package service

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accrual/internal/clock"
	"accrual/internal/core"
	"accrual/internal/telemetry"
)

// registerFleet seeds n processes with a few accepted heartbeats each,
// then advances the clock so every entry has a live published snapshot.
func registerFleet(tb testing.TB, m *Monitor, clk *clock.Manual, n int) {
	tb.Helper()
	for seq := uint64(1); seq <= 3; seq++ {
		now := clk.Advance(100 * time.Millisecond)
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("walk-%05d", i)
			if err := m.Heartbeat(core.Heartbeat{From: id, Seq: seq, Arrived: now}); err != nil {
				tb.Fatalf("heartbeat %q: %v", id, err)
			}
		}
	}
	clk.Advance(time.Second)
}

// TestWalkUnderChurn hammers every lock-free read path — the plain and
// coalesced walks, TopK, and raw shard appends — against concurrent
// heartbeats, deregistrations, retunes, and state imports. Run under
// -race this is the memory-model proof of the seqlock publication
// protocol; without -race it still shakes out ordering bugs (torn reads
// surface as the final consistency check failing). The test ends with a
// frozen-clock published-vs-locked sweep so churn cannot simply pass by
// never being observed.
func TestWalkUnderChurn(t *testing.T) {
	clk := clock.NewManual(start)
	m := NewMonitor(clk, simpleFactory, WithShardCount(16))
	const procs = 192
	registerFleet(t, m, clk, procs)

	donor := NewMonitor(clock.NewManual(start), simpleFactory, WithShardCount(16))
	dclk := clock.NewManual(start)
	for seq := uint64(1); seq <= 5; seq++ {
		now := dclk.Advance(250 * time.Millisecond)
		for i := 0; i < procs; i++ {
			if err := donor.Heartbeat(core.Heartbeat{From: fmt.Sprintf("walk-%05d", i), Seq: seq, Arrived: now}); err != nil {
				t.Fatalf("donor heartbeat: %v", err)
			}
		}
	}
	state := donor.ExportState()

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
	worker(func(i int) { // writer: heartbeats with a moving clock
		now := clk.Advance(time.Millisecond)
		id := fmt.Sprintf("walk-%05d", i%procs)
		_ = m.Heartbeat(core.Heartbeat{From: id, Seq: uint64(100 + i/procs), Arrived: now})
	})
	worker(func(i int) { // churn: deregister (auto-registration revives them)
		m.Deregister(fmt.Sprintf("walk-%05d", (i*31)%procs))
	})
	worker(func(i int) { // retune: republishes every snapshot it touches
		_, _, _ = m.Retune(core.Tuning{WindowSize: 8 + i%32})
	})
	worker(func(i int) { // restore: replaces detector state wholesale
		_, _ = m.ImportState(state)
	})
	worker(func(i int) { m.EachLevel(func(string, core.Level) {}) })
	worker(func(i int) { m.EachLevelShared(func(string, core.Level) {}) })
	worker(func(i int) { m.EachInfoShared(func(ProcessInfo) {}) })
	worker(func(i int) {
		var dst [8]RankedProcess
		_ = m.TopK(8, dst[:0])
	})
	worker(func(i int) {
		var dst [procs]ProcessInfo
		_ = m.AppendShardInfos(i%m.ShardCount(), clk.Now(), dst[:0])
	})

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Quiescent now: every surviving entry's published cell must still
	// agree with its detector, whatever interleaving it went through.
	comparePublishedToLocked(t, m, clk.Now())
}

// TestSharedWalkCoalesces blocks a shared-walk leader mid-pass, piles
// joiners up behind it, and verifies they are all served from the
// leader's batch pass: each consumer sees the complete fleet and the
// telemetry counters record the coalescing.
func TestSharedWalkCoalesces(t *testing.T) {
	clk := clock.NewManual(start)
	hub := telemetry.NewHub()
	m := NewMonitor(clk, simpleFactory, WithShardCount(4), WithTelemetry(hub))
	const procs = 64
	registerFleet(t, m, clk, procs)

	before := hub.Walks.Snapshot()

	gate := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // leader: first entry of its own pass parks on the gate
		defer wg.Done()
		n := 0
		m.EachLevelShared(func(string, core.Level) {
			once.Do(func() {
				close(entered)
				<-gate
			})
			n++
		})
		if n != procs {
			t.Errorf("leader saw %d processes, want %d", n, procs)
		}
	}()
	<-entered

	const joiners = 4
	counts := make(chan int, joiners)
	for j := 0; j < joiners; j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 0
			m.EachInfoShared(func(ProcessInfo) { n++ })
			counts <- n
		}()
	}
	time.Sleep(50 * time.Millisecond) // let the joiners enqueue behind the parked leader
	close(gate)
	wg.Wait()

	for j := 0; j < joiners; j++ {
		if n := <-counts; n != procs {
			t.Fatalf("coalesced consumer saw %d processes, want %d", n, procs)
		}
	}
	after := hub.Walks.Snapshot()
	if d := after.Coalesced - before.Coalesced; d < 1 || d > joiners {
		t.Fatalf("coalesced consumers delta = %d, want 1..%d", d, joiners)
	}
	if after.Runs <= before.Runs {
		t.Fatalf("walk runs did not advance: before %d, after %d", before.Runs, after.Runs)
	}
}

// TestWalkSteadyStateZeroAlloc gates the snapshot read paths at zero
// allocations per full-fleet pass: the whole point of the eval plane is
// that readers touch only slab arrays and atomics, never the heap. It
// runs on every detector kind — a level function that allocates per
// evaluation is invisible on the cheapest kind — except φ-Erlang, whose
// log-sum-exp scratch is the documented exception.
func TestWalkSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	for _, k := range detectorKinds {
		if k.name == "phi-erlang" {
			continue
		}
		k := k
		t.Run(k.name, func(t *testing.T) {
			clk := clock.NewManual(start)
			m := NewMonitor(clk, k.factory, WithShardCount(8))
			registerFleet(t, m, clk, 2048)

			var sink atomic.Uint64
			levelFn := func(id string, lvl core.Level) { sink.Add(uint64(len(id))) }
			infoFn := func(info ProcessInfo) { sink.Add(uint64(len(info.ID))) }
			dst := m.TopK(16, make([]RankedProcess, 0, 16)) // size the scratch outside the measured region

			cases := []struct {
				name string
				run  func()
			}{
				{"EachLevel", func() { m.EachLevel(levelFn) }},
				{"EachInfo", func() { m.EachInfo(infoFn) }},
				{"TopK", func() { dst = m.TopK(16, dst[:0]) }},
			}
			for _, c := range cases {
				if allocs := testing.AllocsPerRun(20, c.run); allocs != 0 {
					t.Errorf("%s: %v allocs per full-fleet pass, want 0", c.name, allocs)
				}
			}
			_ = sink.Load()
		})
	}
}
