package service

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accrual/internal/clock"
	"accrual/internal/core"
	"accrual/internal/kappa"
	"accrual/internal/telemetry"
	"accrual/internal/transport/intern"
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

// churnWorkers starts goroutines that each call their fn with a rising
// counter until stop is called; stop returns once all have exited.
func churnWorkers() (worker func(fn func(i int)), stop func()) {
	quit := make(chan struct{})
	var wg sync.WaitGroup
	worker = func(fn func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-quit:
					return
				default:
				}
				fn(i)
			}
		}()
	}
	return worker, func() { close(quit); wg.Wait() }
}

// TestWalkUnderChurn hammers every lock-free read path — the level and
// info walks, TopK, and raw shard appends — against concurrent
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

	worker, stopWorkers := churnWorkers()
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
	worker(func(i int) { m.EachInfo(func(ProcessInfo) {}) })
	worker(func(i int) {
		var dst [8]RankedProcess
		_ = m.TopK(8, dst[:0])
	})
	worker(func(i int) {
		var dst [procs]telemetry.ProcRow
		_ = m.AppendShardSeries(i%m.ShardCount(), clk.Now(), dst[:0])
	})

	time.Sleep(300 * time.Millisecond)
	stopWorkers()

	// Quiescent now: every surviving entry's published cell must still
	// agree with its detector, whatever interleaving it went through.
	comparePublishedToLocked(t, m, clk.Now())
}

// TestWalkSteadyStateZeroAlloc gates the snapshot read paths at zero
// allocations per full-fleet pass: the whole point of the eval plane is
// that readers touch only slab arrays and atomics, never the heap. It
// runs on every detector kind — a level function that allocates per
// evaluation is invisible on the cheapest kind.
func TestWalkSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	for _, k := range detectorKinds {
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
	t.Run("kappa-one-term", func(t *testing.T) {
		// κ fleets where TopK's gate and zero shortcut both work: one
		// heartbeat each, 50 µs apart, read 990 ms after the first, so z
		// runs from −10 (the band) past −40 (the zero region).
		clk := clock.NewManual(start)
		m := NewMonitor(clk, func(_ string, st time.Time) core.Detector {
			return kappa.New(st, kappa.PLater{}, kappa.WithFixedInterval(time.Second))
		}, WithShardCount(8))
		first := clk.Now()
		for i := 0; i < 2048; i++ {
			if err := m.Heartbeat(core.Heartbeat{From: fmt.Sprintf("walk-%05d", i), Seq: 1, Arrived: clk.Now()}); err != nil {
				t.Fatal(err)
			}
			clk.Advance(50 * time.Microsecond)
		}
		clk.Set(first.Add(990 * time.Millisecond))
		dst := m.TopK(16, make([]RankedProcess, 0, 16))
		if allocs := testing.AllocsPerRun(20, func() { dst = m.TopK(16, dst[:0]) }); allocs != 0 {
			t.Errorf("TopK: %v allocs per full-fleet pass, want 0", allocs)
		}
	})
}

// checkSeriesAgainstReference compares every shard's AppendShardSeries
// rows with a reference that sorts the shard's index from scratch and
// asks Suspicion for each level. The monitor must be quiescent.
func checkSeriesAgainstReference(t *testing.T, m *Monitor, now time.Time) {
	t.Helper()
	var rows []telemetry.ProcRow
	for s := range m.shards {
		sh := &m.shards[s]
		sh.mu.RLock()
		want := indexedIDs(sh)
		sh.mu.RUnlock()
		sort.Strings(want)

		rows = m.AppendShardSeries(s, now, rows[:0])
		if len(rows) != len(want) {
			t.Errorf("shard %d: %d rows, want %d", s, len(rows), len(want))
			continue
		}
		for i, r := range rows {
			if r.ID != want[i] {
				t.Errorf("shard %d row %d: id %q, want %q", s, i, r.ID, want[i])
				continue
			}
			if lvl, err := m.Suspicion(r.ID); err != nil || lvl != r.Level {
				t.Errorf("shard %d %q: level %v, Suspicion = %v, %v", s, r.ID, r.Level, lvl, err)
			}
			if got, want := r.Series.Labels(), `{proc="`+r.ID+`"} `; got != want {
				t.Errorf("shard %d %q: labels %q, want %q", s, r.ID, got, want)
			}
		}
	}
}

// TestShardOrderFollowsMembership: the cached id order is rebuilt when,
// and only when, a shard's membership changed — heartbeats, retunes and
// repeated scrapes sort nothing — and after every kind of change
// (deregister, new id, the same id re-registered into a recycled slot)
// the ordered walk equals a from-scratch sort.
func TestShardOrderFollowsMembership(t *testing.T) {
	clk := clock.NewManual(start)
	m := NewMonitor(clk, simpleFactory, WithShardCount(8))
	const procs = 300
	registerFleet(t, m, clk, procs)
	id := func(i int) string { return fmt.Sprintf("walk-%05d", i) }

	checkSeriesAgainstReference(t, m, clk.Now())
	if got := m.ShardOrderRebuilds(); got != 8 {
		t.Fatalf("first pass over 8 populated shards: %d rebuilds, want 8", got)
	}
	for pass := 0; pass < 3; pass++ {
		now := clk.Advance(time.Second)
		for i := 0; i < procs; i++ {
			_ = m.Heartbeat(hb(id(i), uint64(10+pass), now))
		}
		_, _, _ = m.Retune(core.Tuning{WindowSize: 16 + pass})
		checkSeriesAgainstReference(t, m, clk.Now())
	}
	if got := m.ShardOrderRebuilds(); got != 8 {
		t.Errorf("steady membership: %d rebuilds, want still 8", got)
	}

	touched := func(ids ...string) uint64 {
		set := map[uint32]bool{}
		for _, id := range ids {
			set[intern.Hash(id)&m.shardMask] = true
		}
		return uint64(len(set))
	}
	steps := []struct {
		name string
		ids  []string
		do   func()
	}{
		{"deregister", []string{id(7), id(8), id(150)}, func() {
			m.Deregister(id(7))
			m.Deregister(id(8))
			m.Deregister(id(150))
		}},
		{"new ids into the freed slots", []string{"aaa", "zzz"}, func() {
			_ = m.Heartbeat(hb("aaa", 1, clk.Now()))
			_ = m.Heartbeat(hb("zzz", 1, clk.Now()))
		}},
		{"re-register the same id", []string{id(42)}, func() {
			m.Deregister(id(42))
			_ = m.Heartbeat(hb(id(42), 1, clk.Now()))
		}},
	}
	for _, st := range steps {
		before := m.ShardOrderRebuilds()
		st.do()
		clk.Advance(time.Second)
		checkSeriesAgainstReference(t, m, clk.Now())
		if got, want := m.ShardOrderRebuilds()-before, touched(st.ids...); got != want {
			t.Errorf("%s: %d rebuilds, want %d (one per shard touched)", st.name, got, want)
		}
		checkSeriesAgainstReference(t, m, clk.Now())
		if got, want := m.ShardOrderRebuilds()-before, touched(st.ids...); got != want {
			t.Errorf("%s, second pass: %d rebuilds, want still %d", st.name, got, want)
		}
	}
}

// TestShardOrderSkipsSlotReboundMidWalk: a membership change that lands
// while an ordered walk is already iterating cannot surface in it. The
// walk's first callback deregisters the shard's last id and registers a
// new smallest id, which recycles the freed slot; the walk must skip
// that slot — not emit the newcomer out of order — and the next walk
// must show the new membership.
func TestShardOrderSkipsSlotReboundMidWalk(t *testing.T) {
	clk := clock.NewManual(start)
	m := NewMonitor(clk, simpleFactory, WithShardCount(1))
	for _, id := range []string{"b", "c", "d", "e"} {
		_ = m.Heartbeat(hb(id, 1, clk.Now()))
	}
	var seen []string
	m.shards[0].eachSorted(clk.Now(), func(meta *entryMeta, _ core.Level) {
		if len(seen) == 0 {
			m.Deregister("e")
			_ = m.Heartbeat(hb("a", 1, clk.Now()))
		}
		seen = append(seen, meta.id)
	})
	if got := fmt.Sprint(seen); got != "[b c d]" {
		t.Errorf("walk overlapping the rebind saw %s, want [b c d]", got)
	}
	seen = seen[:0]
	m.shards[0].eachSorted(clk.Now(), func(meta *entryMeta, _ core.Level) { seen = append(seen, meta.id) })
	if got := fmt.Sprint(seen); got != "[a b c d]" {
		t.Errorf("walk after the rebind saw %s, want [a b c d]", got)
	}
}

// TestShardOrderUnderConcurrentChurn runs ordered walks against
// concurrent deregistration, auto-re-registration and heartbeats (the
// -race proof for the order cache) and holds every walk, quiesced or
// not, to the ordering contract: strictly ascending ids within a shard.
// Once the churn stops the walk must again equal the from-scratch sort.
func TestShardOrderUnderConcurrentChurn(t *testing.T) {
	clk := clock.NewManual(start)
	m := NewMonitor(clk, simpleFactory, WithShardCount(4))
	const procs = 128
	registerFleet(t, m, clk, procs)

	worker, stopWorkers := churnWorkers()
	worker(func(i int) {
		now := clk.Advance(time.Millisecond)
		_ = m.Heartbeat(hb(fmt.Sprintf("walk-%05d", i%procs), uint64(100+i/procs), now))
	})
	worker(func(i int) { m.Deregister(fmt.Sprintf("walk-%05d", (i*31)%procs)) })
	for w := 0; w < 2; w++ {
		worker(func(i int) {
			var buf [procs]telemetry.ProcRow
			rows := m.AppendShardSeries(i%m.ShardCount(), clk.Now(), buf[:0])
			for j := 1; j < len(rows); j++ {
				if rows[j-1].ID >= rows[j].ID {
					t.Errorf("walk under churn: %q before %q", rows[j-1].ID, rows[j].ID)
					return
				}
			}
		})
	}
	time.Sleep(200 * time.Millisecond)
	stopWorkers()
	checkSeriesAgainstReference(t, m, clk.Now())
}

// TestTopKTiesAtTheCut: with the whole fleet on one level, the level
// comparison that spares TopK the identity load decides nothing, and the
// id tie-break alone must pick the k smallest ids whatever order the
// slab yields them in.
func TestTopKTiesAtTheCut(t *testing.T) {
	m, clk := newTestMonitor(WithShardCount(4))
	for i := 39; i >= 0; i-- { // descending, so late slab slots hold winning ids
		_ = m.Heartbeat(hb(fmt.Sprintf("tie-%02d", i), 1, clk.Now()))
	}
	clk.Advance(5 * time.Second)
	got := m.TopK(6, nil)
	if len(got) != 6 {
		t.Fatalf("TopK(6) returned %d entries", len(got))
	}
	for i, g := range got {
		if want := fmt.Sprintf("tie-%02d", i); g.ID != want || g.Level != got[0].Level {
			t.Errorf("TopK(6)[%d] = %+v, want id %s on the shared level", i, g, want)
		}
	}
}
