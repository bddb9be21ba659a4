package service

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"accrual/internal/clock"
	"accrual/internal/core"
	"accrual/internal/simple"
	"accrual/internal/telemetry"
)

// TestSlabChurnMemoryStable runs 100k register/deregister cycles over a
// small rotating id set and asserts the live heap stays flat: Deregister
// must return slab slots to the free list for reuse instead of growing
// the arena, and must leave no tombstone in the shard's id index, so
// registration storms (flapping fleets, rolling restarts) cannot grow
// the process without bound.
func TestSlabChurnMemoryStable(t *testing.T) {
	clk := clock.NewManual(start)
	m := NewMonitor(clk, func(_ string, at time.Time) core.Detector {
		return simple.New(at)
	}, WithShardCount(8))

	const cycles = 100_000
	const live = 64 // ids in flight at any moment
	ids := make([]string, live)
	for i := range ids {
		ids[i] = fmt.Sprintf("churn-%02d", i)
	}

	churn := func(n int) {
		for c := 0; c < n; c++ {
			id := ids[c%live]
			if err := m.Register(id); err != nil {
				t.Fatalf("register %s: %v", id, err)
			}
			if err := m.Heartbeat(hb(id, 1, clk.Now())); err != nil {
				t.Fatalf("heartbeat %s: %v", id, err)
			}
			if !m.Deregister(id) {
				t.Fatalf("deregister %s: lost registration", id)
			}
		}
	}

	// Warm-up reaches steady state (slab chunks allocated, free list
	// primed); everything after it must reuse those slots.
	churn(2 * live)
	words := indexWords(m)
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	churn(cycles)

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if m.Len() != 0 {
		t.Fatalf("Len = %d after full churn, want 0", m.Len())
	}
	if got := indexWords(m); got != words {
		t.Errorf("id index grew from %d to %d words over %d churn cycles, want no growth (tombstones?)", words, got, cycles)
	}
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	// 100k cycles each allocating a fresh slab slot would grow the heap
	// by megabytes; steady-state reuse leaves only GC noise.
	const limit = 1 << 20
	if growth > limit {
		t.Errorf("live heap grew %d bytes over %d churn cycles, want < %d (slab slots not reused?)", growth, cycles, limit)
	}
}

// TestSideStateChurnMemoryStable is TestSlabChurnMemoryStable with the
// per-process side state attached: every cycle registers a fresh id,
// beats it, runs one round feeding the history, the QoS estimators and
// an App, queries the App's view of the id, and deregisters it. The side
// state is kept by slot and tagged with its binding, so 100k departed
// ids must leave the live heap as flat as the slab itself.
func TestSideStateChurnMemoryStable(t *testing.T) {
	clk := clock.NewManual(start)
	hub := telemetry.NewHub()
	m := NewMonitor(clk, func(_ string, at time.Time) core.Detector {
		return simple.New(at)
	}, WithShardCount(8), WithTelemetry(hub))
	app := m.NewApp("churn", ConstantPolicy(5))
	r := NewRunner(m, Consumers{History: NewRecorder(m, 8), QoS: hub.QoS(), Apps: []*App{app}})

	const cycles = 100_000
	n := 0
	churn := func(k int) {
		for c := 0; c < k; c++ {
			id := fmt.Sprintf("fresh-%07d", n)
			n++
			if err := m.Register(id); err != nil {
				t.Fatalf("register %s: %v", id, err)
			}
			if err := m.Heartbeat(hb(id, 1, clk.Now())); err != nil {
				t.Fatalf("heartbeat %s: %v", id, err)
			}
			clk.Advance(time.Millisecond)
			r.Round()
			if _, err := app.Status(id); err != nil {
				t.Fatalf("status %s: %v", id, err)
			}
			if !m.Deregister(id) {
				t.Fatalf("deregister %s: lost registration", id)
			}
		}
	}

	churn(128)
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	churn(cycles)

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(r) // the consumers must be live for the measurement to mean anything
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	const limit = 1 << 20
	if growth > limit {
		t.Errorf("live heap grew %d bytes over %d fresh-id cycles, want < %d (side state kept for departed ids?)", growth, cycles, limit)
	}
}

// TestMonitorScaleStress races Register, Heartbeat, Deregister and
// EachLevel across a 100k-process membership — the slab registry's
// generation counters and free-list reuse under genuine contention.
// Run with -race to check the design, not just the outcome.
func TestMonitorScaleStress(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-process stress skipped in -short mode")
	}
	const (
		procs   = 100_000
		workers = 8
	)
	clk := clock.NewManual(start)
	m := NewMonitor(clk, func(_ string, at time.Time) core.Detector {
		return simple.New(at)
	})

	var wg sync.WaitGroup
	// Each worker owns a disjoint id range: register everything,
	// heartbeat it, churn a slice of it, while walkers scan the whole
	// registry concurrently.
	for w := 0; w < workers; w++ {
		lo, hi := procs*w/workers, procs*(w+1)/workers
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			now := clk.Now()
			for i := lo; i < hi; i++ {
				id := fmt.Sprintf("scale-%06d", i)
				if err := m.Heartbeat(hb(id, 1, now)); err != nil {
					t.Errorf("heartbeat %s: %v", id, err)
					return
				}
			}
			for i := lo; i < hi; i++ {
				id := fmt.Sprintf("scale-%06d", i)
				if err := m.Heartbeat(hb(id, 2, now)); err != nil {
					t.Errorf("heartbeat %s: %v", id, err)
					return
				}
				// Churn every 16th process: deregister, then register
				// again — the freed slot is rebound while neighbours
				// are still being written and walked.
				if i%16 == 0 {
					if !m.Deregister(id) {
						t.Errorf("deregister %s: lost registration", id)
						return
					}
					if err := m.Heartbeat(hb(id, 1, now)); err != nil {
						t.Errorf("re-register %s: %v", id, err)
						return
					}
				}
			}
		}(lo, hi)
	}
	// Registry walkers and point readers concurrent with the churn.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				n := 0
				m.EachLevel(func(string, core.Level) { n++ })
				_, _ = m.Suspicion(fmt.Sprintf("scale-%06d", i*procs/20))
				_ = m.Len()
			}
		}()
	}
	wg.Wait()

	if got := m.Len(); got != procs {
		t.Errorf("Len = %d after stress, want %d", got, procs)
	}
	n := 0
	m.EachLevel(func(string, core.Level) { n++ })
	if n != procs {
		t.Errorf("EachLevel visited %d processes, want %d", n, procs)
	}
}

// TestExportImportAcrossChurnedSlab proves snapshot compatibility across
// the map→slab refactor under the worst layout: a slab full of holes and
// reused slots. State exported from a churned registry must restore into
// a fresh monitor with identical suspicion levels.
func TestExportImportAcrossChurnedSlab(t *testing.T) {
	clk := clock.NewManual(start)
	m := NewMonitor(clk, phiFactory)

	const procs = 300
	ids := make([]string, 0, procs)
	for i := 0; i < procs; i++ {
		ids = append(ids, fmt.Sprintf("p-%03d", i))
	}
	feed(t, m, clk, ids, 20, 100*time.Millisecond)

	// Punch holes: every third process leaves, then a fresh cohort
	// reuses the freed slots and earns its own history.
	kept := ids[:0:0]
	for i, id := range ids {
		if i%3 == 0 {
			if !m.Deregister(id) {
				t.Fatalf("deregister %s", id)
			}
		} else {
			kept = append(kept, id)
		}
	}
	fresh := make([]string, 0, procs/3)
	for i := 0; i < procs/3; i++ {
		fresh = append(fresh, fmt.Sprintf("q-%03d", i))
	}
	feed(t, m, clk, fresh, 15, 100*time.Millisecond)
	all := append(append([]string{}, kept...), fresh...)

	st := m.ExportState()
	if st.Len() != len(all) {
		t.Fatalf("export carries %d processes, want %d", st.Len(), len(all))
	}
	clk2 := clock.NewManual(clk.Now())
	m2 := NewMonitor(clk2, phiFactory)
	if n, err := m2.ImportState(st); err != nil || n != len(all) {
		t.Fatalf("ImportState = (%d, %v), want (%d, nil)", n, err, len(all))
	}
	clk.Advance(250 * time.Millisecond)
	clk2.Advance(250 * time.Millisecond)
	for _, id := range all {
		want, err := m.Suspicion(id)
		if err != nil {
			t.Fatalf("source %s: %v", id, err)
		}
		got, err := m2.Suspicion(id)
		if err != nil {
			t.Fatalf("restored %s: %v", id, err)
		}
		if got != want {
			t.Errorf("%s: restored suspicion %v, want %v", id, got, want)
		}
	}
	for _, id := range ids {
		if m2.Known(id) != m.Known(id) {
			t.Errorf("%s: Known mismatch after restore", id)
		}
	}
}
