package service

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"accrual/internal/chen"
	"accrual/internal/clock"
	"accrual/internal/core"
	"accrual/internal/phi"
	"accrual/internal/simple"
)

func phiFactory(_ string, at time.Time) core.Detector {
	return phi.New(at, phi.WithBootstrap(100*time.Millisecond, 25*time.Millisecond))
}

func feed(t *testing.T, m *Monitor, clk *clock.Manual, ids []string, beats int, interval time.Duration) {
	t.Helper()
	for seq := 1; seq <= beats; seq++ {
		at := clk.Advance(interval)
		for _, id := range ids {
			if err := m.Heartbeat(hb(id, uint64(seq), at)); err != nil {
				t.Fatalf("heartbeat %s/%d: %v", id, seq, err)
			}
		}
	}
}

func TestExportImportWarmRestart(t *testing.T) {
	clk := clock.NewManual(start)
	m := NewMonitor(clk, phiFactory)
	ids := []string{"node-1", "node-2", "node-3"}
	feed(t, m, clk, ids, 200, 100*time.Millisecond)

	st := m.ExportState()
	if st.Len() != len(ids) {
		t.Fatalf("exported %d processes, want %d", st.Len(), len(ids))
	}
	// Exports are sorted by id for deterministic encoding.
	for i := 1; i < len(st.Procs); i++ {
		if st.Procs[i-1].ID >= st.Procs[i].ID {
			t.Fatalf("export not sorted: %q before %q", st.Procs[i-1].ID, st.Procs[i].ID)
		}
	}

	// A replacement monitor, starting from nothing, imports the state.
	clk2 := clock.NewManual(clk.Now())
	m2 := NewMonitor(clk2, phiFactory)
	n, err := m2.ImportState(st)
	if err != nil {
		t.Fatalf("ImportState: %v", err)
	}
	if n != len(ids) {
		t.Fatalf("restored %d processes, want %d", n, len(ids))
	}
	// Both monitors report the same suspicion at the same instant.
	clk.Advance(130 * time.Millisecond)
	clk2.Advance(130 * time.Millisecond)
	for _, id := range ids {
		a, err1 := m.Suspicion(id)
		b, err2 := m2.Suspicion(id)
		if err1 != nil || err2 != nil {
			t.Fatalf("suspicion %s: %v / %v", id, err1, err2)
		}
		if math.Abs(float64(a-b)) > 1e-6 {
			t.Errorf("%s: restored level %v, live level %v", id, b, a)
		}
	}
}

func TestImportRestoresRegisteredProcessInPlace(t *testing.T) {
	clk := clock.NewManual(start)
	m := NewMonitor(clk, phiFactory)
	feed(t, m, clk, []string{"p"}, 100, 100*time.Millisecond)
	st := m.ExportState()

	m2 := NewMonitor(clock.NewManual(clk.Now()), phiFactory)
	// The process is already known (say, its first heartbeats raced the
	// warm boot); import must restore the existing detector in place.
	if err := m2.Register("p"); err != nil {
		t.Fatal(err)
	}
	if n, err := m2.ImportState(st); err != nil || n != 1 {
		t.Fatalf("ImportState = %d, %v", n, err)
	}
	lvl, err := m2.Suspicion("p")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := m.Suspicion("p")
	if math.Abs(float64(lvl-want)) > 1e-6 {
		t.Errorf("in-place restore level %v, want %v", lvl, want)
	}
}

func TestImportReportsKindMismatch(t *testing.T) {
	clk := clock.NewManual(start)
	m := NewMonitor(clk, phiFactory)
	feed(t, m, clk, []string{"a", "b"}, 10, 100*time.Millisecond)
	st := m.ExportState()

	// The replacement daemon was started with -detector chen: every φ
	// payload fails with a kind mismatch, reported but not fatal.
	m2 := NewMonitor(clk, func(_ string, at time.Time) core.Detector {
		return chen.New(at, 100*time.Millisecond)
	})
	n, err := m2.ImportState(st)
	if n != 0 {
		t.Errorf("restored %d, want 0", n)
	}
	if !errors.Is(err, core.ErrStateKind) {
		t.Errorf("err = %v, want ErrStateKind", err)
	}
	// The processes are still registered (cold), ready for heartbeats.
	if !m2.Known("a") || !m2.Known("b") {
		t.Error("mismatched processes should remain registered cold")
	}
}

// TestExportConcurrentWithIngest runs ExportState continuously while
// heartbeats flow and registrations churn; under -race this proves the
// shard-streaming discipline holds for state export like it does for
// EachLevel.
func TestExportConcurrentWithIngest(t *testing.T) {
	clk := clock.NewManual(start)
	m := NewMonitor(clk, func(_ string, at time.Time) core.Detector {
		return simple.New(at)
	}, WithShardCount(4))

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := m.ExportState()
			if _, err := m.ImportState(st); err != nil {
				t.Errorf("self-import: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			id := fmt.Sprintf("churn-%d", i%8)
			_ = m.Register(id)
			m.Deregister(id)
		}
	}()
	for seq := 1; seq <= 300; seq++ {
		at := clk.Advance(time.Millisecond)
		for p := 0; p < 4; p++ {
			if err := m.Heartbeat(hb(fmt.Sprintf("p%d", p), uint64(seq), at)); err != nil {
				t.Fatalf("heartbeat: %v", err)
			}
		}
	}
	close(stop)
	wg.Wait()

	if got := m.ExportState().Len(); got < 4 {
		t.Errorf("final export has %d processes, want >= 4", got)
	}
}

func TestWithShardCountEdgeCases(t *testing.T) {
	cases := []struct {
		n, want int
	}{
		{0, defaultShardCount},  // zero falls back to the default
		{-7, defaultShardCount}, // negative falls back to the default
		{1, 1},
		{2, 2},
		{63, 64}, // rounded up to the next power of two
		{64, 64},
		{65, 128},
		{1 << 17, 1 << 16}, // clamped above
	}
	for _, tc := range cases {
		m := NewMonitor(clock.NewManual(start), func(_ string, at time.Time) core.Detector {
			return simple.New(at)
		}, WithShardCount(tc.n))
		if got := len(m.shards); got != tc.want {
			t.Errorf("WithShardCount(%d): %d shards, want %d", tc.n, got, tc.want)
		}
		// The monitor must be fully usable whatever the count.
		if err := m.Heartbeat(hb("p", 1, start)); err != nil {
			t.Errorf("WithShardCount(%d): heartbeat failed: %v", tc.n, err)
		}
		if !m.Known("p") {
			t.Errorf("WithShardCount(%d): heartbeat lost", tc.n)
		}
	}
}
