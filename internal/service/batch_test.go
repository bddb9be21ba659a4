package service

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"accrual/internal/clock"
	"accrual/internal/core"
	"accrual/internal/phi"
	"accrual/internal/simple"
	"accrual/internal/telemetry"
	"accrual/internal/transport/intern"
)

func batchTestMonitor(opts ...MonitorOption) *Monitor {
	clk := clock.NewManual(time.Date(2005, 3, 22, 0, 0, 0, 0, time.UTC))
	return NewMonitor(clk, func(_ string, start time.Time) core.Detector {
		return simple.New(start)
	}, opts...)
}

// TestHeartbeatBatchMatchesSingle proves batch ingest is observationally
// equivalent to per-beat ingest: same registrations, same suspicion
// levels, same stale accounting.
func TestHeartbeatBatchMatchesSingle(t *testing.T) {
	single := batchTestMonitor(WithTelemetry(telemetry.NewHub()))
	hubB := telemetry.NewHub()
	batched := batchTestMonitor(WithTelemetry(hubB))

	at := single.Now()
	var beats []core.Heartbeat
	for round := 1; round <= 5; round++ {
		at = at.Add(100 * time.Millisecond)
		for p := 0; p < 9; p++ {
			beats = append(beats, core.Heartbeat{
				From: fmt.Sprintf("proc-%d", p), Seq: uint64(round), Arrived: at,
			})
		}
	}
	// One duplicate (stale) beat at the end.
	beats = append(beats, core.Heartbeat{From: "proc-0", Seq: 1, Arrived: at})

	for _, hb := range beats {
		if err := single.Heartbeat(hb); err != nil {
			t.Fatal(err)
		}
	}
	acc, rej := batched.HeartbeatBatch(beats)
	if acc != len(beats) || rej != 0 {
		t.Fatalf("HeartbeatBatch = (%d, %d), want (%d, 0)", acc, rej, len(beats))
	}
	if got, want := batched.Len(), single.Len(); got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	ss, sb := single.Snapshot(), batched.Snapshot()
	for id, lvl := range ss {
		if sb[id] != lvl {
			t.Errorf("process %s: batch level %v, single level %v", id, sb[id], lvl)
		}
	}
	tb := hubB.Counters.Totals()
	if tb.HeartbeatsIngested != uint64(len(beats)) {
		t.Errorf("batch HeartbeatsIngested = %d, want %d", tb.HeartbeatsIngested, len(beats))
	}
	if tb.HeartbeatsStale != 1 {
		t.Errorf("batch HeartbeatsStale = %d, want 1", tb.HeartbeatsStale)
	}
	if tb.Registrations != 9 {
		t.Errorf("batch Registrations = %d, want 9", tb.Registrations)
	}
}

// TestHeartbeatBatchPreservesPerProcessOrder interleaves two processes'
// beats: each process's beats must be ingested in batch order, or
// sequence tracking would misreport staleness.
func TestHeartbeatBatchPreservesPerProcessOrder(t *testing.T) {
	hub := telemetry.NewHub()
	mon := batchTestMonitor(WithTelemetry(hub))
	at := mon.Now().Add(time.Second)
	var beats []core.Heartbeat
	// Interleave two processes with ascending seqs; any reordering of a
	// process's own beats would mark a fresh beat stale.
	for seq := uint64(1); seq <= 20; seq++ {
		beats = append(beats,
			core.Heartbeat{From: "alpha", Seq: seq, Arrived: at},
			core.Heartbeat{From: "omega", Seq: seq, Arrived: at},
		)
	}
	if acc, _ := mon.HeartbeatBatch(beats); acc != len(beats) {
		t.Fatalf("accepted %d, want %d", acc, len(beats))
	}
	if stale := hub.Counters.Totals().HeartbeatsStale; stale != 0 {
		t.Errorf("in-order batch produced %d stale beats, want 0", stale)
	}
}

// TestHeartbeatBatchRejectsUnknown checks the no-auto-register mode:
// unknown senders are counted rejected without aborting the batch.
func TestHeartbeatBatchRejectsUnknown(t *testing.T) {
	mon := batchTestMonitor(WithoutAutoRegister())
	if err := mon.Register("known"); err != nil {
		t.Fatal(err)
	}
	at := mon.Now().Add(time.Second)
	beats := []core.Heartbeat{
		{From: "known", Seq: 1, Arrived: at},
		{From: "ghost", Seq: 1, Arrived: at},
		{From: "known", Seq: 2, Arrived: at},
		{From: "phantom", Seq: 1, Arrived: at},
	}
	acc, rej := mon.HeartbeatBatch(beats)
	if acc != 2 || rej != 2 {
		t.Fatalf("HeartbeatBatch = (%d, %d), want (2, 2)", acc, rej)
	}
	if mon.Known("ghost") || mon.Known("phantom") {
		t.Error("rejected senders were registered")
	}
}

// TestHeartbeatBatchZeroAllocSteadyState pins the batch ingest hot path
// at zero allocations once every sender is registered — the registry
// half of the end-to-end zero-alloc batch pipeline (the codec half lives
// in transport) — for string-keyed batches and for byte-keyed frames of
// one record and of more than one group, and for a full-group frame of
// distinct φ senders, whose detectors prefetch their sample windows
// before any is reported.
func TestHeartbeatBatchZeroAllocSteadyState(t *testing.T) {
	for _, tc := range []struct {
		name    string
		beats   int
		procs   int
		bytes   bool
		factory Factory // nil: batchTestMonitor's simple detector
	}{
		{"HeartbeatBatch", 32, 8, false, nil},
		{"HeartbeatIDs", 100, 8, true, nil},
		{"HeartbeatIDs/one", 1, 8, true, nil},
		{"HeartbeatIDs/frame-phi", groupSize, groupSize, true, func(_ string, at time.Time) core.Detector {
			return phi.New(at, phi.WithBootstrap(100*time.Millisecond, 25*time.Millisecond))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mon := batchTestMonitor(WithTelemetry(telemetry.NewHub()))
			if tc.factory != nil {
				mon = NewMonitor(clock.NewManual(start), tc.factory, WithTelemetry(telemetry.NewHub()))
			}
			at := mon.Now()
			beats := make([]core.Heartbeat, tc.beats)
			ids := make([][]byte, tc.beats)
			for i := range beats {
				beats[i] = core.Heartbeat{From: fmt.Sprintf("proc-%02d", i%tc.procs), Seq: 1, Arrived: at}
				ids[i] = []byte(beats[i].From)
			}
			mon.HeartbeatBatch(beats) // register everyone
			seq := uint64(1)
			if allocs := testing.AllocsPerRun(1000, func() {
				seq++
				at = at.Add(100 * time.Millisecond)
				for i := range beats {
					beats[i].Seq = seq
					beats[i].Arrived = at
				}
				acc := 0
				if tc.bytes {
					acc, _ = mon.HeartbeatIDs(ids, beats)
				} else {
					acc, _ = mon.HeartbeatBatch(beats)
				}
				if acc != len(beats) {
					t.Fatalf("accepted %d, want %d", acc, len(beats))
				}
			}); allocs != 0 {
				t.Errorf("steady-state %s: %.1f allocs/op, want 0", tc.name, allocs)
			}
		})
	}
}

// TestHeartbeatBatchConcurrent hammers HeartbeatBatch alongside
// byte-keyed beats, queries and deregistrations under -race.
func TestHeartbeatBatchConcurrent(t *testing.T) {
	mon := batchTestMonitor(WithTelemetry(telemetry.NewHub()))
	at := mon.Now()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			beats := make([]core.Heartbeat, 16)
			for round := 0; round < 200; round++ {
				for i := range beats {
					beats[i] = core.Heartbeat{
						From:    fmt.Sprintf("g%d-proc-%d", g, i),
						Seq:     uint64(round + 1),
						Arrived: at.Add(time.Duration(round) * 50 * time.Millisecond),
					}
				}
				mon.HeartbeatBatch(beats)
			}
		}(g)
	}
	wg.Add(3)
	go func() {
		// The read loop's path: ids as raw bytes, interned only when new.
		defer wg.Done()
		tab := intern.New()
		for round := 0; round < 200; round++ {
			for i := 0; i < 16; i++ {
				id := fmt.Appendf(nil, "g1-proc-%d", i)
				hb := core.Heartbeat{Seq: uint64(round + 1), Arrived: at}
				if !heartbeatID(mon, id, hb) {
					hb.From = tab.Intern(id)
					_ = mon.Heartbeat(hb) // auto-registration is on
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			_, _ = mon.Suspicion(fmt.Sprintf("g0-proc-%d", i%16))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			mon.Deregister(fmt.Sprintf("g1-proc-%d", i%16))
		}
	}()
	wg.Wait()
}
