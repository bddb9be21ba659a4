package accrual_test

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"accrual"
	"accrual/internal/clock"
)

// snapshotEpsilon is the restore-equivalence tolerance: a restored
// detector's suspicion may differ from the live one only by float noise
// from recomputing window moments out of the serialised samples.
const snapshotEpsilon = 1e-6

// levelsAgree compares two suspicion levels under snapshotEpsilon,
// treating equal infinities as agreement.
func levelsAgree(a, b accrual.Level) bool {
	fa, fb := float64(a), float64(b)
	if math.IsInf(fa, 1) || math.IsInf(fb, 1) {
		return math.IsInf(fa, 1) && math.IsInf(fb, 1)
	}
	return math.Abs(fa-fb) <= snapshotEpsilon
}

// TestRestoreEquivalenceProperty drives every built-in detector through
// 1000 jitter-perturbed heartbeats and, at random checkpoints along the
// stream, snapshots the live detector, restores the snapshot into a
// factory-fresh twin, and requires both to report the same suspicion —
// immediately, at several query offsets past the checkpoint, and again
// after both consume the remainder of the stream.
func TestRestoreEquivalenceProperty(t *testing.T) {
	const (
		beats       = 1000
		checkpoints = 20
		interval    = 100 * time.Millisecond
	)
	factories := map[string]func() accrual.Detector{
		"simple":  func() accrual.Detector { return accrual.NewSimpleDetector(start) },
		"chen":    func() accrual.Detector { return accrual.NewChenDetector(start, interval) },
		"phi":     func() accrual.Detector { return accrual.NewPhiDetector(start, interval) },
		"kappa":   func() accrual.Detector { return accrual.NewKappaDetector(start) },
		"bertier": func() accrual.Detector { return accrual.NewBertierDetector(start, interval) },
	}
	queryOffsets := []time.Duration{
		0, interval / 2, interval, 3 * interval, 20 * interval,
	}

	for name, factory := range factories {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(20050322))
			live := factory()

			// Pre-draw the checkpoint beat numbers.
			marks := make(map[int]bool, checkpoints)
			for len(marks) < checkpoints {
				marks[1+rng.Intn(beats)] = true
			}

			at := start
			var restored []accrual.Detector // twins still tracking the stream
			for seq := 1; seq <= beats; seq++ {
				// Jittered arrival: nominal interval ±30%, occasionally a
				// dropped-then-burst pattern to stress the estimators.
				jitter := time.Duration((rng.Float64()*0.6 - 0.3) * float64(interval))
				at = at.Add(interval + jitter)
				hb := accrual.Heartbeat{From: "p", Seq: uint64(seq), Arrived: at}
				live.Report(hb)
				for _, d := range restored {
					d.Report(hb)
				}

				if !marks[seq] {
					continue
				}
				st := live.SnapshotState()
				twin := factory()
				if err := twin.RestoreState(st); err != nil {
					t.Fatalf("beat %d: RestoreState: %v", seq, err)
				}
				for _, off := range queryOffsets {
					q := at.Add(off)
					if a, b := live.Suspicion(q), twin.Suspicion(q); !levelsAgree(a, b) {
						t.Fatalf("beat %d, offset %v: live %v, restored %v", seq, off, a, b)
					}
				}
				restored = append(restored, twin)
			}

			// Every twin consumed the tail of the stream alongside the
			// live detector; they must all still agree.
			for _, off := range queryOffsets {
				q := at.Add(off)
				want := live.Suspicion(q)
				for i, d := range restored {
					if got := d.Suspicion(q); !levelsAgree(want, got) {
						t.Errorf("twin %d, offset %v: live %v, restored %v", i, off, want, got)
					}
				}
			}
		})
	}
}

// TestWarmRestartDemo is the kill-and-restart acceptance demo: 500
// heartbeats per process flow into a monitor while ExportState streams
// concurrently with the ingest; the final export then warm-boots a
// fresh monitor, whose first suspicion query matches the dead monitor's
// within epsilon.
func TestWarmRestartDemo(t *testing.T) {
	const (
		procs    = 8
		beats    = 500
		interval = 100 * time.Millisecond
	)
	clk := clock.NewManual(start)
	factory := func(_ string, at time.Time) accrual.Detector {
		return accrual.NewPhiDetector(at, interval)
	}
	mon := accrual.NewMonitor(clk, factory)

	// Exports stream continuously while heartbeats are ingested; run
	// under -race this is the live-handoff concurrency story.
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
			_ = mon.ExportState()
		}
	}()
	for seq := 1; seq <= beats; seq++ {
		at := clk.Advance(interval)
		for p := 0; p < procs; p++ {
			hb := accrual.Heartbeat{From: fmt.Sprintf("node-%d", p), Seq: uint64(seq), Arrived: at}
			if err := mon.Heartbeat(hb); err != nil {
				t.Fatalf("heartbeat: %v", err)
			}
		}
	}
	close(stop)
	wg.Wait()

	// "Kill" the monitor: take a final export, then bring up a fresh
	// monitor at the same instant and import.
	st := mon.ExportState()
	if st.Len() != procs {
		t.Fatalf("export has %d processes, want %d", st.Len(), procs)
	}
	clk2 := clock.NewManual(clk.Now())
	mon2 := accrual.NewMonitor(clk2, factory)
	n, err := mon2.ImportState(st)
	if err != nil || n != procs {
		t.Fatalf("ImportState = %d, %v", n, err)
	}

	// First post-restart query: both monitors, same instant, same level.
	clk.Advance(interval / 2)
	clk2.Advance(interval / 2)
	for p := 0; p < procs; p++ {
		id := fmt.Sprintf("node-%d", p)
		want, err1 := mon.Suspicion(id)
		got, err2 := mon2.Suspicion(id)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v / %v", id, err1, err2)
		}
		if !levelsAgree(want, got) {
			t.Errorf("%s: pre-kill level %v, post-restart level %v", id, want, got)
		}
	}
}
