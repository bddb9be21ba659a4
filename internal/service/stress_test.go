package service

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"accrual/internal/clock"
	"accrual/internal/core"
	"accrual/internal/simple"
)

// seqDetector records the heartbeat stream it observes on top of an
// embedded real detector (which supplies the rest of the core.Detector
// contract). It is deliberately unsynchronised: the Monitor's per-entry
// lock must make it safe, and the race detector verifies that it does.
type seqDetector struct {
	*simple.Detector
	lastSeq     uint64
	reports     int
	nonMonotone bool
}

func (d *seqDetector) Report(hb core.Heartbeat) bool {
	if hb.Seq <= d.lastSeq {
		d.nonMonotone = true
	}
	d.lastSeq = hb.Seq
	d.reports++
	return d.Detector.Report(hb)
}

// TestMonitorStress hammers one Monitor from many goroutines mixing every
// operation — heartbeat ingest, suspicion queries, snapshots, ranked
// reads, register/deregister churn, recorder ticks and App polling — and
// then asserts that no registration was lost and that every writer's
// heartbeat stream was applied to its detector in order and in full.
// Run it under -race to exercise the sharded locking design.
func TestMonitorStress(t *testing.T) {
	const (
		writers      = 4
		procsPer     = 8
		beats        = 200
		churnRounds  = 150
		readerRounds = 300
	)
	clk := clock.NewManual(start)
	var factoryMu sync.Mutex
	dets := make(map[string]*seqDetector)
	m := NewMonitor(clk, func(id string, at time.Time) core.Detector {
		d := &seqDetector{Detector: simple.New(at)}
		factoryMu.Lock()
		dets[id] = d
		factoryMu.Unlock()
		return d
	}, WithShardCount(8)) // few shards: force cross-process shard sharing

	var wg sync.WaitGroup

	// Heartbeat writers: each owns a disjoint set of processes and sends
	// a strictly increasing sequence to each.
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := uint64(1); seq <= beats; seq++ {
				for p := 0; p < procsPer; p++ {
					id := fmt.Sprintf("w%d-p%d", w, p)
					if err := m.Heartbeat(hb(id, seq, clk.Now())); err != nil {
						t.Errorf("heartbeat %s: %v", id, err)
						return
					}
				}
			}
		}()
	}

	// Suspicion reader.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < readerRounds; i++ {
			id := fmt.Sprintf("w%d-p%d", i%writers, i%procsPer)
			_, _ = m.Suspicion(id)
			_ = m.Known(id)
		}
	}()

	// Snapshot / Ranked / EachLevel reader.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < readerRounds/3; i++ {
			_ = m.Snapshot()
			_ = m.Ranked()
			m.EachLevel(func(string, core.Level) {})
			_ = m.Len()
		}
	}()

	// Register/Deregister churn on ids nobody else touches.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < churnRounds; i++ {
			id := fmt.Sprintf("churn-%d", i%16)
			if err := m.Register(id); err != nil {
				t.Errorf("register %s: %v", id, err)
			}
			if !m.Deregister(id) {
				t.Errorf("deregister %s: lost registration", id)
			}
		}
	}()

	// State export/import streaming concurrently with the churn above:
	// ExportState sweeps the slabs while Deregister frees entries, and
	// re-imports into the same monitor race the writers. Only the
	// writer-owned processes are re-imported: ImportState registers
	// what it does not find, which would resurrect a churn id
	// deregistered since the export.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < readerRounds/5; i++ {
			st := m.ExportState()
			kept := st.Procs[:0]
			for _, ps := range st.Procs {
				if !strings.HasPrefix(ps.ID, "churn-") {
					kept = append(kept, ps)
				}
			}
			st.Procs = kept
			if _, err := m.ImportState(st); err != nil {
				t.Errorf("import: %v", err)
			}
		}
	}()

	// App polling plus per-process Status queries.
	wg.Add(1)
	go func() {
		defer wg.Done()
		app := m.NewApp("stress", ConstantPolicy(1e9))
		for i := 0; i < readerRounds/3; i++ {
			_ = app.Poll()
			_, _ = app.Status(fmt.Sprintf("w%d-p%d", i%writers, i%procsPer))
		}
	}()

	// Recorder sampling concurrently with everything else.
	rec := NewRecorder(m, 8)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < readerRounds/5; i++ {
			rec.Tick()
		}
	}()

	// Clock advancer, so levels actually move while everyone reads.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < readerRounds; i++ {
			clk.Advance(time.Millisecond)
		}
	}()

	wg.Wait()

	// No lost registrations: every writer-owned process is present…
	if got, want := m.Len(), writers*procsPer; got != want {
		t.Errorf("Len = %d, want %d (processes = %v)", got, want, m.Processes())
	}
	// …and every heartbeat stream arrived in order and in full.
	for w := 0; w < writers; w++ {
		for p := 0; p < procsPer; p++ {
			id := fmt.Sprintf("w%d-p%d", w, p)
			if !m.Known(id) {
				t.Errorf("%s: lost registration", id)
				continue
			}
			factoryMu.Lock()
			d := dets[id]
			factoryMu.Unlock()
			if d == nil {
				t.Errorf("%s: factory never ran", id)
				continue
			}
			if d.nonMonotone {
				t.Errorf("%s: non-monotone sequence application", id)
			}
			if d.lastSeq != beats || d.reports != beats {
				t.Errorf("%s: lastSeq=%d reports=%d, want %d", id, d.lastSeq, d.reports, beats)
			}
		}
	}
	// The churned ids are all gone.
	for i := 0; i < 16; i++ {
		if id := fmt.Sprintf("churn-%d", i); m.Known(id) {
			t.Errorf("%s: still registered after churn", id)
		}
	}
}

// TestStateStreamingRacesDeregister hammers ExportState and EachLevel
// against Deregister/Register churn over the *same* ids, with real
// snapshotable detectors, so shard iteration runs over entries being
// freed underneath it. Under -race this proves the streaming walks never
// touch a freed entry's detector unsynchronised, and the removed-entry
// check keeps deregistered processes out of exports.
func TestStateStreamingRacesDeregister(t *testing.T) {
	const (
		churners = 4
		idsPer   = 8
		rounds   = 200
	)
	clk := clock.NewManual(start)
	m := NewMonitor(clk, func(_ string, at time.Time) core.Detector {
		return simple.New(at)
	}, WithShardCount(2)) // few shards: every churn hits a streamed shard

	var churn, readers sync.WaitGroup
	stop := make(chan struct{})

	// Churners: register, heartbeat, deregister the same ids in a loop.
	for c := 0; c < churners; c++ {
		c := c
		churn.Add(1)
		go func() {
			defer churn.Done()
			for r := 0; r < rounds; r++ {
				for i := 0; i < idsPer; i++ {
					id := fmt.Sprintf("c%d-%d", c, i)
					_ = m.Register(id)
					_ = m.Heartbeat(hb(id, uint64(r+1), clk.Now()))
					m.Deregister(id)
				}
			}
		}()
	}

	// Streaming readers: ExportState and EachLevel until churn finishes.
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := m.ExportState()
				for _, ps := range st.Procs {
					if ps.State.Kind != simple.StateKind {
						t.Errorf("exported state of kind %q", ps.State.Kind)
						return
					}
				}
				m.EachLevel(func(string, core.Level) {})
			}
		}()
	}

	churn.Wait()
	close(stop)
	readers.Wait()

	if m.Len() != 0 {
		t.Errorf("Len = %d after full churn, want 0", m.Len())
	}
	if n := m.ExportState().Len(); n != 0 {
		t.Errorf("export after full churn has %d processes, want 0", n)
	}
}
