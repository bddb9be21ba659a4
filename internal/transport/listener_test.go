package transport

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"accrual/internal/clock"
	"accrual/internal/core"
	"accrual/internal/phi"
	"accrual/internal/service"
	"accrual/internal/telemetry"
)

// newBareListener builds a listener without a socket: the test drives
// handleDatagram itself, as the read loop would, and the workers (if
// any) stop at cleanup.
func newBareListener(t *testing.T, mon *service.Monitor, opts ...ListenerOption) *Listener {
	t.Helper()
	l := newListener(mon, opts...)
	l.startWorkers()
	t.Cleanup(l.stopWorkers)
	return l
}

// waitIngested spins until the listener has accounted n beats as
// delivered or rejected. It allocates nothing while it waits, so the
// zero-alloc gate can wait on the workers inside the measured region.
func waitIngested(t *testing.T, l *Listener, n uint64) {
	deadline := time.Now().Add(5 * time.Second)
	for l.tel.Delivered.Load()+l.tel.Rejected.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("ingested %d of %d beats", l.tel.Delivered.Load()+l.tel.Rejected.Load(), n)
		}
		runtime.Gosched()
	}
}

// TestListenerBatchIngestZeroAlloc pins the receive path — decode,
// interning, arrival stamping, dispatch, Monitor.HeartbeatBatch — at
// zero allocations per datagram in steady state, for AFB1 frames and
// AFD1 datagrams alike, both on the read loop and fanned out to the
// daemon's default of one ingest worker per core. On the worker path
// each measured datagram waits until the workers have ingested it, so
// the budget covers their side (pooled groups, the batch ingest) too.
func TestListenerBatchIngestZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"read-loop", 0},
		{"workers", runtime.GOMAXPROCS(0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.workers > 0 && raceEnabled {
				t.Skip("under the race detector sync.Pool drops pooled groups at random")
			}
			l := newBareListener(t, newMonitor(), WithIngestWorkers(tc.workers))
			beats := batchBeats(32, 8, 1)
			enc := NewBatchEncoder(32)
			var seq, want uint64
			oneFrame := func() {
				seq++
				enc.Reset()
				for i := range beats {
					beats[i].Seq = seq
					if err := enc.Add(beats[i]); err != nil {
						t.Fatal(err)
					}
				}
				l.handleDatagram(enc.Bytes(), beats[0].Sent)
				want += uint64(len(beats))
				waitIngested(t, l, want)
			}
			oneFrame() // warm: registers processes, grows scratch
			if allocs := testing.AllocsPerRun(1000, oneFrame); allocs != 0 {
				t.Errorf("batch frame ingest: %.1f allocs/op, want 0", allocs)
			}

			// The AFD1 datagram takes the same path, on the same budget.
			var pkt []byte
			oneSingle := func() {
				seq++
				var err error
				if pkt, err = AppendHeartbeat(pkt[:0], core.Heartbeat{From: "proc-00", Seq: seq, Sent: beats[0].Sent}); err != nil {
					t.Fatal(err)
				}
				l.handleDatagram(pkt, beats[0].Sent)
				want++
				waitIngested(t, l, want)
			}
			oneSingle()
			if allocs := testing.AllocsPerRun(1000, oneSingle); allocs != 0 {
				t.Errorf("single datagram ingest: %.1f allocs/op, want 0", allocs)
			}
			if got := l.Stats(); got.Delivered != want || got.Dropped() != 0 {
				t.Errorf("delivered %d of %d, dropped %d", got.Delivered, want, got.Dropped())
			}
		})
	}
}

// TestListenerAFD1MatchesAFB1 sends one beat stream twice through
// handleDatagram — one AFD1 datagram per beat, then one AFB1 frame per
// round — on the read loop and through two workers. The two encodings
// take one path to the registry, so levels, last arrivals, the
// listener's delivery counters and the monitor's counters all agree;
// only the datagram count and the AFB1-only batch series differ.
func TestListenerAFD1MatchesAFB1(t *testing.T) {
	base := time.Date(2005, 3, 22, 0, 0, 0, 0, time.UTC)
	var rounds [][]core.Heartbeat
	for r := 1; r <= 6; r++ {
		var round []core.Heartbeat
		for p := 0; p < 5; p++ {
			round = append(round, core.Heartbeat{From: fmt.Sprintf("proc-%d", p), Seq: uint64(r)})
		}
		rounds = append(rounds, round)
	}
	// Refused beats ride along: a late duplicate and a Seq-0 beat.
	rounds = append(rounds, []core.Heartbeat{{From: "proc-1", Seq: 3}, {From: "proc-2", Seq: 0}})
	const total = 6*5 + 2

	type outcome struct {
		infos    map[string]service.ProcessInfo
		counters telemetry.CounterTotals
		stats    telemetry.TransportStats
	}
	run := func(t *testing.T, workers int, batched bool) outcome {
		clk := clock.NewManual(base)
		hub := telemetry.NewHub()
		mon := service.NewMonitor(clk, func(_ string, start time.Time) core.Detector {
			return phi.New(start, phi.WithBootstrap(100*time.Millisecond, 25*time.Millisecond))
		}, service.WithTelemetry(hub))
		l := newBareListener(t, mon, WithIngestWorkers(workers), WithTelemetry(hub))
		sent := 0
		for r, round := range rounds {
			arrived := base.Add(time.Duration(r+1) * 100 * time.Millisecond)
			if batched {
				frame, err := MarshalBatch(round)
				if err != nil {
					t.Fatal(err)
				}
				l.handleDatagram(frame, arrived)
			} else {
				for _, hb := range round {
					pkt, err := MarshalHeartbeat(hb)
					if err != nil {
						t.Fatal(err)
					}
					l.handleDatagram(pkt, arrived)
				}
			}
			sent += len(round)
			waitIngested(t, l, uint64(sent))
		}
		clk.Advance(time.Second)
		out := outcome{infos: map[string]service.ProcessInfo{}, counters: hub.Counters.Totals(), stats: l.Stats()}
		mon.EachInfo(func(info service.ProcessInfo) { out.infos[info.ID] = info })
		return out
	}
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			single, batch := run(t, workers, false), run(t, workers, true)
			if !reflect.DeepEqual(single.infos, batch.infos) {
				t.Errorf("process infos differ:\nAFD1 %+v\nAFB1 %+v", single.infos, batch.infos)
			}
			if single.counters != batch.counters {
				t.Errorf("monitor counters differ: AFD1 %+v, AFB1 %+v", single.counters, batch.counters)
			}
			if single.counters.HeartbeatsStale != 2 || single.counters.HeartbeatsIngested != total {
				t.Errorf("counters %+v, want %d ingested, 2 stale", single.counters, total)
			}
			s, b := single.stats, batch.stats
			if s.PacketsReceived != total || b.PacketsReceived != uint64(len(rounds)) {
				t.Errorf("datagrams received: AFD1 %d, AFB1 %d; want %d and %d", s.PacketsReceived, b.PacketsReceived, total, len(rounds))
			}
			if s.BatchesReceived != 0 || b.BatchesReceived != uint64(len(rounds)) || b.BatchBeats != total {
				t.Errorf("batch series: AFD1 %d frames, AFB1 %d frames / %d beats", s.BatchesReceived, b.BatchesReceived, b.BatchBeats)
			}
			for _, st := range []*telemetry.TransportStats{&s, &b} {
				st.PacketsReceived, st.BatchesReceived, st.BatchBeats, st.BatchHighWater = 0, 0, 0, 0
				st.QueueHighWater = 0 // depends on worker scheduling
			}
			if s != b {
				t.Errorf("listener stats differ: AFD1 %+v, AFB1 %+v", s, b)
			}
			if s.Delivered != total || s.Dropped() != 0 {
				t.Errorf("delivered %d, dropped %d; want %d and 0", s.Delivered, s.Dropped(), total)
			}
		})
	}
}
