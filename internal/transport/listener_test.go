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

// TestListenerBatchIngestZeroAlloc pins the receive path — validation,
// record decode, registry resolution, arrival stamping, report — at zero
// allocations per datagram in steady state, for AFB1 frames and AFD1
// datagrams alike. handleDatagram is the read loop's per-datagram step,
// so every measured datagram is fully ingested when it returns.
func TestListenerBatchIngestZeroAlloc(t *testing.T) {
	t.Run("read-loop", func(t *testing.T) {
		l := newListener(newMonitor())
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
		}
		oneFrame() // warm: registers processes
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

// TestKnownIDsNeverAllocate pins the one-hash, one-probe path: a beat
// whose id the registry already holds is resolved against its registry
// shard with the datagram's own bytes, so AFB1 frames and AFD1 datagrams
// of known ids make no allocation at all. Heartbeat ids never reach the
// listener's intern table: it stays empty under known-id traffic, and a
// new id is registered without passing through it either.
func TestKnownIDsNeverAllocate(t *testing.T) {
	mon := newMonitor()
	const procs = 64
	round := make([]core.Heartbeat, procs)
	sent := time.Date(2005, 3, 22, 0, 0, 0, 0, time.UTC)
	for i := range round {
		round[i] = core.Heartbeat{From: fmt.Sprintf("known-%02d", i), Sent: sent}
		if err := mon.Register(round[i].From); err != nil {
			t.Fatal(err)
		}
	}
	l := newListener(mon)
	enc := NewBatchEncoder(procs)
	var pkt []byte
	var seq, want uint64
	frame := func() {
		seq++
		enc.Reset()
		for i := range round {
			round[i].Seq = seq
			if err := enc.Add(round[i]); err != nil {
				t.Fatal(err)
			}
		}
		l.handleDatagram(enc.Bytes(), sent)
		want += procs
	}
	single := func() {
		seq++
		var err error
		if pkt, err = AppendHeartbeat(pkt[:0], core.Heartbeat{From: round[int(seq)%procs].From, Seq: seq, Sent: sent}); err != nil {
			t.Fatal(err)
		}
		l.handleDatagram(pkt, sent)
		want++
	}
	frame()
	single()
	if allocs := testing.AllocsPerRun(200, frame); allocs != 0 {
		t.Errorf("known-id AFB1 frame: %.1f allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, single); allocs != 0 {
		t.Errorf("known-id AFD1 datagram: %.1f allocs/op, want 0", allocs)
	}
	if n := l.ids.Len(); n != 0 {
		t.Errorf("intern table holds %d ids after known-id traffic, want 0", n)
	}
	if st := l.Stats(); st.Delivered != want || st.Dropped() != 0 {
		t.Errorf("delivered %d of %d, dropped %d", st.Delivered, want, st.Dropped())
	}

	pkt, err := MarshalHeartbeat(core.Heartbeat{From: "stranger", Seq: 1, Sent: sent})
	if err != nil {
		t.Fatal(err)
	}
	l.handleDatagram(pkt, sent)
	if !mon.Known("stranger") {
		t.Error("unknown id was not registered")
	}
	if n := l.ids.Len(); n != 0 {
		t.Errorf("intern table holds %d ids after a new id, want 0", n)
	}
}

// TestFreshIDChurnLeavesNoTrace beats 100k fresh ids through the read
// loop's datagram step once each and deregisters each after its beat,
// the way a fleet of short-lived senders (or a spoofer) passes through.
// The registry reuses slots and index words, and the listener keeps
// nothing per heartbeat id, so the intern table ends empty and the live
// heap stays flat.
func TestFreshIDChurnLeavesNoTrace(t *testing.T) {
	mon := newMonitor()
	l := newListener(mon)
	sent := time.Date(2005, 3, 22, 0, 0, 0, 0, time.UTC)
	var pkt []byte
	n := 0
	churn := func(k int) {
		for c := 0; c < k; c++ {
			id := fmt.Sprintf("fresh-%07d", n)
			n++
			var err error
			if pkt, err = AppendHeartbeat(pkt[:0], core.Heartbeat{From: id, Seq: 1, Sent: sent}); err != nil {
				t.Fatal(err)
			}
			l.handleDatagram(pkt, sent)
			if !mon.Deregister(id) {
				t.Fatalf("%s was not registered by its beat", id)
			}
		}
	}
	churn(1000)
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	churn(100_000)

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if got := l.ids.Len(); got != 0 {
		t.Errorf("intern table holds %d ids after fresh-id churn, want 0", got)
	}
	if got := mon.Len(); got != 0 {
		t.Errorf("registry holds %d ids after fresh-id churn, want 0", got)
	}
	runtime.KeepAlive(l)
	const limit = 1 << 20
	if growth := int64(after.HeapAlloc) - int64(before.HeapAlloc); growth > limit {
		t.Errorf("live heap grew %d bytes over 100k fresh ids, want < %d", growth, limit)
	}
}

// TestFreshIDsKeepBeatOrder covers first contact inside a frame: the
// read loop reports known ids in place and registers the new ones after
// them, so a new process's beats must still reach its detector in frame
// order — none refused as stale — and each new id must register once.
func TestFreshIDsKeepBeatOrder(t *testing.T) {
	hub := telemetry.NewHub()
	mon := service.NewMonitor(clock.Wall{}, func(_ string, start time.Time) core.Detector {
		return phi.New(start)
	}, service.WithTelemetry(hub))
	if err := mon.Register("known"); err != nil {
		t.Fatal(err)
	}
	l := newListener(mon, WithTelemetry(hub))
	var round []core.Heartbeat
	for seq := uint64(1); seq <= 3; seq++ {
		for _, id := range []string{"new-a", "known", "new-b"} {
			round = append(round, core.Heartbeat{From: id, Seq: seq})
		}
	}
	frame, err := MarshalBatch(round)
	if err != nil {
		t.Fatal(err)
	}
	l.handleDatagram(frame, time.Now())
	tot := hub.Counters.Totals()
	if tot.HeartbeatsIngested != uint64(len(round)) || tot.HeartbeatsStale != 0 {
		t.Errorf("ingested %d, stale %d; want %d and 0", tot.HeartbeatsIngested, tot.HeartbeatsStale, len(round))
	}
	if tot.Registrations != 3 || mon.Len() != 3 {
		t.Errorf("registrations %d, processes %d; want 3 and 3", tot.Registrations, mon.Len())
	}
	if st := l.Stats(); st.Delivered != uint64(len(round)) || st.Dropped() != 0 {
		t.Errorf("delivered %d, dropped %d; want %d and 0", st.Delivered, st.Dropped(), len(round))
	}
}

// TestListenerAFD1MatchesAFB1 sends one beat stream twice through
// handleDatagram — one AFD1 datagram per beat, then one AFB1 frame per
// round — on the read loop, the listener's only ingest path (zero
// workers). The two encodings take one path to the registry, so levels,
// last arrivals, the listener's delivery counters and the monitor's
// counters all agree; only the datagram count and the AFB1-only batch
// series differ.
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
	run := func(t *testing.T, batched bool) outcome {
		clk := clock.NewManual(base)
		hub := telemetry.NewHub()
		mon := service.NewMonitor(clk, func(_ string, start time.Time) core.Detector {
			return phi.New(start, phi.WithBootstrap(100*time.Millisecond, 25*time.Millisecond))
		}, service.WithTelemetry(hub))
		l := newListener(mon, WithTelemetry(hub))
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
		}
		clk.Advance(time.Second)
		out := outcome{infos: map[string]service.ProcessInfo{}, counters: hub.Counters.Totals(), stats: l.Stats()}
		mon.EachInfo(func(info service.ProcessInfo) { out.infos[info.ID] = info })
		return out
	}
	t.Run("workers=0", func(t *testing.T) {
		single, batch := run(t, false), run(t, true)
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
		}
		if s != b {
			t.Errorf("listener stats differ: AFD1 %+v, AFB1 %+v", s, b)
		}
		if s.Delivered != total || s.Dropped() != 0 {
			t.Errorf("delivered %d, dropped %d; want %d and 0", s.Delivered, s.Dropped(), total)
		}
	})
}
