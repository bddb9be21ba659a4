package faultinject_test

import (
	"bytes"
	"math"
	"testing"
	"time"

	"accrual/internal/clock"
	"accrual/internal/core"
	"accrual/internal/faultinject"
	"accrual/internal/phi"
	"accrual/internal/service"
	"accrual/internal/stats"
	"accrual/internal/telemetry"
	"accrual/internal/transport"
)

// apply runs n numbered packets through the injector and returns every
// emitted packet in delivery order (including the final flush).
func apply(in *faultinject.Injector, n int) []faultinject.Packet {
	var out []faultinject.Packet
	for i := 0; i < n; i++ {
		out = append(out, in.Apply([]byte{byte(i >> 8), byte(i)})...)
	}
	out = append(out, in.Flush()...)
	return out
}

func TestInjectorDeterministic(t *testing.T) {
	f := faultinject.Faults{Drop: 0.2, Dup: 0.2, Reorder: 0.2, Truncate: 0.2,
		Delay: 0.2, MaxDelay: 50 * time.Millisecond}
	a := apply(faultinject.New(f, 7), 500)
	b := apply(faultinject.New(f, 7), 500)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i].Data, b[i].Data) || a[i].Delay != b[i].Delay {
			t.Fatalf("packet %d differs between same-seed runs", i)
		}
	}
	c := apply(faultinject.New(f, 8), 500)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if !bytes.Equal(a[i].Data, c[i].Data) {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced the identical stream")
	}
}

func TestInjectorDropRate(t *testing.T) {
	in := faultinject.New(faultinject.Faults{Drop: 0.3}, 1)
	const n = 10_000
	out := apply(in, n)
	st := in.Stats()
	if st.Dropped < 2700 || st.Dropped > 3300 {
		t.Errorf("dropped %d of %d, want ~30%%", st.Dropped, n)
	}
	if len(out) != n-st.Dropped {
		t.Errorf("emitted %d, want %d (no duplication or loss beyond drops)", len(out), n-st.Dropped)
	}
}

func TestInjectorDup(t *testing.T) {
	in := faultinject.New(faultinject.Faults{Dup: 0.5}, 2)
	const n = 2000
	out := apply(in, n)
	st := in.Stats()
	if st.Dupped < 800 || st.Dupped > 1200 {
		t.Errorf("dupped %d of %d, want ~50%%", st.Dupped, n)
	}
	if len(out) != n+st.Dupped {
		t.Errorf("emitted %d, want %d", len(out), n+st.Dupped)
	}
}

// TestInjectorReorder: with only reordering enabled nothing is lost, the
// multiset of packets is preserved, and the order actually changes.
func TestInjectorReorder(t *testing.T) {
	in := faultinject.New(faultinject.Faults{Reorder: 0.3}, 3)
	const n = 1000
	out := apply(in, n)
	if len(out) != n {
		t.Fatalf("emitted %d, want %d (reordering must not lose packets)", len(out), n)
	}
	seen := make(map[uint16]bool, n)
	swaps := 0
	var prev uint16
	for i, pk := range out {
		v := uint16(pk.Data[0])<<8 | uint16(pk.Data[1])
		if seen[v] {
			t.Fatalf("packet %d delivered twice", v)
		}
		seen[v] = true
		if i > 0 && v < prev {
			swaps++
		}
		prev = v
	}
	if swaps == 0 {
		t.Error("no packet delivered out of order despite Reorder=0.3")
	}
	if st := in.Stats(); st.Reordered == 0 {
		t.Error("stats recorded no reorders")
	}
}

func TestInjectorTruncate(t *testing.T) {
	in := faultinject.New(faultinject.Faults{Truncate: 1}, 4)
	payload := []byte("a full-length heartbeat packet payload")
	for i := 0; i < 100; i++ {
		for _, pk := range in.Apply(payload) {
			if len(pk.Data) >= len(payload) || len(pk.Data) < 1 {
				t.Fatalf("truncated length %d, want 1..%d", len(pk.Data), len(payload)-1)
			}
			if !bytes.Equal(pk.Data, payload[:len(pk.Data)]) {
				t.Fatal("truncation is not a prefix")
			}
		}
	}
}

func TestInjectorDelayBounds(t *testing.T) {
	const max = 80 * time.Millisecond
	in := faultinject.New(faultinject.Faults{Delay: 1, MaxDelay: max}, 5)
	out := apply(in, 500)
	for _, pk := range out {
		if pk.Delay <= 0 || pk.Delay > max {
			t.Fatalf("delay %v outside (0, %v]", pk.Delay, max)
		}
	}
	if st := in.Stats(); st.Delayed != 500 {
		t.Errorf("delayed %d, want 500", st.Delayed)
	}
}

// TestPhiBoundedUnderLossAndReorder is the Property 2 check under a
// hostile link: 30% packet loss plus reordering, a live process, a φ
// detector. The suspicion level sampled at the worst moment (right
// before each delivery, after the longest silence) must stay below a
// fixed bound for the whole run — and that bound must be meaningful:
// after a real crash the level blows far through it. Fully deterministic
// (seeded faults, seeded jitter, manual clock).
func TestPhiBoundedUnderLossAndReorder(t *testing.T) {
	// The bound is coarse on purpose: φ spikes under loss bursts (the E6
	// observation — a reordered heartbeat is refused as stale, so 30%
	// drop + 20% reorder is ~40% effective loss and the longest silent
	// gaps reach ~10 intervals). Property 2 asks for *a* bound over the
	// whole run, and the crash check below shows the bound is meaningful.
	const (
		interval = 100 * time.Millisecond
		beats    = 3000
		bound    = core.Level(150)
		proc     = "live-1"
	)
	epoch := time.Date(2005, 3, 22, 0, 0, 0, 0, time.UTC)
	clk := clock.NewManual(epoch)
	mon := service.NewMonitor(clk, func(_ string, start time.Time) core.Detector {
		return phi.New(start, phi.WithBootstrap(interval, interval/4))
	})
	inj := faultinject.New(faultinject.Faults{Drop: 0.3, Reorder: 0.2}, 42)
	jitter := stats.NewRand(43)

	deliver := func(pk faultinject.Packet) {
		hb, err := transport.UnmarshalHeartbeat(pk.Data)
		if err != nil {
			t.Fatalf("clean packet failed to decode: %v", err)
		}
		hb.Arrived = clk.Now()
		_ = mon.Heartbeat(hb) // stale (overtaken) sequences are refused by the detector
	}

	var maxLvl core.Level
	sendAt := epoch
	for seq := uint64(1); seq <= beats; seq++ {
		sendAt = sendAt.Add(interval + time.Duration((jitter.Float64()-0.5)*float64(interval)/5))
		for clk.Now().Before(sendAt) {
			clk.Advance(sendAt.Sub(clk.Now()))
		}
		// Query at the moment of longest silence, just before delivery.
		if lvl, err := mon.Suspicion(proc); err == nil {
			if !lvl.IsFinite() {
				t.Fatalf("seq %d: suspicion not finite for a live process", seq)
			}
			if lvl > maxLvl {
				maxLvl = lvl
			}
		}
		buf, err := transport.MarshalHeartbeat(core.Heartbeat{From: proc, Seq: seq, Sent: sendAt})
		if err != nil {
			t.Fatal(err)
		}
		for _, pk := range inj.Apply(buf) {
			deliver(pk)
		}
	}
	for _, pk := range inj.Flush() {
		deliver(pk)
	}
	if maxLvl == 0 {
		t.Fatal("no suspicion ever sampled; harness broken")
	}
	if maxLvl > bound {
		t.Errorf("max suspicion %v exceeds bound %v under 30%% loss + reorder (Property 2)", maxLvl, bound)
	}
	t.Logf("max φ over %d beats at 30%% loss + reorder: %v (injector: %+v)", beats, maxLvl, inj.Stats())

	// The bound is meaningful: a crashed process accrues far beyond it.
	clk.Advance(100 * interval)
	if lvl, err := mon.Suspicion(proc); err != nil || lvl <= bound {
		t.Errorf("after crash-length silence suspicion = %v (err %v), want > %v", lvl, err, bound)
	}
}

// TestQoSSaneUnderFaults drives the online QoS estimators through the
// same hostile link: sampled levels feed the Algorithm 3 reference
// interpreter while packets drop, duplicate and reorder. The estimates
// must stay sane — probabilities in [0,1], rates non-negative and
// finite — instead of being poisoned by the fault-inflated levels.
func TestQoSSaneUnderFaults(t *testing.T) {
	const (
		interval = 100 * time.Millisecond
		beats    = 2000
		proc     = "live-2"
	)
	epoch := time.Date(2005, 3, 22, 0, 0, 0, 0, time.UTC)
	clk := clock.NewManual(epoch)
	hub := telemetry.NewHub()
	if err := hub.QoS().SetThresholds(8, 4); err != nil {
		t.Fatal(err)
	}
	mon := service.NewMonitor(clk, func(_ string, start time.Time) core.Detector {
		return phi.New(start, phi.WithBootstrap(interval, interval/4))
	}, service.WithTelemetry(hub))
	inj := faultinject.New(faultinject.Faults{Drop: 0.3, Dup: 0.1, Reorder: 0.2}, 99)
	jitter := stats.NewRand(100)

	sendAt := epoch
	for seq := uint64(1); seq <= beats; seq++ {
		sendAt = sendAt.Add(interval + time.Duration((jitter.Float64()-0.5)*float64(interval)/5))
		for clk.Now().Before(sendAt) {
			clk.Advance(sendAt.Sub(clk.Now()))
		}
		hub.QoS().Sample(mon)
		buf, err := transport.MarshalHeartbeat(core.Heartbeat{From: proc, Seq: seq, Sent: sendAt})
		if err != nil {
			t.Fatal(err)
		}
		for _, pk := range inj.Apply(buf) {
			hb, err := transport.UnmarshalHeartbeat(pk.Data)
			if err != nil {
				t.Fatal(err)
			}
			hb.Arrived = clk.Now()
			_ = mon.Heartbeat(hb)
		}
	}

	if n := mon.Len(); n != 1 {
		t.Fatalf("monitor tracks %d processes, want 1", n)
	}
	est, ok := hub.QoS().Estimate(proc)
	if !ok || est.Samples < beats/2 {
		t.Fatalf("estimate %+v (ok=%v): too few samples", est, ok)
	}
	if math.IsNaN(est.PA) || est.PA < 0 || est.PA > 1 {
		t.Errorf("P_A = %v, want a probability", est.PA)
	}
	if est.PA < 0.5 {
		t.Errorf("P_A = %v under faults, want >= 0.5 for a live process", est.PA)
	}
	if math.IsNaN(est.LambdaM) || est.LambdaM < 0 || est.LambdaM > 1 {
		t.Errorf("lambda_M = %v /s, want finite, non-negative and small", est.LambdaM)
	}
	if !est.Level.IsFinite() {
		t.Errorf("sampled level %v not finite", est.Level)
	}
}
