package transport

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"accrual/internal/core"
	"accrual/internal/faultinject"
	"accrual/internal/transport/intern"
)

func batchBeats(n, procs int, baseSeq uint64) []core.Heartbeat {
	beats := make([]core.Heartbeat, n)
	sent := time.Date(2005, 3, 22, 0, 0, 0, 12345, time.UTC)
	for i := range beats {
		beats[i] = core.Heartbeat{
			From: fmt.Sprintf("proc-%02d", i%procs),
			Seq:  baseSeq + uint64(i/procs),
			Sent: sent.Add(time.Duration(i) * time.Millisecond),
		}
	}
	return beats
}

func TestBatchRoundTrip(t *testing.T) {
	beats := batchBeats(32, 8, 1)
	frame, err := MarshalBatch(beats)
	if err != nil {
		t.Fatal(err)
	}
	if !IsBatchFrame(frame) {
		t.Fatal("encoded batch not recognised as a batch frame")
	}
	got, err := UnmarshalBatch(frame, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(beats) {
		t.Fatalf("decoded %d beats, want %d", len(got), len(beats))
	}
	for i := range beats {
		if got[i].From != beats[i].From || got[i].Seq != beats[i].Seq || !got[i].Sent.Equal(beats[i].Sent) {
			t.Errorf("beat %d: got %+v, want %+v", i, got[i], beats[i])
		}
		if !got[i].Arrived.IsZero() {
			t.Errorf("beat %d: Arrived = %v, want zero (receiver stamps it)", i, got[i].Arrived)
		}
	}
}

func TestBatchEncoderLimits(t *testing.T) {
	e := NewBatchEncoder(2)
	if e.Bytes() != nil {
		t.Error("empty encoder produced a frame")
	}
	if err := e.Add(core.Heartbeat{}); !errors.Is(err, ErrEmptyID) {
		t.Errorf("empty id: err = %v, want ErrEmptyID", err)
	}
	long := make([]byte, maxIDLen+1)
	for i := range long {
		long[i] = 'x'
	}
	if err := e.Add(core.Heartbeat{From: string(long)}); !errors.Is(err, ErrIDTooLong) {
		t.Errorf("oversized id: err = %v, want ErrIDTooLong", err)
	}
	if err := e.Add(core.Heartbeat{From: "a", Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if err := e.Add(core.Heartbeat{From: "b", Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if err := e.Add(core.Heartbeat{From: "c", Seq: 1}); !errors.Is(err, ErrBatchFull) {
		t.Errorf("over maxBeats: err = %v, want ErrBatchFull", err)
	}
	if e.Count() != 2 {
		t.Errorf("Count = %d, want 2", e.Count())
	}
	// A rejected Add must not corrupt the frame.
	if got, err := UnmarshalBatch(e.Bytes(), nil, nil); err != nil || len(got) != 2 {
		t.Errorf("decode after rejected Add: %d beats, err %v", len(got), err)
	}
}

// TestBatchDecodeAtomicity cuts a valid frame at every possible byte
// offset: every proper prefix must be rejected whole — the destination
// slice comes back unchanged, never extended with the records before the
// cut.
func TestBatchDecodeAtomicity(t *testing.T) {
	frame, err := MarshalBatch(batchBeats(5, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	sentinel := core.Heartbeat{From: "sentinel", Seq: 99}
	for cut := 0; cut < len(frame); cut++ {
		dst := []core.Heartbeat{sentinel}
		got, err := UnmarshalBatch(frame[:cut], dst, nil)
		if err == nil {
			t.Fatalf("cut at %d/%d decoded successfully", cut, len(frame))
		}
		if !errors.Is(err, ErrBadPacket) {
			t.Fatalf("cut at %d: err %v does not wrap ErrBadPacket", cut, err)
		}
		if len(got) != 1 || got[0] != sentinel {
			t.Fatalf("cut at %d: dst mutated to %d beats (half-applied batch)", cut, len(got))
		}
	}
}

func TestBatchDecodeRejects(t *testing.T) {
	frame, err := MarshalBatch(batchBeats(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mangle func([]byte) []byte
		want   error
	}{
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, ErrBadMagic},
		{"bad version", func(b []byte) []byte { b[4] = 9; return b }, ErrBadVersion},
		{"zero count", func(b []byte) []byte { b[5], b[6] = 0, 0; return b }, ErrLengthMismatch},
		{"count over cap", func(b []byte) []byte { b[5], b[6] = 0xff, 0xff; return b }, ErrLengthMismatch},
		{"count understates", func(b []byte) []byte { b[6] = 1; return b }, ErrLengthMismatch},
		{"count overstates", func(b []byte) []byte { b[6] = 3; return b }, ErrLengthMismatch},
		{"trailing bytes", func(b []byte) []byte { return append(b, 0) }, ErrLengthMismatch},
		{"zero id length", func(b []byte) []byte { b[batchHeaderLen] = 0; return b }, ErrLengthMismatch},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf := append([]byte(nil), frame...)
			got, err := UnmarshalBatch(tc.mangle(buf), nil, nil)
			if !errors.Is(err, tc.want) {
				t.Errorf("err = %v, want %v", err, tc.want)
			}
			if len(got) != 0 {
				t.Errorf("rejected frame yielded %d beats", len(got))
			}
		})
	}
}

// TestBatchCodecZeroAlloc pins the steady-state codec at zero
// allocations per frame in both directions: a reused encoder on the send
// side, a reused destination slice plus a warm id interner on the
// receive side.
func TestBatchCodecZeroAlloc(t *testing.T) {
	beats := batchBeats(32, 8, 1)
	enc := NewBatchEncoder(32)
	intern := NewIDInterner()
	var dst []core.Heartbeat
	var frame []byte
	seq := uint64(0)
	encode := func() {
		seq++
		enc.Reset()
		for i := range beats {
			beats[i].Seq = seq
			if err := enc.Add(beats[i]); err != nil {
				t.Fatal(err)
			}
		}
		frame = enc.Bytes()
	}
	decode := func() {
		got, err := UnmarshalBatch(frame, dst[:0], intern)
		if err != nil || len(got) != len(beats) {
			t.Fatalf("decode: %d beats, err %v", len(got), err)
		}
		dst = got
	}
	encode()
	decode() // warm: buffers grown, ids interned
	if allocs := testing.AllocsPerRun(1000, encode); allocs != 0 {
		t.Errorf("batch encode: %.1f allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, decode); allocs != 0 {
		t.Errorf("batch decode: %.1f allocs/op, want 0", allocs)
	}
}

// TestIDInternerCap pins the capacity contract of the id table: a
// bounded interner never exceeds its configured capacity, every distinct
// id past the cap is counted as overflow instead of silently forgotten,
// and conversions stay correct either way.
func TestIDInternerCap(t *testing.T) {
	const capacity = 1 << 10
	in := intern.New(intern.WithCapacity(capacity))
	var buf [12]byte
	const distinct = capacity + 4096
	for i := 0; i < distinct; i++ {
		in.Intern(fmt.Appendf(buf[:0], "%d", i))
	}
	if in.Len() > capacity {
		t.Errorf("interner grew to %d entries, cap is %d", in.Len(), capacity)
	}
	if in.Len()+int(in.Overflows()) != distinct {
		t.Errorf("Len %d + Overflows %d != %d distinct inserts",
			in.Len(), in.Overflows(), distinct)
	}
	if in.Overflows() == 0 {
		t.Error("no overflows counted past capacity")
	}
	// Over the cap it still converts correctly, just without remembering.
	if got := in.Intern([]byte("overflow")); got != "overflow" {
		t.Errorf("Intern past cap = %q", got)
	}
}

// TestListenerInternOverflowTelemetry proves a capacity-starved listener
// surfaces the overflow in its transport counters (the
// accrual_intern_overflow_total series) instead of allocating silently.
// The table canonicalises AFG1 digest ids, so the spray is digests whose
// suspect ids are all distinct.
func TestListenerInternOverflowTelemetry(t *testing.T) {
	mon := newMonitor()
	l, err := Listen("127.0.0.1:0", mon, WithInternCapacity(64))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	conn, err := net.Dial("udp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var buf []byte
	const digests, perDigest = 16, 64 // 1024 ids, far beyond the 64-id table
	d := &Digest{Origin: "spray", Sent: time.Unix(0, 0), Suspects: make([]DigestSuspect, perDigest)}
	for i := 0; i < digests; i++ {
		d.Seq = uint64(i + 1)
		for j := range d.Suspects {
			d.Suspects[j] = DigestSuspect{ID: fmt.Sprintf("spray-%04d", i*perDigest+j), Level: 1}
		}
		if buf, err = AppendDigest(buf[:0], d); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, 3*time.Second, func() bool {
		return l.Stats().InternOverflow > 0
	})
	if got := l.Stats().InternOverflow; got == 0 {
		t.Error("InternOverflow = 0 after spraying digest ids past the table capacity")
	}
}

// TestMixedWireEndToEnd runs an old-style single-beat AFD1 sender and a
// coalescing AFB1 group sender against the same listener: both wire
// formats must land in the monitor side by side, since a fleet upgrades
// its senders one at a time.
func TestMixedWireEndToEnd(t *testing.T) {
	mon := newMonitor()
	l, err := Listen("127.0.0.1:0", mon)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	plain, err := NewSender("plain", l.Addr().String(), 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	group, err := NewGroupSender([]string{"g1", "g2", "g3"}, l.Addr().String(),
		10*time.Millisecond, WithBatch(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Start(); err != nil {
		t.Fatal(err)
	}
	defer plain.Stop()
	if err := group.Start(); err != nil {
		t.Fatal(err)
	}
	defer group.Stop()

	waitUntil(t, 3*time.Second, func() bool {
		st := l.Stats()
		return mon.Len() == 4 && st.BatchesReceived >= 2 && st.Delivered >= 12
	})
	st := l.Stats()
	if st.BatchHighWater != 3 {
		t.Errorf("batch high water = %d, want 3 (one beat per group id)", st.BatchHighWater)
	}
	if st.BatchBeats < 6 {
		t.Errorf("batch beats = %d, want >= 6", st.BatchBeats)
	}
	if dropped := st.Dropped(); dropped != 0 {
		t.Errorf("dropped = %d, want 0", dropped)
	}
	for _, id := range []string{"plain", "g1", "g2", "g3"} {
		lvl, err := mon.Suspicion(id)
		if err != nil {
			t.Fatalf("%s never reached the monitor: %v", id, err)
		}
		if lvl > 1 {
			t.Errorf("%s: suspicion = %v, want small while heartbeats flow", id, lvl)
		}
	}
}

// TestBatchDelayCoalescesAcrossRounds checks the flush-window half of
// WithBatch: with maxDelay above the heartbeat interval, consecutive
// rounds of a single-process sender fold into shared frames instead of
// one datagram per round.
func TestBatchDelayCoalescesAcrossRounds(t *testing.T) {
	mon := newMonitor()
	l, err := Listen("127.0.0.1:0", mon)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	s, err := NewSender("w1", l.Addr().String(), 5*time.Millisecond,
		WithBatch(64, 50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	waitUntil(t, 3*time.Second, func() bool {
		return l.Stats().BatchesReceived >= 2
	})
	st := l.Stats()
	if st.BatchBeats <= st.BatchesReceived {
		t.Errorf("%d beats over %d frames: flush delay did not coalesce rounds",
			st.BatchBeats, st.BatchesReceived)
	}
	if _, err := mon.Suspicion("w1"); err != nil {
		t.Errorf("coalesced beats never reached the monitor: %v", err)
	}
}

// TestBatchSenderFlushOnStop proves Stop drains held beats: with an
// hour-long flush window nothing would ever hit the wire mid-run, so
// everything Delivered arrived via the final flush.
func TestBatchSenderFlushOnStop(t *testing.T) {
	mon := newMonitor()
	l, err := Listen("127.0.0.1:0", mon)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	s, err := NewSender("w1", l.Addr().String(), 5*time.Millisecond,
		WithBatch(1024, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 3*time.Second, func() bool { return s.Sent() >= 3 })
	if got := l.Stats().Delivered; got != 0 {
		t.Fatalf("%d beats delivered before Stop; flush window not honoured", got)
	}
	s.Stop()
	waitUntil(t, 3*time.Second, func() bool { return l.Stats().Delivered >= 3 })
	if st := l.Stats(); st.BatchesReceived == 0 {
		t.Error("final flush did not arrive as a batch frame")
	}
}

// TestSenderSingleZeroAlloc pins the non-batched send path at zero
// allocations per heartbeat: the AFD1 encode buffer is reused, so a
// long-lived sender's steady state costs no garbage.
func TestSenderSingleZeroAlloc(t *testing.T) {
	s, err := NewSender("worker-1", "unused:0", time.Hour,
		WithSenderDialer(func(string) (net.Conn, error) { return discardConn{}, nil }))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	s.Stop()
	s.conn = discardConn{} // loop joined; safe to drive sendOne directly
	done := make(chan struct{})
	s.sendOne(done) // warm the encode buffer
	if allocs := testing.AllocsPerRun(1000, func() { s.sendOne(done) }); allocs != 0 {
		t.Errorf("single-beat send: %.1f allocs/op, want 0", allocs)
	}
}

// TestSenderBatchZeroAlloc pins the coalescing send path at zero
// allocations per round once the encoder and pending slice have grown.
func TestSenderBatchZeroAlloc(t *testing.T) {
	ids := make([]string, 8)
	for i := range ids {
		ids[i] = fmt.Sprintf("proc-%d", i)
	}
	s, err := NewGroupSender(ids, "unused:0", time.Hour, WithBatch(8, 0),
		WithSenderDialer(func(string) (net.Conn, error) { return discardConn{}, nil }))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	s.Stop()
	s.conn = discardConn{}
	s.benc = NewBatchEncoder(s.batchMax)
	done := make(chan struct{})
	round := func() {
		s.collectRound()
		s.flushBatch(done, s.batchMax)
		if len(s.pending) != 0 {
			t.Fatal("round left pending beats")
		}
	}
	round() // warm
	if allocs := testing.AllocsPerRun(1000, round); allocs != 0 {
		t.Errorf("batched send round: %.1f allocs/op, want 0", allocs)
	}
}

// discardConn is a net.Conn that accepts every write instantly.
type discardConn struct{}

func (discardConn) Read([]byte) (int, error)         { return 0, net.ErrClosed }
func (discardConn) Write(p []byte) (int, error)      { return len(p), nil }
func (discardConn) Close() error                     { return nil }
func (discardConn) LocalAddr() net.Addr              { return nil }
func (discardConn) RemoteAddr() net.Addr             { return nil }
func (discardConn) SetDeadline(time.Time) error      { return nil }
func (discardConn) SetReadDeadline(time.Time) error  { return nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

// TestTruncateRecordRejectsWholeBatch drives the faultinject mid-record
// truncation mode across many seeds (many cut points): every mangled
// frame must be rejected in full with ErrLengthMismatch — the records
// before the cut are never applied.
func TestTruncateRecordRejectsWholeBatch(t *testing.T) {
	frame, err := MarshalBatch(batchBeats(6, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 64; seed++ {
		inj := faultinject.New(faultinject.Faults{TruncateRecord: 1}, seed)
		pkts := inj.Apply(frame)
		if len(pkts) != 1 {
			t.Fatalf("seed %d: %d packets out, want 1", seed, len(pkts))
		}
		data := pkts[0].Data
		if len(data) >= len(frame) || len(data) <= batchHeaderLen {
			t.Fatalf("seed %d: cut to %d bytes of %d, want strictly inside a record",
				seed, len(data), len(frame))
		}
		got, err := UnmarshalBatch(data, nil, nil)
		if !errors.Is(err, ErrLengthMismatch) {
			t.Errorf("seed %d: err = %v, want ErrLengthMismatch", seed, err)
		}
		if len(got) != 0 {
			t.Errorf("seed %d: truncated batch half-applied %d beats", seed, len(got))
		}
		if st := inj.Stats(); st.RecordTruncated != 1 {
			t.Errorf("seed %d: RecordTruncated = %d, want 1", seed, st.RecordTruncated)
		}
	}

	// Non-batch packets pass through untouched: the mode is batch-specific.
	single, err := MarshalHeartbeat(core.Heartbeat{From: "p", Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(faultinject.Faults{TruncateRecord: 1}, 7)
	pkts := inj.Apply(single)
	if len(pkts) != 1 || len(pkts[0].Data) != len(single) {
		t.Fatal("TruncateRecord modified a non-batch packet")
	}
	if st := inj.Stats(); st.RecordTruncated != 0 {
		t.Errorf("RecordTruncated = %d on non-batch traffic, want 0", st.RecordTruncated)
	}
}

// TestTruncatedBatchOverWire sends a mid-record-truncated frame through a
// real listener: it must count as malformed and leave the monitor
// untouched — no process from the mangled batch may appear registered.
func TestTruncatedBatchOverWire(t *testing.T) {
	mon := newMonitor()
	l, err := Listen("127.0.0.1:0", mon)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	frame, err := MarshalBatch(batchBeats(4, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(faultinject.Faults{TruncateRecord: 1}, 3)
	pkts := inj.Apply(frame)
	conn, err := net.Dial("udp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(pkts[0].Data); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 3*time.Second, func() bool {
		return l.Stats().PacketsMalformed >= 1
	})
	if got := mon.Len(); got != 0 {
		t.Errorf("truncated batch registered %d processes, want 0", got)
	}
	if st := l.Stats(); st.Delivered != 0 || st.BatchesReceived != 0 {
		t.Errorf("truncated batch delivered %d beats over %d frames, want 0/0",
			st.Delivered, st.BatchesReceived)
	}
}

// TestBatchBeatsPerSyscall is the deterministic form of the batching win:
// each datagram costs exactly one send syscall and at most one receive
// syscall, so beats-per-datagram is a lower bound on beats-per-syscall.
// At batch size 32 the coalesced path must carry at least 3x more beats
// per syscall than the single-packet path (it carries 32x).
func TestBatchBeatsPerSyscall(t *testing.T) {
	const (
		batch  = 32
		frames = 10
		total  = batch * frames
	)
	deliver := func(t *testing.T, batched bool) (beats, datagrams uint64) {
		t.Helper()
		mon := newMonitor()
		l, err := Listen("127.0.0.1:0", mon)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		conn, err := net.Dial("udp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		sent := uint64(0)
		if batched {
			enc := NewBatchEncoder(batch)
			for f := 0; f < frames; f++ {
				enc.Reset()
				for _, hb := range batchBeats(batch, batch, uint64(f)+1) {
					if err := enc.Add(hb); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := conn.Write(enc.Bytes()); err != nil {
					t.Fatal(err)
				}
				sent += batch
				// Pace against the loopback socket buffer.
				waitUntil(t, 3*time.Second, func() bool {
					return l.Stats().Delivered == sent
				})
			}
		} else {
			var buf []byte
			for f := 0; f < frames; f++ {
				for _, hb := range batchBeats(batch, batch, uint64(f)+1) {
					if buf, err = AppendHeartbeat(buf[:0], hb); err != nil {
						t.Fatal(err)
					}
					if _, err := conn.Write(buf); err != nil {
						t.Fatal(err)
					}
				}
				sent += batch
				waitUntil(t, 3*time.Second, func() bool {
					return l.Stats().Delivered == sent
				})
			}
		}
		st := l.Stats()
		return st.Delivered, st.PacketsReceived
	}

	singleBeats, singleDatagrams := deliver(t, false)
	batchedBeats, batchedDatagrams := deliver(t, true)
	if singleBeats != total || batchedBeats != total {
		t.Fatalf("delivered %d single / %d batched beats, want %d each",
			singleBeats, batchedBeats, total)
	}
	singleRate := float64(singleBeats) / float64(singleDatagrams)
	batchedRate := float64(batchedBeats) / float64(batchedDatagrams)
	t.Logf("beats per datagram: single %.1f, batched %.1f (%.1fx)",
		singleRate, batchedRate, batchedRate/singleRate)
	if batchedRate < 3*singleRate {
		t.Errorf("batched path carries %.1f beats/datagram vs %.1f single: below the 3x floor",
			batchedRate, singleRate)
	}
}

// BenchmarkIngestBatch measures end-to-end heartbeat throughput over real
// loopback sockets — encode, send syscall, receive syscall(s), decode,
// monitor ingest — comparing the single-packet wire path against AFB1
// coalescing at batch size 32. The beats/datagram metric is the syscall
// amortisation; ns/op includes the real per-datagram syscall cost the
// batch path divides across its beats.
func BenchmarkIngestBatch(b *testing.B) {
	for _, bc := range []struct {
		name  string
		batch int
	}{
		{"single", 1},
		{"batch32", 32},
	} {
		b.Run(bc.name, func(b *testing.B) {
			mon := newMonitor()
			l, err := Listen("127.0.0.1:0", mon)
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			conn, err := net.Dial("udp", l.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			defer conn.Close()

			const procs = 64
			ids := make([]string, procs)
			for i := range ids {
				ids[i] = fmt.Sprintf("proc-%02d", i)
			}
			enc := NewBatchEncoder(bc.batch)
			var single []byte
			sentAt := time.Now()
			datagrams := 0
			accounted := func() uint64 {
				st := l.Stats()
				return st.Delivered + st.Dropped()
			}
			// Bounded catch-up wait: loopback UDP may still drop a packet
			// under burst (skb accounting overflows the receive buffer
			// long before the byte count does), and a lost datagram must
			// not hang the bench.
			drainTo := func(target uint64) {
				deadline := time.Now().Add(2 * time.Second)
				for accounted() < target && time.Now().Before(deadline) {
					time.Sleep(50 * time.Microsecond)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			sent := 0
			for sent < b.N {
				if bc.batch == 1 {
					hb := core.Heartbeat{From: ids[sent%procs], Seq: uint64(sent/procs + 1), Sent: sentAt}
					if single, err = AppendHeartbeat(single[:0], hb); err != nil {
						b.Fatal(err)
					}
					if _, err := conn.Write(single); err != nil {
						b.Fatal(err)
					}
					sent++
				} else {
					enc.Reset()
					for j := 0; j < bc.batch && sent < b.N; j++ {
						hb := core.Heartbeat{From: ids[sent%procs], Seq: uint64(sent/procs + 1), Sent: sentAt}
						if err := enc.Add(hb); err != nil {
							b.Fatal(err)
						}
						sent++
					}
					if _, err := conn.Write(enc.Bytes()); err != nil {
						b.Fatal(err)
					}
				}
				datagrams++
				// Self-pace: keep the sender within ~128 beats of the
				// listener so the loopback socket buffer rarely overflows
				// and the measurement stays end-to-end.
				if datagrams%32 == 0 && sent > 128 {
					drainTo(uint64(sent - 128))
				}
			}
			drainTo(uint64(sent))
			b.StopTimer()
			b.ReportMetric(float64(sent)/float64(datagrams), "beats/datagram")
		})
	}
}

// FuzzBatchDecode feeds arbitrary bytes through the batch decoder: it
// must never panic, and everything it accepts must survive a re-encode /
// re-decode round trip unchanged.
// FuzzDigestDecode drives the AFG1 decoder with arbitrary bytes: it must
// never panic, a rejected frame must leave the digest reset, and an
// accepted frame must round-trip byte-identically through re-encoding
// (NaN levels compared as bits).
func FuzzDigestDecode(f *testing.F) {
	good, err := MarshalDigest(sampleDigest())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte("AFG1"))
	f.Add([]byte("AFG1\x01\x01p"))
	f.Add(append(append([]byte(nil), good...), 0xff))
	f.Add(good[:len(good)-5])
	empty, _ := MarshalDigest(&Digest{Origin: "p", Seq: 1})
	f.Add(empty)
	single, _ := MarshalHeartbeat(core.Heartbeat{From: "p", Seq: 1})
	f.Add(single)

	f.Fuzz(func(t *testing.T, data []byte) {
		var d Digest
		if err := UnmarshalDigest(data, &d, nil); err != nil {
			if d.Origin != "" || d.Seq != 0 || len(d.Suspects) != 0 || len(d.Groups) != 0 {
				t.Fatalf("rejected frame left state behind: %+v", d)
			}
			return // rejected: fine, as long as it did not panic
		}
		buf, err := MarshalDigest(&d)
		if err != nil {
			t.Fatalf("decoded digest does not re-encode: %v", err)
		}
		if string(buf) != string(data) {
			t.Fatalf("round trip changed the frame: %d vs %d bytes", len(buf), len(data))
		}
	})
}

func FuzzBatchDecode(f *testing.F) {
	good, err := MarshalBatch(batchBeats(3, 2, 1))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte("AFB1"))
	f.Add([]byte("AFB1\x01\x00\x01"))
	f.Add(append(append([]byte(nil), good...), 0xff))
	f.Add(good[:len(good)-5])
	single, _ := MarshalHeartbeat(core.Heartbeat{From: "p", Seq: 1})
	f.Add(single)

	f.Fuzz(func(t *testing.T, data []byte) {
		beats, err := UnmarshalBatch(data, nil, nil)
		if err != nil {
			if len(beats) != 0 {
				t.Fatalf("rejected frame returned %d beats", len(beats))
			}
			return // rejected: fine, as long as it did not panic
		}
		buf, err := MarshalBatch(beats)
		if err != nil {
			t.Fatalf("decoded batch does not re-encode: %v", err)
		}
		again, err := UnmarshalBatch(buf, nil, nil)
		if err != nil {
			t.Fatalf("re-encoded batch does not decode: %v", err)
		}
		if len(again) != len(beats) {
			t.Fatalf("round trip changed beat count: %d vs %d", len(again), len(beats))
		}
		for i := range beats {
			if again[i].From != beats[i].From || again[i].Seq != beats[i].Seq ||
				!again[i].Sent.Equal(beats[i].Sent) {
				t.Fatalf("round trip changed beat %d: %+v vs %+v", i, beats[i], again[i])
			}
		}
	})
}
