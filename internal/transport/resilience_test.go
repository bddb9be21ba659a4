package transport

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accrual/internal/core"
	"accrual/internal/telemetry"
)

// TestSenderRestart cycles one sender through Start/Stop three times:
// no goroutine may leak, sequence numbers must stay monotone across
// restarts, and heartbeats must flow in every incarnation. Run with
// -race in CI.
func TestSenderRestart(t *testing.T) {
	mon := newMonitor()
	l, err := Listen("127.0.0.1:0", mon)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	s, err := NewSender("restarter", l.Addr().String(), 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	var lastSent uint64
	for round := 1; round <= 3; round++ {
		if err := s.Start(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		wantDelivered := l.Stats().Delivered + 2
		waitUntil(t, 3*time.Second, func() bool {
			return l.Stats().Delivered >= wantDelivered
		})
		s.Stop()
		sent := s.Sent()
		if sent <= lastSent {
			t.Fatalf("round %d: Sent() = %d, want > %d (monotone across restarts)", round, sent, lastSent)
		}
		lastSent = sent
	}
	// The loop goroutine must be joined after every Stop.
	waitUntil(t, 3*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before
	})
}

// flakyConn is a net.Conn whose writes always fail.
type flakyConn struct {
	closed atomic.Bool
}

func (c *flakyConn) Read([]byte) (int, error)         { return 0, net.ErrClosed }
func (c *flakyConn) Write([]byte) (int, error)        { return 0, errors.New("simulated unreachable") }
func (c *flakyConn) Close() error                     { c.closed.Store(true); return nil }
func (c *flakyConn) LocalAddr() net.Addr              { return &net.UDPAddr{} }
func (c *flakyConn) RemoteAddr() net.Addr             { return &net.UDPAddr{} }
func (c *flakyConn) SetDeadline(time.Time) error      { return nil }
func (c *flakyConn) SetReadDeadline(time.Time) error  { return nil }
func (c *flakyConn) SetWriteDeadline(time.Time) error { return nil }

// TestSenderRedialsAfterPersistentFailure: a sender whose socket is dead
// tears it down after a few consecutive failures, backs off, redials
// through the dialer (which re-resolves the target) and recovers once
// the target is reachable — all visible through Health.
func TestSenderRedialsAfterPersistentFailure(t *testing.T) {
	mon := newMonitor()
	l, err := Listen("127.0.0.1:0", mon)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	bad := &flakyConn{}
	var dials atomic.Int64
	var mu sync.Mutex
	healNow := false
	s, err := NewSender("phoenix", l.Addr().String(), 2*time.Millisecond,
		WithSenderBackoff(time.Millisecond, 5*time.Millisecond),
		WithSenderDialer(func(target string) (net.Conn, error) {
			n := dials.Add(1)
			mu.Lock()
			healed := healNow
			mu.Unlock()
			if !healed {
				if n == 1 {
					return bad, nil // initial dial succeeds, writes then fail
				}
				return nil, errors.New("simulated resolve failure")
			}
			return net.Dial("udp", target)
		}))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	// The dead socket is torn down and redials begin (and fail).
	waitUntil(t, 3*time.Second, func() bool {
		h := s.Health()
		return h.Redials >= 2 && !h.Connected && h.LastError != nil
	})
	if !bad.closed.Load() {
		t.Error("dead socket never closed on teardown")
	}
	if h := s.Health(); h.SendFailures < senderRedialAfter {
		t.Errorf("SendFailures = %d, want >= %d", h.SendFailures, senderRedialAfter)
	}

	// Heal the target: the next redial reconnects and heartbeats flow.
	mu.Lock()
	healNow = true
	mu.Unlock()
	waitUntil(t, 3*time.Second, func() bool {
		return l.Stats().Delivered >= 2
	})
	waitUntil(t, 3*time.Second, func() bool {
		h := s.Health()
		return h.Connected && h.ConsecutiveFailures == 0 && h.LastError == nil && !h.LastSuccess.IsZero()
	})
	if !mon.Known("phoenix") {
		t.Error("monitor never learned about the recovered sender")
	}
}

// TestNewSenderEmptyID: an empty id gets its own error, not a
// nonsensical "id too long: 0 bytes".
func TestNewSenderEmptyID(t *testing.T) {
	_, err := NewSender("", "127.0.0.1:1", time.Second)
	if !errors.Is(err, ErrEmptyID) {
		t.Errorf("err = %v, want ErrEmptyID", err)
	}
	if errors.Is(err, ErrIDTooLong) {
		t.Errorf("err = %v, must not be ErrIDTooLong", err)
	}
	if _, err := MarshalHeartbeat(core.Heartbeat{From: ""}); !errors.Is(err, ErrEmptyID) {
		t.Errorf("MarshalHeartbeat err = %v, want ErrEmptyID", err)
	}
}

// TestMultiSenderHealth: per-target health separates a dead target from
// a live one.
func TestMultiSenderHealth(t *testing.T) {
	mon := newMonitor()
	l, err := Listen("127.0.0.1:0", mon)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	ms, err := NewMultiSender("dual", []string{l.Addr().String(), "127.0.0.1:1"}, 5*time.Millisecond,
		WithSenderBackoff(time.Millisecond, 5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.Start(); err != nil {
		t.Fatal(err)
	}
	defer ms.Stop()

	waitUntil(t, 3*time.Second, func() bool {
		return l.Stats().Delivered >= 2
	})
	h := ms.Health()
	if len(h) != 2 {
		t.Fatalf("health entries = %d, want 2", len(h))
	}
	if h[0].Target != l.Addr().String() || h[0].LastSuccess.IsZero() {
		t.Errorf("healthy target health = %+v", h[0])
	}
	// The dead target (port 1) may or may not produce immediate write
	// errors depending on the platform's ICMP handling; assert only the
	// shape, not failure counts.
	if h[1].Target != "127.0.0.1:1" {
		t.Errorf("dead target health = %+v", h[1])
	}
}

// recordingConn keeps every frame written to it, and fails writes while
// down is set.
type recordingConn struct {
	mu     sync.Mutex
	down   bool
	frames [][]byte
}

func (c *recordingConn) setDown(down bool) {
	c.mu.Lock()
	c.down = down
	c.mu.Unlock()
}

func (c *recordingConn) isDown() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.down
}

func (c *recordingConn) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.frames)
}

func (c *recordingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down {
		return 0, errors.New("simulated unreachable")
	}
	c.frames = append(c.frames, append([]byte(nil), p...))
	return len(p), nil
}

func (c *recordingConn) Read([]byte) (int, error)         { return 0, net.ErrClosed }
func (c *recordingConn) Close() error                     { return nil }
func (c *recordingConn) LocalAddr() net.Addr              { return &net.UDPAddr{} }
func (c *recordingConn) RemoteAddr() net.Addr             { return &net.UDPAddr{} }
func (c *recordingConn) SetDeadline(time.Time) error      { return nil }
func (c *recordingConn) SetReadDeadline(time.Time) error  { return nil }
func (c *recordingConn) SetWriteDeadline(time.Time) error { return nil }

// TestSenderSeqCountsSkippedRounds: every round takes a sequence
// number, delivered or not, in both send modes. Through an outage —
// failing writes, then failing redials and the backoff between them —
// the first beat delivered after it jumps by the k rounds that were
// not delivered, plus one, so the monitor sees the outage as loss.
func TestSenderSeqCountsSkippedRounds(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts []SenderOption
	}{
		{"afd1", nil},
		{"batch", []SenderOption{WithBatch(16, 0)}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			rec := &recordingConn{}
			hub := telemetry.NewHub()
			opts := append([]SenderOption{
				WithSenderTelemetry(hub),
				WithSenderBackoff(3*time.Millisecond, 6*time.Millisecond),
				WithSenderDialer(func(string) (net.Conn, error) {
					if rec.isDown() {
						return nil, errors.New("simulated resolve failure")
					}
					return rec, nil
				}),
			}, mode.opts...)
			s, err := NewSender("gappy", "sim:1", time.Millisecond, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			defer s.Stop()
			waitUntil(t, 3*time.Second, func() bool { return rec.count() >= 3 })
			rec.setDown(true)
			// Writes fail, the socket is torn down, and redials fail
			// with backoff rounds skipped in between.
			waitUntil(t, 3*time.Second, func() bool { return s.Health().Redials >= 3 })
			before := rec.count()
			rec.setDown(false)
			waitUntil(t, 3*time.Second, func() bool { return rec.count() >= before+3 })
			s.Stop()

			var seqs []uint64
			rec.mu.Lock()
			for _, f := range rec.frames {
				var beats []core.Heartbeat
				if IsBatchFrame(f) {
					beats, err = UnmarshalBatch(f, nil, nil)
				} else {
					var hb core.Heartbeat
					hb, err = UnmarshalHeartbeat(f)
					beats = append(beats, hb)
				}
				if err != nil || len(beats) != 1 {
					t.Fatalf("frame %x: %d beats, err %v", f, len(beats), err)
				}
				seqs = append(seqs, beats[0].Seq)
			}
			rec.mu.Unlock()
			skipped := hub.Transport.Snapshot().SendFailures
			var gaps []uint64
			for i := 1; i < len(seqs); i++ {
				if d := seqs[i] - seqs[i-1]; d != 1 {
					gaps = append(gaps, d)
				}
			}
			if len(gaps) != 1 || gaps[0] != skipped+1 {
				t.Errorf("sequence jumps %v across an outage of %d undelivered rounds, want one jump of %d", gaps, skipped, skipped+1)
			}
			if last := seqs[len(seqs)-1]; s.Sent() != last {
				t.Errorf("Sent() = %d, want the last sequence number %d", s.Sent(), last)
			}
		})
	}
}
