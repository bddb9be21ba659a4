package sim

import (
	"errors"
	"math/rand/v2"
	"net"
	"testing"
	"time"
)

// countingLoss loses every message when lose is set, counting draws.
type countingLoss struct {
	lose  bool
	draws *int
}

func (l countingLoss) Lost(*rand.Rand) bool { *l.draws++; return l.lose }

// countingDelay delays by d, counting draws.
type countingDelay struct {
	d     time.Duration
	draws *int
}

func (c countingDelay) Delay(*rand.Rand) time.Duration { *c.draws++; return c.d }

type arrival struct {
	frames []string
	at     time.Time
}

// TestConnBundlesOneInstant: delay, loss and partitions act on all of
// an instant's writes at once — one draw each — and writes at different
// instants are separate messages.
func TestConnBundlesOneInstant(t *testing.T) {
	var delayDraws, lossDraws int
	s := New(1)
	n := NewNetwork(s, Link{
		Delay: countingDelay{5 * time.Millisecond, &delayDraws},
		Loss:  countingLoss{false, &lossDraws},
	})
	n.SetLink("a", "lossy", Link{Loss: countingLoss{true, &lossDraws}})
	n.Partition("a", "cut", Epoch, Epoch.Add(time.Second))
	var got []arrival
	deliver := func(frames [][]byte, at time.Time) {
		a := arrival{at: at}
		for _, f := range frames {
			a.frames = append(a.frames, string(f))
		}
		got = append(got, a)
	}
	conn := n.Dial("a", "b", deliver)
	lossy := n.Dial("a", "lossy", deliver)
	cut := n.Dial("a", "cut", deliver)

	buf := []byte("one")
	conn.Write(buf)
	copy(buf, "xxx") // the conn holds its own copy
	conn.Write([]byte("two"))
	lossy.Write([]byte("lost-1"))
	lossy.Write([]byte("lost-2"))
	cut.Write([]byte("cut-1"))
	cut.Write([]byte("cut-2"))
	s.After(time.Millisecond, func() { conn.Write([]byte("three")) })
	s.Run()

	want := []arrival{
		{[]string{"one", "two"}, Epoch.Add(5 * time.Millisecond)},
		{[]string{"three"}, Epoch.Add(6 * time.Millisecond)},
	}
	if len(got) != len(want) {
		t.Fatalf("deliveries = %v, want %v", got, want)
	}
	for i := range want {
		if !got[i].at.Equal(want[i].at) || len(got[i].frames) != len(want[i].frames) {
			t.Fatalf("delivery %d = %v, want %v", i, got[i], want[i])
		}
		for j := range want[i].frames {
			if got[i].frames[j] != want[i].frames[j] {
				t.Fatalf("delivery %d = %v, want %v", i, got[i], want[i])
			}
		}
	}
	// Messages: {one,two}, {three}, {lost-1,lost-2}, {cut-1,cut-2}.
	c := n.Counters()
	if c.Frames != 7 || c.Sent != 4 || c.Delivered != 2 || c.Lost != 1 || c.Partitioned != 1 {
		t.Errorf("counters = %+v, want 7 frames in 4 messages: 2 delivered, 1 lost, 1 partitioned", c)
	}
	if lossDraws != 3 || delayDraws != 2 {
		t.Errorf("%d loss and %d delay draws, want one per unpartitioned message (3) and one per surviving one (2)", lossDraws, delayDraws)
	}
}

// TestConnZeroDelay: with zero delay a bundle arrives at the instant it
// was sent, after the sending event; a write at that instant after the
// arrival is a new message.
func TestConnZeroDelay(t *testing.T) {
	s := New(1)
	n := NewNetwork(s, Link{})
	var got [][]string
	var conn *Conn
	conn = n.Dial("a", "b", func(frames [][]byte, at time.Time) {
		var names []string
		for _, f := range frames {
			names = append(names, string(f))
		}
		got = append(got, names)
		if len(got) == 1 {
			conn.Write([]byte("reply"))
		}
	})
	conn.Write([]byte("x"))
	conn.Write([]byte("y"))
	s.Run()
	if len(got) != 2 || len(got[0]) != 2 || len(got[1]) != 1 || got[1][0] != "reply" {
		t.Errorf("deliveries = %v, want [[x y] [reply]]", got)
	}
}

func TestConnClose(t *testing.T) {
	s := New(1)
	n := NewNetwork(s, Link{})
	delivered := 0
	conn := n.Dial("a", "b", func([][]byte, time.Time) { delivered++ })
	conn.Write([]byte("in flight"))
	conn.Close()
	if _, err := conn.Write([]byte("late")); !errors.Is(err, net.ErrClosed) {
		t.Errorf("write after close: err = %v, want net.ErrClosed", err)
	}
	if _, err := conn.Read(make([]byte, 8)); err == nil {
		t.Error("Read should fail on a write-only conn")
	}
	s.Run()
	if delivered != 1 {
		t.Errorf("%d deliveries, want the in-flight message", delivered)
	}
	if conn.LocalAddr().String() != "a" || conn.RemoteAddr().String() != "b" || conn.RemoteAddr().Network() != "sim" {
		t.Errorf("addrs = %v → %v", conn.LocalAddr(), conn.RemoteAddr())
	}
}
