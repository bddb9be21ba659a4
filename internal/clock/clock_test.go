package clock

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var epoch = time.Date(2005, 3, 22, 0, 0, 0, 0, time.UTC)

func TestFunc(t *testing.T) {
	want := epoch.Add(time.Hour)
	c := Func(func() time.Time { return want })
	if got := c.Now(); !got.Equal(want) {
		t.Errorf("Func.Now() = %v, want %v", got, want)
	}
}

func TestWall(t *testing.T) {
	before := time.Now()
	got := Wall{}.Now()
	after := time.Now()
	if got.Before(before) || got.After(after) {
		t.Errorf("Wall.Now() = %v, not in [%v, %v]", got, before, after)
	}
}

func TestManualAdvance(t *testing.T) {
	m := NewManual(epoch)
	if !m.Now().Equal(epoch) {
		t.Fatalf("start = %v, want %v", m.Now(), epoch)
	}
	got := m.Advance(3 * time.Second)
	if want := epoch.Add(3 * time.Second); !got.Equal(want) {
		t.Errorf("Advance returned %v, want %v", got, want)
	}
	// Negative advances are ignored.
	m.Advance(-time.Hour)
	if want := epoch.Add(3 * time.Second); !m.Now().Equal(want) {
		t.Errorf("negative advance moved the clock to %v", m.Now())
	}
}

func TestManualSet(t *testing.T) {
	m := NewManual(epoch)
	target := epoch.Add(time.Minute)
	m.Set(target)
	if !m.Now().Equal(target) {
		t.Errorf("Set: now = %v, want %v", m.Now(), target)
	}
	// Setting backwards is ignored.
	m.Set(epoch)
	if !m.Now().Equal(target) {
		t.Errorf("backwards Set moved the clock to %v", m.Now())
	}
}

func TestManualZeroValue(t *testing.T) {
	var m Manual
	if !m.Now().IsZero() {
		t.Error("zero Manual should read the zero time")
	}
	m.Advance(time.Second)
	if m.Now().IsZero() {
		t.Error("Advance on zero Manual should work")
	}
}

func TestManualConcurrent(t *testing.T) {
	m := NewManual(epoch)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				m.Advance(time.Millisecond)
				_ = m.Now()
			}
		}()
	}
	wg.Wait()
	if want := epoch.Add(800 * time.Millisecond); !m.Now().Equal(want) {
		t.Errorf("after concurrent advances: %v, want %v", m.Now(), want)
	}
}

func TestDrifting(t *testing.T) {
	src := NewManual(epoch)
	tests := []struct {
		name   string
		rate   float64
		offset time.Duration
		adv    time.Duration
		want   time.Duration // offset from epoch
	}{
		{"identity", 1, 0, 10 * time.Second, 10 * time.Second},
		{"fast clock", 1.5, 0, 10 * time.Second, 15 * time.Second},
		{"slow clock", 0.5, 0, 10 * time.Second, 5 * time.Second},
		{"offset only", 1, 2 * time.Second, 10 * time.Second, 12 * time.Second},
		{"rate and offset", 2, time.Second, 10 * time.Second, 21 * time.Second},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			src := NewManual(epoch)
			d := NewDrifting(src, epoch, tt.rate, tt.offset)
			src.Advance(tt.adv)
			want := epoch.Add(tt.want)
			if got := d.Now(); !got.Equal(want) {
				t.Errorf("Now() = %v, want %v", got, want)
			}
		})
	}
	// Non-positive rates are corrected to 1.
	d := NewDrifting(src, epoch, -2, 0)
	src.Advance(time.Second)
	if got, want := d.Now(), src.Now(); !got.Equal(want) {
		t.Errorf("non-positive rate: Now() = %v, want %v", got, want)
	}
}

func TestDriftingMonotone(t *testing.T) {
	// A drifting clock over a monotone source is monotone.
	src := NewManual(epoch)
	d := NewDrifting(src, epoch, 0.3, -time.Second)
	prev := d.Now()
	for i := 0; i < 50; i++ {
		src.Advance(7 * time.Millisecond)
		cur := d.Now()
		if cur.Before(prev) {
			t.Fatalf("clock went backwards: %v -> %v", prev, cur)
		}
		prev = cur
	}
}

// TestEvery pins the schedule's contract: calls repeat on the period,
// none starts after the returned channel closes, and a cancel before the
// first tick means no call at all.
func TestEvery(t *testing.T) {
	t.Run("repeats", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int64
		done := Every(ctx, time.Millisecond, func() { calls.Add(1) })
		deadline := time.Now().Add(5 * time.Second)
		for calls.Load() < 3 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		cancel()
		<-done
		if calls.Load() < 3 {
			t.Fatalf("%d calls in 5s at a 1ms period, want at least 3", calls.Load())
		}
		after := calls.Load()
		time.Sleep(10 * time.Millisecond)
		if got := calls.Load(); got != after {
			t.Errorf("%d calls after the channel closed", got-after)
		}
	})
	t.Run("call in progress finishes before close", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		entered, release := make(chan struct{}), make(chan struct{})
		var finished atomic.Bool
		var once sync.Once
		done := Every(ctx, time.Millisecond, func() {
			once.Do(func() { close(entered) })
			<-release
			finished.Store(true)
		})
		<-entered
		cancel()
		select {
		case <-done:
			t.Fatal("channel closed while a call was running")
		case <-time.After(5 * time.Millisecond):
		}
		close(release)
		<-done
		if !finished.Load() {
			t.Error("channel closed before the last call returned")
		}
	})
	t.Run("cancel before first tick", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int64
		done := Every(ctx, 10*time.Millisecond, func() { calls.Add(1) })
		cancel()
		<-done
		time.Sleep(20 * time.Millisecond)
		if n := calls.Load(); n != 0 {
			t.Errorf("%d calls after a cancel before the first tick, want 0", n)
		}
	})
}
