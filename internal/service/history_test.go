package service

import (
	"fmt"
	"testing"
	"time"

	"accrual/internal/core"
)

func TestRecorderTickAndHistory(t *testing.T) {
	m, clk := newTestMonitor()
	_ = m.Heartbeat(hb("p", 1, clk.Now()))
	rec := NewRecorder(m, 10)

	for i := 0; i < 5; i++ {
		clk.Advance(time.Second)
		rec.Tick()
	}
	records, ok := rec.History("p")
	if !ok {
		t.Fatal("no history for p")
	}
	if len(records) != 5 {
		t.Fatalf("samples = %d, want 5", len(records))
	}
	// The simple detector's level is seconds since last heartbeat: the
	// history must be 1, 2, 3, 4, 5.
	for i, r := range records {
		if want := core.Level(i + 1); r.Level != want {
			t.Errorf("sample %d level = %v, want %v", i, r.Level, want)
		}
		if i > 0 && !records[i].At.After(records[i-1].At) {
			t.Error("history timestamps not increasing")
		}
	}
	if rec.Ticks() != 5 {
		t.Errorf("Ticks = %d", rec.Ticks())
	}
}

func TestRecorderRingEviction(t *testing.T) {
	m, clk := newTestMonitor()
	_ = m.Heartbeat(hb("p", 1, clk.Now()))
	rec := NewRecorder(m, 3)
	for i := 0; i < 7; i++ {
		clk.Advance(time.Second)
		rec.Tick()
	}
	records, _ := rec.History("p")
	if len(records) != 3 {
		t.Fatalf("samples = %d, want capacity 3", len(records))
	}
	// Oldest evicted: the remaining levels are 5, 6, 7.
	if records[0].Level != 5 || records[2].Level != 7 {
		t.Errorf("ring contents = %v", records)
	}
}

func TestRecorderUnknownProcess(t *testing.T) {
	m, _ := newTestMonitor()
	rec := NewRecorder(m, 4)
	if _, ok := rec.History("ghost"); ok {
		t.Error("unknown process should have no history")
	}
}

func TestRecorderCapacityClamp(t *testing.T) {
	m, clk := newTestMonitor()
	_ = m.Heartbeat(hb("p", 1, clk.Now()))
	rec := NewRecorder(m, 0)
	rec.Tick()
	rec.Tick()
	records, _ := rec.History("p")
	if len(records) != 1 {
		t.Errorf("capacity clamp failed: %d samples", len(records))
	}
}

// TestRecorderRunner: a Runner with the recorder attached records one
// sample per round.
func TestRecorderRunner(t *testing.T) {
	m, clk := newTestMonitor()
	_ = m.Heartbeat(hb("p", 1, clk.Now()))
	rec := NewRecorder(m, 100)
	r := NewRunner(m, Consumers{History: rec})
	for i := 0; i < 3; i++ {
		clk.Advance(time.Second)
		r.Round()
	}
	if rec.Ticks() != 3 {
		t.Error("runner did not record")
	}
	if got, _ := rec.History("p"); int64(len(got)) != rec.Ticks() {
		t.Errorf("history holds %d samples after %d rounds", len(got), rec.Ticks())
	}
}

func TestRecorderTracksNewProcesses(t *testing.T) {
	m, clk := newTestMonitor()
	rec := NewRecorder(m, 8)
	rec.Tick() // nothing registered yet
	_ = m.Heartbeat(hb("late", 1, clk.Now()))
	rec.Tick()
	if _, ok := rec.History("late"); !ok {
		t.Error("newly registered process not sampled")
	}
}

// TestRecorderForgetsDeparted: the history belongs to the binding. A
// deregistered process has none, and the same id registered again
// starts an empty one, wherever its new slot is.
func TestRecorderForgetsDeparted(t *testing.T) {
	m, clk := newTestMonitor()
	rec := NewRecorder(m, 8)
	_ = m.Heartbeat(hb("p", 1, clk.Now()))
	_ = m.Heartbeat(hb("q", 1, clk.Now()))
	for i := 0; i < 3; i++ {
		clk.Advance(time.Second)
		rec.Tick()
	}
	if !m.Deregister("p") {
		t.Fatal("Deregister(p) = false")
	}
	if _, ok := rec.History("p"); ok {
		t.Error("deregistered process still has a history")
	}
	_ = m.Heartbeat(hb("p", 1, clk.Now()))
	if _, ok := rec.History("p"); ok {
		t.Error("re-registered process inherited its predecessor's history before a round")
	}
	clk.Advance(time.Second)
	rec.Tick()
	if got, _ := rec.History("p"); len(got) != 1 {
		t.Errorf("re-registered process has %d samples after one round, want 1", len(got))
	}
	if got, _ := rec.History("q"); len(got) != 4 {
		t.Errorf("q has %d samples after four rounds, want 4", len(got))
	}
}

// TestRecorderWidensChunk: slots recorded before a chunk's rows widen
// keep their samples when a higher slot in the same chunk joins.
func TestRecorderWidensChunk(t *testing.T) {
	m, clk := newTestMonitor(WithShardCount(1))
	rec := NewRecorder(m, 4)
	_ = m.Heartbeat(hb("first", 1, clk.Now()))
	for i := 0; i < 3; i++ {
		clk.Advance(time.Second)
		rec.Tick()
	}
	for i := 0; i < 100; i++ { // slots 1..100: widens 8 → 128
		_ = m.Heartbeat(hb(fmt.Sprintf("late-%03d", i), 1, clk.Now()))
	}
	clk.Advance(time.Second)
	rec.Tick()
	got, ok := rec.History("first")
	if !ok || len(got) != 4 {
		t.Fatalf("first: %d samples (ok=%v), want 4", len(got), ok)
	}
	for i, r := range got {
		if want := core.Level(i + 1); r.Level != want {
			t.Errorf("first sample %d = %v, want %v", i, r.Level, want)
		}
	}
	if got, _ := rec.History("late-099"); len(got) != 1 || got[0].Level != 1 {
		t.Errorf("late-099 history = %v, want one sample at level 1", got)
	}
}
