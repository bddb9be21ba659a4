package slowness

import (
	"slices"
	"testing"

	"accrual/internal/core"
	"accrual/internal/service"
)

func snap(pairs ...any) []service.RankedProcess {
	var out []service.RankedProcess
	for i := 0; i < len(pairs); i += 2 {
		out = append(out, service.RankedProcess{
			ID:    pairs[i].(string),
			Level: core.Level(pairs[i+1].(float64)),
		})
	}
	return out
}

func TestOrderByLevel(t *testing.T) {
	o := New(1, 0) // no smoothing, strict order
	o.Update(snap("slow", 3.0, "fast", 0.1, "mid", 1.0))
	want := []string{"fast", "mid", "slow"}
	got := o.Order()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSmoothingDampensSpikes(t *testing.T) {
	o := New(0.05, 0)
	for i := 0; i < 20; i++ {
		o.Update(snap("a", 0.1, "b", 0.5))
	}
	// One spike on a: without smoothing it would jump behind b.
	o.Update(snap("a", 5.0, "b", 0.5))
	if got := o.Order()[0]; got != "a" {
		t.Errorf("one spike reordered: %v", o.Order())
	}
	// A sustained shift does reorder.
	for i := 0; i < 50; i++ {
		o.Update(snap("a", 5.0, "b", 0.5))
	}
	if got := o.Order()[0]; got != "b" {
		t.Errorf("sustained shift ignored: %v", o.Order())
	}
}

func TestDeadbandKeepsPreviousOrder(t *testing.T) {
	o := New(1, 0.5)
	o.Update(snap("a", 1.0, "b", 1.2))
	if o.Order()[0] != "a" {
		t.Fatalf("initial order %v", o.Order())
	}
	// b edges ahead within the dead band: order preserved.
	o.Update(snap("a", 1.2, "b", 1.0))
	if o.Order()[0] != "a" {
		t.Errorf("near-tie reordered: %v", o.Order())
	}
	// b clearly ahead: order flips.
	o.Update(snap("a", 3.0, "b", 1.0))
	if o.Order()[0] != "b" {
		t.Errorf("clear lead ignored: %v", o.Order())
	}
}

func TestForgetsDepartedProcesses(t *testing.T) {
	o := New(1, 0)
	o.Update(snap("a", 1.0, "b", 2.0))
	o.Update(snap("b", 2.0))
	if len(o.Order()) != 1 || o.Order()[0] != "b" {
		t.Errorf("order = %v, want [b]", o.Order())
	}
	if _, ok := o.Level("a"); ok {
		t.Error("departed process still known")
	}
}

func TestFastest(t *testing.T) {
	o := New(1, 0)
	o.Update(snap("c", 3.0, "a", 1.0, "b", 2.0))
	got := o.Fastest(2)
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Fastest(2) = %v", got)
	}
	if len(o.Fastest(10)) != 3 {
		t.Error("Fastest clamps to available")
	}
	if len(o.Fastest(-1)) != 0 {
		t.Error("negative n should return nothing")
	}
}

func TestLevel(t *testing.T) {
	o := New(0.5, 0)
	o.Update(snap("a", 2.0))
	o.Update(snap("a", 4.0))
	lvl, ok := o.Level("a")
	if !ok {
		t.Fatal("a unknown")
	}
	if lvl != 3 { // 2 + 0.5*(4-2)
		t.Errorf("smoothed level = %v, want 3", lvl)
	}
}

func TestDefaultsClamp(t *testing.T) {
	o := New(-1, -1)
	if o.alpha != 0.2 || o.deadband != 0 {
		t.Errorf("defaults: alpha=%v deadband=%v", o.alpha, o.deadband)
	}
}

func TestNewcomersRankAfterKnownOnTies(t *testing.T) {
	o := New(1, 1)
	o.Update(snap("known", 1.0))
	o.Update(snap("known", 1.0, "newcomer", 1.0))
	if o.Order()[0] != "known" {
		t.Errorf("order = %v", o.Order())
	}
}

func TestUpdateFromMatchesUpdate(t *testing.T) {
	pairs := snap("a", 2.0, "b", 0.5, "c", 1.0, "d", 0.5)
	viaSlice := New(0.3, 0.1)
	viaWalk := New(0.3, 0.1)
	for round := 0; round < 5; round++ {
		viaSlice.Update(pairs)
		viaWalk.UpdateFrom(func(fn func(id string, lvl core.Level)) {
			for _, rp := range pairs {
				fn(rp.ID, rp.Level)
			}
		})
		a, b := viaSlice.Order(), viaWalk.Order()
		if len(a) != len(b) {
			t.Fatalf("round %d: order lengths %d vs %d", round, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("round %d: order %v vs %v", round, a, b)
			}
		}
	}
}

func TestUpdateSteadyStateZeroAlloc(t *testing.T) {
	o := New(0.2, 0.05)
	pairs := snap("a", 2.0, "b", 0.5, "c", 1.0, "d", 0.7, "e", 1.4)
	o.Update(pairs) // warm the scratch
	o.Update(pairs)
	if allocs := testing.AllocsPerRun(100, func() {
		o.Update(pairs)
	}); allocs > 0 {
		t.Errorf("steady-state Update: %v allocs/op, want 0", allocs)
	}
}

func TestOrderValidAcrossOneUpdate(t *testing.T) {
	// Order()'s contract: the returned slice is stable across the next
	// update (double-buffered), so a consumer may hold it while folding
	// in one refresh.
	o := New(1, 0)
	o.Update(snap("a", 1.0, "b", 2.0))
	held := o.Order()
	want := append([]string(nil), held...)
	o.Update(snap("b", 0.1, "a", 5.0)) // order flips
	for i := range want {
		if held[i] != want[i] {
			t.Fatalf("held order mutated by next update: %v, want %v", held, want)
		}
	}
}

// TestNearTiesOrderedByInputsAlone: c ties b and b ties a within the
// dead band while c and a lie outside it, so the pairwise comparisons
// form a cycle (a<b and b<c by id, c<a by level). Every fresh oracle
// fed the same levels, in whatever snapshot order, must still return
// one order.
func TestNearTiesOrderedByInputsAlone(t *testing.T) {
	perms := [][]any{
		{"c", 1.0, "b", 1.3, "a", 1.6},
		{"a", 1.6, "b", 1.3, "c", 1.0},
		{"b", 1.3, "c", 1.0, "a", 1.6},
	}
	var first []string
	for trial := 0; trial < 100; trial++ {
		o := New(1, 0.5)
		o.Update(snap(perms[trial%len(perms)]...))
		got := o.Order()
		if first == nil {
			first = slices.Clone(got)
			continue
		}
		if !slices.Equal(got, first) {
			t.Fatalf("trial %d: order %v, first oracle gave %v", trial, got, first)
		}
	}
}
