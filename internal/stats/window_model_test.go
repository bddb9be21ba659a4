package stats

import (
	"math"
	"testing"
)

// windowModel is the plain-slice reference for Window: the samples
// oldest first and the capacity, with each operation written the
// obvious way.
type windowModel struct {
	samples []float64
	limit   int
}

func (m *windowModel) push(v float64) (evicted int) {
	for len(m.samples) >= m.limit {
		m.samples = m.samples[1:]
		evicted++
	}
	m.samples = append(m.samples, v)
	return evicted
}

func (m *windowModel) resize(c int) { m.limit = max(c, 1) }

func (m *windowModel) shift(delta float64) {
	for i := range m.samples {
		m.samples[i] += delta
	}
}

func (m *windowModel) restore(xs []float64) {
	if len(xs) > m.limit {
		xs = xs[len(xs)-m.limit:]
	}
	m.samples = append([]float64(nil), xs...)
}

func (m *windowModel) moments() (mean, variance float64) {
	n := float64(len(m.samples))
	if n == 0 {
		return 0, 0
	}
	for _, v := range m.samples {
		mean += v
	}
	mean /= n
	if n < 2 {
		return mean, 0
	}
	for _, v := range m.samples {
		variance += (v - mean) * (v - mean)
	}
	return mean, variance / n
}

// checkWindow compares every observer of w with the model.
func checkWindow(t *testing.T, step int, op string, w *Window, m *windowModel) {
	t.Helper()
	if w.Len() != len(m.samples) || w.Cap() != m.limit {
		t.Fatalf("step %d (%s): len=%d cap=%d, model len=%d cap=%d", step, op, w.Len(), w.Cap(), len(m.samples), m.limit)
	}
	if w.Full() != (len(m.samples) >= m.limit) {
		t.Fatalf("step %d (%s): Full=%v with len=%d cap=%d", step, op, w.Full(), len(m.samples), m.limit)
	}
	for i, want := range m.samples {
		if got := w.At(i); got != want {
			t.Fatalf("step %d (%s): At(%d)=%v, model %v", step, op, i, got, want)
		}
	}
	wantLast := 0.0
	if n := len(m.samples); n > 0 {
		wantLast = m.samples[n-1]
	}
	if got := w.Last(); got != wantLast {
		t.Fatalf("step %d (%s): Last=%v, model %v", step, op, got, wantLast)
	}
	got := w.Samples(nil)
	if len(got) != len(m.samples) {
		t.Fatalf("step %d (%s): Samples has %d, model %d", step, op, len(got), len(m.samples))
	}
	for i := range got {
		if got[i] != m.samples[i] {
			t.Fatalf("step %d (%s): Samples[%d]=%v, model %v", step, op, i, got[i], m.samples[i])
		}
	}
	mean, variance := m.moments()
	if !almostEqual(w.Mean(), mean, 1e-9*(1+math.Abs(mean))) {
		t.Fatalf("step %d (%s): Mean=%v, model %v", step, op, w.Mean(), mean)
	}
	if !almostEqual(w.Variance(), variance, 1e-7*(1+mean*mean)) {
		t.Fatalf("step %d (%s): Variance=%v, model %v", step, op, w.Variance(), variance)
	}
}

// checkPrefetch calls w.Prefetch and asserts it moved nothing: every
// field of the window, every buffered value, and every observer against
// the model.
func checkPrefetch(t *testing.T, step int, op string, w *Window, m *windowModel) {
	t.Helper()
	before := *w
	vals := append([]float64(nil), w.buf...)
	w.Prefetch()
	if len(w.buf) != len(before.buf) || cap(w.buf) != cap(before.buf) ||
		(len(w.buf) > 0 && &w.buf[0] != &before.buf[0]) ||
		w.head != before.head || w.n != before.n || w.limit != before.limit ||
		w.sum != before.sum || w.sumSq != before.sumSq || w.evicts != before.evicts {
		t.Fatalf("step %d (%s): Prefetch moved the window: %+v -> %+v", step, op, before, *w)
	}
	for i, v := range vals {
		if w.buf[i] != v {
			t.Fatalf("step %d (%s): Prefetch changed buf[%d] %v -> %v", step, op, i, v, w.buf[i])
		}
	}
	checkWindow(t, step, op+"+prefetch", w, m)
}

// runWindowModel drives a Window and the model through the same seeded
// sequence of Push, Resize (growing, and shrinking below the samples
// held, which leaves len(buf) > limit until pushes drain it), Shift,
// Restore and Reset, checking every observer after every step, and
// again after a Prefetch. It returns how many samples were evicted, and
// counts in cover the states Prefetch ran in: by fill ("empty",
// "partial", "full", "lazy" for a lazily shrunk buffer) and by the step
// just taken ("after resize" and so on).
func runWindowModel(t *testing.T, seed uint64, steps int, cover map[string]int) (evicted int) {
	t.Helper()
	rng := NewRand(seed)
	capacity := 1 + rng.IntN(24)
	w := NewWindow(capacity)
	m := &windowModel{limit: capacity}
	for step := 0; step < steps; step++ {
		var op string
		switch r := rng.IntN(100); {
		case r < 80:
			op = "push"
			v := rng.Float64() * 10
			w.Push(v)
			evicted += m.push(v)
		case r < 87:
			op = "resize"
			c := 1 + rng.IntN(32)
			if rng.IntN(2) == 0 && w.Len() > 1 {
				c = 1 + rng.IntN(w.Len()-1) // shrink below the samples held
			}
			w.Resize(c)
			m.resize(c)
		case r < 92:
			op = "shift"
			d := rng.Float64() - 0.5
			w.Shift(d)
			m.shift(d)
		case r < 97:
			op = "restore"
			xs := make([]float64, rng.IntN(2*m.limit+1))
			for i := range xs {
				xs[i] = rng.Float64() * 10
			}
			w.Restore(xs)
			m.restore(xs)
		default:
			op = "reset"
			w.Reset()
			m.samples = nil
		}
		checkWindow(t, step, op, w, m)
		switch {
		case w.Len() == 0:
			cover["empty"]++
		case !w.Full():
			cover["partial"]++
		default:
			cover["full"]++
		}
		if len(w.buf) > w.limit {
			cover["lazy"]++
		}
		cover["after "+op]++
		checkPrefetch(t, step, op, w, m)
	}
	return evicted
}

// TestWindowMatchesModel pins Window, and its divide-free ring wrap,
// to the plain-slice model over many short seeded runs and a few long
// ones; the long runs evict well past rebuildEvery, so the periodic
// rebuild of the running moments is crossed too. Prefetch runs between
// steps and must leave every observer, and the window itself, as it
// was, in every state the runs reach.
func TestWindowMatchesModel(t *testing.T) {
	cover := map[string]int{}
	for seed := uint64(1); seed <= 40; seed++ {
		runWindowModel(t, seed, 500, cover)
	}
	for _, state := range []string{"empty", "partial", "full", "lazy", "after push", "after resize", "after shift", "after restore", "after reset"} {
		if cover[state] == 0 {
			t.Errorf("Prefetch never ran on a window %s", state)
		}
	}
	for seed := uint64(100); seed < 103; seed++ {
		if evicted := runWindowModel(t, seed, 20000, cover); evicted < 2*rebuildEvery {
			t.Errorf("seed %d: %d evictions, want > %d to cross the moment rebuild", seed, evicted, 2*rebuildEvery)
		}
	}
	var zero Window
	zero.Prefetch() // no buffer: nothing to hint, and no panic
	if zero.buf != nil || zero.n != 0 || zero.head != 0 {
		t.Errorf("Prefetch on the zero Window moved it: %+v", zero)
	}
}
