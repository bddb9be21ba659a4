// Package stats provides the statistical substrate shared by the adaptive
// detectors (internal/chen, internal/phi, internal/kappa) and the
// simulator (internal/sim): sliding sample windows, online moments,
// probability distributions with tail functions, and histograms.
package stats

import (
	"math"
	"unsafe"

	"accrual/internal/prefetch"
)

// Window is a fixed-capacity sliding window of float64 samples with O(1)
// mean and variance queries. When full, pushing a new sample evicts the
// oldest one. This is the arrival-interval window used by the adaptive
// failure detectors (Chen's estimator keeps the last n arrival times; the
// φ detector keeps the last n inter-arrival intervals).
//
// The running sums are maintained incrementally; to keep floating-point
// drift negligible over very long runs they are recomputed from scratch
// every rebuildEvery evictions.
//
// The ring index wraps with a compare, not a divide: head < len(buf) and
// n <= len(buf) always hold, so head+i for 0 <= i < n is below
// 2·len(buf) and one subtraction brings it back into range.
type Window struct {
	buf    []float64
	head   int // index of the oldest sample; always < len(buf)
	n      int // number of valid samples
	limit  int // target capacity; len(buf) >= limit (lazy shrink)
	sum    float64
	sumSq  float64
	evicts int
}

const rebuildEvery = 4096

// NewWindow returns a window holding at most capacity samples.
// Capacities below 1 are raised to 1.
func NewWindow(capacity int) *Window {
	if capacity < 1 {
		capacity = 1
	}
	return &Window{buf: make([]float64, capacity), limit: capacity}
}

// Push adds a sample, evicting the oldest ones if the window is at (or,
// after a shrinking Resize, above) its capacity.
func (w *Window) Push(v float64) {
	for w.n >= w.limit {
		old := w.buf[w.head]
		w.sum -= old
		w.sumSq -= old * old
		if w.head++; w.head == len(w.buf) {
			w.head = 0
		}
		w.n--
		w.evicts++
	}
	w.buf[w.slot(w.n)] = v
	w.n++
	w.sum += v
	w.sumSq += v * v
	if w.evicts >= rebuildEvery {
		w.rebuild()
	}
}

// Prefetch starts loading the buffer line the next Push reads and
// writes: buf[head], the sample it evicts, when the window is full, and
// otherwise the free slot it fills. It changes nothing, allocates
// nothing, and does nothing for an empty buffer. A caller resolving a
// batch of beats prefetches every beat's window before reporting any,
// so their misses overlap.
func (w *Window) Prefetch() {
	if len(w.buf) == 0 {
		return
	}
	i := w.head
	if w.n < w.limit {
		i = w.slot(w.n)
	}
	prefetch.Line(unsafe.Pointer(&w.buf[i]))
}

// slot returns the buf index of the i-th sample, 0 the oldest, for
// 0 <= i <= n (i == n is where the next sample goes when n < len(buf)).
func (w *Window) slot(i int) int {
	j := w.head + i
	if j >= len(w.buf) {
		j -= len(w.buf)
	}
	return j
}

func (w *Window) rebuild() {
	w.evicts = 0
	w.sum, w.sumSq = 0, 0
	for i := 0; i < w.n; i++ {
		v := w.buf[w.slot(i)]
		w.sum += v
		w.sumSq += v * v
	}
}

// Len returns the number of samples currently held.
func (w *Window) Len() int { return w.n }

// Cap returns the window capacity.
func (w *Window) Cap() int { return w.limit }

// Full reports whether the window holds at least Cap() samples.
func (w *Window) Full() bool { return w.n >= w.limit }

// Resize changes the window capacity without discarding history.
// Capacities below 1 are raised to 1. Growing keeps every sample.
// Shrinking is lazy: all current samples are kept at the instant of the
// call (so Mean/Variance — and any suspicion level derived from them —
// are unchanged), and the excess drains on subsequent Pushes, which
// evict down to the new capacity. This is what lets a live retune
// change the estimation window with no suspicion cliff.
func (w *Window) Resize(capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	if capacity == w.limit {
		return
	}
	size := capacity
	if w.n > size {
		size = w.n
	}
	if size != len(w.buf) {
		nb := make([]float64, size)
		for i := 0; i < w.n; i++ {
			nb[i] = w.buf[w.slot(i)]
		}
		w.buf = nb
		w.head = 0
	}
	w.limit = capacity
}

// Shift adds delta to every sample and recomputes the running moments
// from scratch. The mean shifts by exactly delta and the variance is
// unchanged. Chen's estimator uses this to re-express its shifted
// arrival samples when the nominal interval η changes mid-run.
func (w *Window) Shift(delta float64) {
	for i := 0; i < w.n; i++ {
		w.buf[w.slot(i)] += delta
	}
	w.rebuild()
}

// Mean returns the sample mean, or 0 when the window is empty.
func (w *Window) Mean() float64 {
	if w.n == 0 {
		return 0
	}
	return w.sum / float64(w.n)
}

// Variance returns the population variance, or 0 for fewer than two
// samples. Tiny negative values caused by floating-point cancellation are
// clamped to zero.
func (w *Window) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	m := w.Mean()
	v := w.sumSq/float64(w.n) - m*m
	if v < 0 {
		return 0
	}
	return v
}

// StdDev returns the population standard deviation.
func (w *Window) StdDev() float64 { return math.Sqrt(w.Variance()) }

// At returns the i-th sample, where 0 is the oldest. It panics if i is out
// of range, mirroring slice indexing.
func (w *Window) At(i int) float64 {
	if i < 0 || i >= w.n {
		panic("stats: Window.At index out of range")
	}
	return w.buf[w.slot(i)]
}

// Last returns the newest sample, or 0 when the window is empty.
func (w *Window) Last() float64 {
	if w.n == 0 {
		return 0
	}
	return w.buf[w.slot(w.n-1)]
}

// Samples appends all samples, oldest first, to dst and returns the
// extended slice.
func (w *Window) Samples(dst []float64) []float64 {
	for i := 0; i < w.n; i++ {
		dst = append(dst, w.At(i))
	}
	return dst
}

// Reset empties the window without releasing its buffer.
func (w *Window) Reset() {
	w.head, w.n, w.sum, w.sumSq, w.evicts = 0, 0, 0, 0, 0
}

// Restore replaces the window contents with the given samples, oldest
// first, keeping the window's capacity. When more samples are supplied
// than fit, only the newest Cap() are kept — restoring a snapshot from a
// larger window degrades to the most recent history rather than failing.
// The running moments are recomputed from the restored samples, so a
// restored window answers Mean/Variance exactly as one that observed the
// samples directly.
func (w *Window) Restore(samples []float64) {
	w.Reset()
	if len(samples) > w.limit {
		samples = samples[len(samples)-w.limit:]
	}
	copy(w.buf, samples)
	w.n = len(samples)
	w.rebuild()
}
