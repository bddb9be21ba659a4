// Package slowness implements a slowness oracle in the sense of Sampaio,
// Brasileiro, Cirne and Figueiredo ("How bad are wrong suspicions?", DSN
// 2003), which the paper discusses in §1.3/§6: an oracle that outputs the
// processes ordered by their perceived responsiveness. The paper notes
// that accrual suspicion levels quantify responsiveness, "hence their
// output values could be used to establish (or estimate) this order" —
// this package is that construction.
//
// The raw level ranking of service.Monitor flickers with every network
// hiccup; a slowness oracle wants a *stable* order for decisions such as
// "dispatch to the three most responsive workers". The oracle therefore
// smooths each process's level with an exponentially weighted moving
// average and breaks near-ties by the previous order, so two equally
// responsive processes do not leapfrog on noise.
package slowness

import (
	"slices"
	"strings"

	"accrual/internal/core"
	"accrual/internal/service"
)

// Oracle maintains a stable responsiveness order over smoothed suspicion
// levels. It is a plain state machine: feed it rank snapshots with
// Update (or level walks with UpdateFrom) and read the current order
// with Order. Not safe for concurrent use.
//
// All per-update working storage — the seen-set, the previous-position
// index and the two order slices — is retained and reused across
// updates, so a steady-state refresh over a stable membership performs
// no allocations.
type Oracle struct {
	alpha    float64
	deadband float64
	smoothed map[string]float64
	order    []string

	// Scratch reused across updates.
	seen    map[string]bool
	prevPos map[string]int
	spare   []string // recycled backing for the next order slice
}

// New returns an oracle. alpha is the EWMA smoothing factor in (0, 1]
// (1 = no smoothing; default 0.2 when out of range). deadband is the
// smoothed-level difference below which the previous order is kept
// (default 0 — strict ordering).
func New(alpha, deadband float64) *Oracle {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.2
	}
	if deadband < 0 {
		deadband = 0
	}
	return &Oracle{
		alpha:    alpha,
		deadband: deadband,
		smoothed: make(map[string]float64),
		seen:     make(map[string]bool),
		prevPos:  make(map[string]int),
	}
}

// Update folds a new snapshot of suspicion levels into the smoothed state
// and recomputes the order. Processes absent from the snapshot are
// forgotten; new ones start at their observed level. A steady-state
// update over a stable membership performs no allocations.
func (o *Oracle) Update(snapshot []service.RankedProcess) {
	clear(o.seen)
	for _, rp := range snapshot {
		o.observe(rp.ID, rp.Level)
	}
	o.finishUpdate()
}

// UpdateFrom is Update fed by a walk instead of a materialised slice:
// each is called once and must invoke fn once per process. It matches
// service.Monitor.EachLevel, so a caller refreshes straight off the
// registry with no intermediate snapshot:
//
//	oracle.UpdateFrom(mon.EachLevel)
func (o *Oracle) UpdateFrom(each func(fn func(id string, lvl core.Level))) {
	clear(o.seen)
	each(o.observe)
	o.finishUpdate()
}

// observe folds one (id, level) observation into the smoothed state.
func (o *Oracle) observe(id string, lvl core.Level) {
	o.seen[id] = true
	l := float64(lvl)
	if prev, ok := o.smoothed[id]; ok {
		o.smoothed[id] = prev + o.alpha*(l-prev)
	} else {
		o.smoothed[id] = l
	}
}

// finishUpdate drops departed processes and recomputes the order.
func (o *Oracle) finishUpdate() {
	for id := range o.smoothed {
		if !o.seen[id] {
			delete(o.smoothed, id)
		}
	}
	o.reorder()
}

// reorder sorts by smoothed level with a dead band that preserves the
// previous relative order for near-ties. The dead-band comparison is not
// a strict weak order (a ties b and b ties c while a and c differ by
// more than the band), so the outcome depends on the order the sort is
// handed the ids in: they are handed over in id order, not the map's,
// to a stable sort, which makes the order a function of the inputs.
func (o *Oracle) reorder() {
	clear(o.prevPos)
	for i, id := range o.order {
		o.prevPos[id] = i
	}
	next := o.spare[:0]
	for id := range o.smoothed {
		next = append(next, id)
	}
	slices.Sort(next)
	slices.SortStableFunc(next, func(a, b string) int {
		la, lb := o.smoothed[a], o.smoothed[b]
		if diff := la - lb; diff > o.deadband {
			return 1
		} else if diff < -o.deadband {
			return -1
		}
		pa, oka := o.prevPos[a]
		pb, okb := o.prevPos[b]
		switch {
		case oka && okb:
			return pa - pb
		case oka:
			return -1 // known processes rank before newcomers on ties
		case okb:
			return 1
		default:
			return strings.Compare(a, b)
		}
	})
	// The outgoing order's backing array becomes the next update's
	// scratch; Order()'s contract makes this sound.
	o.spare = o.order[:0]
	o.order = next
}

// Order returns the current responsiveness order, most responsive (least
// suspected) first. The caller must not modify the returned slice; it is
// valid until the second Update/UpdateFrom call after it was returned
// (the oracle double-buffers the order storage).
func (o *Oracle) Order() []string { return o.order }

// Fastest returns up to n most responsive processes. The returned slice
// aliases Order's storage and carries the same validity rule.
func (o *Oracle) Fastest(n int) []string {
	if n > len(o.order) {
		n = len(o.order)
	}
	if n < 0 {
		n = 0
	}
	return o.order[:n]
}

// Level returns the smoothed level of a process and whether it is known.
func (o *Oracle) Level(id string) (core.Level, bool) {
	l, ok := o.smoothed[id]
	return core.Level(l), ok
}
