// Package chen implements the failure detector of Chen, Toueg and
// Aguilera ("On the quality of service of failure detectors", IEEE ToC
// 2002) in both its original binary form and the accrual form described
// in §5.2 of the accrual failure detectors paper.
//
// The estimator keeps the n most recent heartbeat arrivals and predicts
// the expected arrival time EA of the next heartbeat:
//
//	EA(l+1) = (1/n) · Σ (A_i − η·s_i)  +  (l+1)·η
//
// where A_i and s_i are arrival times and sequence numbers, η is the
// nominal heartbeat interval and l is the largest sequence number
// received. The original binary detector suspects when now > EA + α for a
// constant safety margin α derived from QoS requirements; the accrual
// adaptation instead outputs
//
//	sl(t) = max(0, t − EA)
//
// so that a constant suspicion threshold of α recovers the original
// binary detector exactly.
package chen

import (
	"time"

	"accrual/internal/core"
	"accrual/internal/stats"
)

// Detector is the Chen estimator recast as an accrual failure detector.
// Levels are expressed in seconds past the expected arrival time. Create
// one with New.
type Detector struct {
	interval time.Duration
	window   stats.Window // samples of A_i − η·s_i, seconds since start
	start    time.Time
	snLast   uint64
	eps      core.Level
	unit     time.Duration

	// Channel bookkeeping for the autotuner (core.TuneInfo): accepted
	// heartbeats, sequence gaps seen on acceptance, and the first/last
	// accepted arrival times for an observed inter-arrival mean.
	accepted uint64
	lost     uint64
	firstA   time.Time
	lastA    time.Time
}

var _ core.Detector = (*Detector)(nil)

// Option configures a Detector.
type Option func(*Detector)

// WithWindowSize sets how many recent arrivals the estimator keeps
// (default 100, matching common practice for NFD-E).
func WithWindowSize(n int) Option {
	return func(d *Detector) { d.window = *stats.NewWindow(n) }
}

// WithResolution sets the level resolution ε.
func WithResolution(eps core.Level) Option {
	return func(d *Detector) { d.eps = eps }
}

// WithUnit sets the duration of one level unit (default one second).
func WithUnit(u time.Duration) Option {
	return func(d *Detector) {
		if u > 0 {
			d.unit = u
		}
	}
}

// New returns a detector for heartbeats of nominal interval η, started at
// the given local time.
func New(start time.Time, interval time.Duration, opts ...Option) *Detector {
	d := &Detector{
		interval: interval,
		start:    start,
		unit:     time.Second,
	}
	for _, opt := range opts {
		opt(d)
	}
	if d.window.Cap() == 0 {
		d.window = *stats.NewWindow(100)
	}
	return d
}

// Report records a heartbeat arrival and reports whether it accepted
// it: stale and duplicate sequence numbers are refused.
func (d *Detector) Report(hb core.Heartbeat) bool {
	if hb.Seq <= d.snLast {
		return false
	}
	d.lost += hb.Seq - d.snLast - 1
	d.snLast = hb.Seq
	d.accepted++
	if d.firstA.IsZero() {
		d.firstA = hb.Arrived
	}
	d.lastA = hb.Arrived
	// Store A_i − η·s_i in seconds relative to the detector start so the
	// window arithmetic operates on small magnitudes.
	a := hb.Arrived.Sub(d.start).Seconds()
	shift := d.interval.Seconds() * float64(hb.Seq)
	d.window.Push(a - shift)
	return true
}

// ExpectedArrival returns the estimated arrival time EA of the next
// heartbeat (sequence snLast+1), and false when no heartbeat has been
// received yet.
func (d *Detector) ExpectedArrival() (time.Time, bool) {
	if d.window.Len() == 0 {
		return time.Time{}, false
	}
	base := d.window.Mean() // mean of A_i − η·s_i, seconds since start
	next := base + d.interval.Seconds()*float64(d.snLast+1)
	return d.start.Add(time.Duration(next * float64(time.Second))), true
}

// Suspicion returns sl(t) = max(0, t − EA) in level units. Before the
// first heartbeat the expected arrival of heartbeat 1 is start+η, so the
// level ramps up if nothing ever arrives (preserving Accruement from the
// very beginning).
func (d *Detector) Suspicion(now time.Time) core.Level {
	return d.EvalSnapshot().Level(now)
}

// Prefetch starts loading the window slot the next Report writes (see
// core.Detector.Prefetch).
func (d *Detector) Prefetch() { d.window.Prefetch() }

// LastSeq returns the largest sequence number received.
func (d *Detector) LastSeq() uint64 { return d.snLast }

// Snapshotable state identity (see core.State).
const (
	// StateKind identifies Chen-estimator state payloads.
	StateKind = "chen"
	// StateVersion is the current payload schema version.
	StateVersion = 1
)

// SnapshotState exports the estimator's learned state: the start time
// the window samples are relative to, the nominal interval they were
// shifted by, the sequence cursor and the sample window itself.
func (d *Detector) SnapshotState() core.State {
	st := core.NewState(StateKind, StateVersion)
	st.SetTime("start", d.start)
	st.SetInt("interval", int64(d.interval))
	st.SetUint("sn_last", d.snLast)
	st.SetSeries("window", d.window.Samples(nil))
	return st
}

// RestoreState replaces the estimator's learned state with a snapshot.
// The start time and nominal interval are restored along with the
// window, because the stored samples are A_i − η·s_i relative to both: a
// snapshot is self-consistent even when the restoring factory was
// configured with a different interval. When the receiving window is
// smaller than the snapshot, only the newest samples are kept.
func (d *Detector) RestoreState(st core.State) error {
	if err := st.Check(StateKind, StateVersion); err != nil {
		return err
	}
	d.start = st.Time("start")
	d.interval = time.Duration(st.Int("interval"))
	d.snLast = st.Uint("sn_last")
	d.window.Restore(st.SeriesOf("window"))
	return nil
}

// Binary is the original Chen et al. binary failure detector: suspect
// if and only if now > EA + Alpha. It shares the estimator state of the
// underlying accrual detector, illustrating the paper's point that the
// binary detector is the accrual one interpreted with a constant
// threshold.
type Binary struct {
	// D is the underlying estimator. Required.
	D *Detector
	// Alpha is the constant safety margin added to the expected arrival
	// time.
	Alpha time.Duration
}

var _ core.BinaryDetector = (*Binary)(nil)

// Query reports the binary verdict at time now.
func (b *Binary) Query(now time.Time) core.Status {
	ea, ok := b.D.ExpectedArrival()
	if !ok {
		ea = b.D.start.Add(b.D.interval)
	}
	if now.After(ea.Add(b.Alpha)) {
		return core.Suspected
	}
	return core.Trusted
}
