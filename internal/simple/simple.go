// Package simple implements the paper's simplest accrual failure detector
// (§5.1, Algorithm 4): upon a query, return the time elapsed since the
// arrival of the most recent heartbeat, rounded to the resolution ε.
//
// Under the partially synchronous model the detector is of class ◇P_ac
// (Theorem 15): if the monitored process crashes the level grows without
// bound (Accruement), and if it is correct the level is bounded by the
// maximum inter-arrival gap (Upper Bound). Comparing the level to a
// constant threshold T yields exactly a binary heartbeat detector with
// timeout T.
package simple

import (
	"time"

	"accrual/internal/core"
)

// Detector is the Algorithm 4 accrual failure detector for one monitored
// process. Levels are expressed in seconds. Create one with New.
type Detector struct {
	start  time.Time
	tLast  time.Time
	snLast uint64
	eps    core.Level
	unit   time.Duration

	// Channel bookkeeping for the autotuner (core.TuneInfo).
	accepted uint64
	lost     uint64
	firstA   time.Time
}

var _ core.Detector = (*Detector)(nil)

// Option configures a Detector.
type Option func(*Detector)

// WithResolution sets the level resolution ε (Definition 1), in level
// units (seconds). The default keeps the raw floating-point value, whose
// resolution is the clock granularity.
func WithResolution(eps core.Level) Option {
	return func(d *Detector) { d.eps = eps }
}

// WithUnit sets the duration represented by one level unit. The default
// is one second: a level of 2.5 means the last heartbeat arrived 2.5
// seconds ago.
func WithUnit(u time.Duration) Option {
	return func(d *Detector) {
		if u > 0 {
			d.unit = u
		}
	}
}

// New returns a detector whose initialisation time is start: as in
// Algorithm 4, T_last(p) is initialised to the local start time, so the
// suspicion level before the first heartbeat is the time since start.
func New(start time.Time, opts ...Option) *Detector {
	d := &Detector{start: start, tLast: start, unit: time.Second}
	for _, opt := range opts {
		opt(d)
	}
	return d
}

// Report records a heartbeat arrival and reports whether it accepted
// it, keeping only heartbeats with a sequence number greater than the
// last accepted one (lines 7–10 of Algorithm 4).
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
	d.tLast = hb.Arrived
	return true
}

// Suspicion returns sl(now) = now − T_last in level units, quantised to
// the resolution. Queries before the last arrival (out-of-order clocks)
// return zero.
func (d *Detector) Suspicion(now time.Time) core.Level {
	return d.EvalSnapshot().Level(now)
}

// Snapshotable state identity (see core.State).
const (
	// StateKind identifies simple-detector state payloads.
	StateKind = "simple"
	// StateVersion is the current payload schema version.
	StateVersion = 1
)

// SnapshotState exports the detector's learned state: the start time,
// the last accepted arrival and its sequence number. Configuration
// (resolution, unit) is the factory's concern and is not exported.
func (d *Detector) SnapshotState() core.State {
	st := core.NewState(StateKind, StateVersion)
	st.SetTime("start", d.start)
	st.SetTime("t_last", d.tLast)
	st.SetUint("sn_last", d.snLast)
	return st
}

// RestoreState replaces the detector's learned state with a snapshot,
// so the next Suspicion matches the snapshotted detector's.
func (d *Detector) RestoreState(st core.State) error {
	if err := st.Check(StateKind, StateVersion); err != nil {
		return err
	}
	d.start = st.Time("start")
	d.tLast = st.Time("t_last")
	if d.tLast.IsZero() {
		d.tLast = d.start
	}
	d.snLast = st.Uint("sn_last")
	return nil
}

// LastArrival returns the arrival time of the most recent accepted
// heartbeat (the detector start time if none arrived yet).
func (d *Detector) LastArrival() time.Time { return d.tLast }

// Prefetch does nothing: a Report touches no memory beyond the
// detector (see core.Detector.Prefetch).
func (d *Detector) Prefetch() {}

// LastSeq returns the sequence number of the most recent accepted
// heartbeat, zero if none arrived yet.
func (d *Detector) LastSeq() uint64 { return d.snLast }
