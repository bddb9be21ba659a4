// Package phi implements the φ accrual failure detector of Hayashibara,
// Défago, Yared and Katayama (SRDS 2004), as described in §5.3 of the
// accrual failure detectors paper.
//
// Like Chen's detector, φ adapts to changing network conditions — but
// instead of estimating only the mean of the next expected arrival time,
// it estimates the full distribution of heartbeat inter-arrival times
// (mean and variance over a sliding window, with an assumed shape) and
// outputs
//
//	φ(t) = −log₁₀( P_later(t − t_last) )
//
// where P_later(Δ) is the probability that a heartbeat arrives more than
// Δ after the previous one. Interpreting the level with a constant
// threshold Φ means accepting roughly a 10^−Φ probability of a wrong
// suspicion when the network behaviour is probabilistically stable
// (experiment E8 checks this calibration).
package phi

import (
	"time"

	"accrual/internal/core"
	"accrual/internal/stats"
)

// Model selects the assumed shape of the inter-arrival distribution.
type Model int

const (
	// ModelNormal assumes normally distributed inter-arrival times (the
	// paper's suggestion for arrival intervals). This is the default and
	// matches the widely deployed φ implementations (Akka, Cassandra).
	ModelNormal Model = iota
	// ModelExponential assumes exponentially distributed inter-arrival
	// times, a conservative heavy-ish tail useful when delays are very
	// irregular.
	ModelExponential
	// ModelErlang assumes Erlang-distributed inter-arrival times — the
	// shape §5.3 suggests for transmission times. The integer shape k is
	// fitted by the method of moments (k ≈ mean²/variance, clamped to
	// [1, maxErlangShape]), interpolating between exponential behaviour
	// (k=1) and near-deterministic arrivals (large k).
	ModelErlang
)

// String returns the model name.
func (m Model) String() string {
	switch m {
	case ModelNormal:
		return "normal"
	case ModelExponential:
		return "exponential"
	case ModelErlang:
		return "erlang"
	default:
		return "model?"
	}
}

// Detector is a φ accrual failure detector for one monitored process.
// Levels are φ values (dimensionless, base-10 log scale). Create one with
// New.
type Detector struct {
	window          stats.Window // inter-arrival intervals, seconds
	model           Model
	minStdDev       float64 // seconds
	acceptablePause float64 // seconds added to the estimated mean
	start           time.Time
	last            time.Time
	snLast          uint64
	hasLast         bool
	eps             core.Level

	// Channel bookkeeping for the autotuner (core.TuneInfo).
	accepted uint64
	lost     uint64
}

var _ core.Detector = (*Detector)(nil)

// Option configures a Detector.
type Option func(*options)

// options is what New applies the options to: the detector itself, plus
// the window size and bootstrap samples, which New uses only after every
// option has run, so the options may come in any order.
type options struct {
	*Detector
	windowSize int
	bootstrap  [2]float64
	boot       bool
}

// WithWindowSize sets the number of inter-arrival samples kept
// (default 200).
func WithWindowSize(n int) Option {
	return func(o *options) { o.windowSize = n }
}

// WithModel selects the assumed inter-arrival distribution shape
// (default ModelNormal).
func WithModel(m Model) Option {
	return func(o *options) { o.model = m }
}

// WithMinStdDev sets a floor on the estimated standard deviation,
// protecting against pathological over-confidence when the observed
// intervals are nearly constant (default 1ms). Only meaningful for
// ModelNormal.
func WithMinStdDev(min time.Duration) Option {
	return func(o *options) {
		if min > 0 {
			o.minStdDev = min.Seconds()
		}
	}
}

// WithBootstrap seeds the estimator with a prior guess of the heartbeat
// interval before any heartbeat arrives, in the style of Akka's
// first-heartbeat estimate: two synthetic samples mean±spread are pushed
// into the window, so the detector is usable from the first query.
func WithBootstrap(mean, spread time.Duration) Option {
	return func(o *options) {
		o.bootstrap = [2]float64{(mean - spread).Seconds(), (mean + spread).Seconds()}
		o.boot = true
	}
}

// WithResolution sets the level resolution ε.
func WithResolution(eps core.Level) Option {
	return func(o *options) { o.eps = eps }
}

// WithAcceptablePause adds a grace period to the estimated inter-arrival
// mean before φ starts accruing — the "acceptable heartbeat pause" knob
// the production φ implementations (Akka, Cassandra) expose to ride out
// garbage-collection stalls and scheduler hiccups without re-tuning the
// threshold.
func WithAcceptablePause(pause time.Duration) Option {
	return func(o *options) {
		if pause > 0 {
			o.acceptablePause = pause.Seconds()
		}
	}
}

const (
	defaultWindow = 200
	// maxErlangShape caps the fitted Erlang shape so that very regular
	// heartbeats do not produce an absurdly spiky model (k=1000 stages
	// behaves like a point mass and is numerically pointless).
	maxErlangShape = 256
)

// New returns a φ detector started at the given local time.
func New(start time.Time, opts ...Option) *Detector {
	d := &Detector{
		start:     start,
		last:      start,
		minStdDev: 0.001,
	}
	o := options{Detector: d, windowSize: defaultWindow}
	for _, opt := range opts {
		opt(&o)
	}
	d.window = *stats.NewWindow(o.windowSize)
	if o.boot {
		d.window.Push(o.bootstrap[0])
		d.window.Push(o.bootstrap[1])
	}
	return d
}

// Report records a heartbeat arrival and reports whether it accepted
// it: stale and duplicate sequence numbers are refused. The first accepted heartbeat only fixes t_last;
// subsequent ones contribute inter-arrival samples.
func (d *Detector) Report(hb core.Heartbeat) bool {
	if hb.Seq <= d.snLast {
		return false
	}
	d.lost += hb.Seq - d.snLast - 1
	d.snLast = hb.Seq
	d.accepted++
	if d.hasLast {
		interval := hb.Arrived.Sub(d.last).Seconds()
		if interval >= 0 {
			d.window.Push(interval)
		}
	}
	d.last = hb.Arrived
	d.hasLast = true
	return true
}

// Phi returns the raw φ value at time now: −log₁₀ P_later(now − t_last),
// the detector's level at resolution ε = 0. Before any estimate exists
// it returns 0 (no information, no suspicion).
func (d *Detector) Phi(now time.Time) float64 {
	snap := d.EvalSnapshot()
	snap.Eps = 0
	return float64(snap.Level(now))
}

// Suspicion returns the suspicion level sl(now) = φ(now), quantised to
// the configured resolution.
func (d *Detector) Suspicion(now time.Time) core.Level {
	return d.EvalSnapshot().Level(now)
}

// Snapshotable state identity (see core.State).
const (
	// StateKind identifies φ-detector state payloads.
	StateKind = "phi"
	// StateVersion is the current payload schema version.
	StateVersion = 1
)

// SnapshotState exports the detector's learned state: the inter-arrival
// sample window (the estimated distribution, and the expensive part to
// re-learn after a restart), the last arrival and the sequence cursor.
// Model choice, window capacity and the other configuration knobs stay
// with the factory.
func (d *Detector) SnapshotState() core.State {
	st := core.NewState(StateKind, StateVersion)
	st.SetTime("start", d.start)
	st.SetTime("last", d.last)
	st.SetBool("has_last", d.hasLast)
	st.SetUint("sn_last", d.snLast)
	st.SetSeries("intervals", d.window.Samples(nil))
	return st
}

// RestoreState replaces the detector's learned state with a snapshot.
// Any bootstrap samples seeded by the factory are discarded: the
// snapshot's window is the better prior. When the receiving window is
// smaller than the snapshot, only the newest samples are kept.
func (d *Detector) RestoreState(st core.State) error {
	if err := st.Check(StateKind, StateVersion); err != nil {
		return err
	}
	d.start = st.Time("start")
	d.last = st.Time("last")
	d.hasLast = st.Bool("has_last")
	if d.last.IsZero() {
		d.last = d.start
	}
	d.snLast = st.Uint("sn_last")
	d.window.Restore(st.SeriesOf("intervals"))
	return nil
}

// LastArrival returns the arrival time of the most recent accepted
// heartbeat and whether one has arrived at all.
func (d *Detector) LastArrival() (time.Time, bool) { return d.last, d.hasLast }

// Prefetch starts loading the window slot the next Report writes (see
// core.Detector.Prefetch).
func (d *Detector) Prefetch() { d.window.Prefetch() }

// LastSeq returns the sequence number of the most recent accepted
// heartbeat.
func (d *Detector) LastSeq() uint64 { return d.snLast }

// IntervalMean returns the current estimate of the mean inter-arrival
// time.
func (d *Detector) IntervalMean() time.Duration {
	return time.Duration(d.window.Mean() * float64(time.Second))
}

// IntervalStdDev returns the current estimate of the inter-arrival
// standard deviation.
func (d *Detector) IntervalStdDev() time.Duration {
	return time.Duration(d.window.StdDev() * float64(time.Second))
}

// SampleCount returns the number of inter-arrival samples currently in
// the estimation window.
func (d *Detector) SampleCount() int { return d.window.Len() }
