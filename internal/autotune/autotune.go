// Package autotune closes the QoS feedback loop the paper's
// architecture makes possible: because monitoring (suspicion accrual)
// is decoupled from interpretation (thresholds), the interpretation —
// and the estimator geometry beneath it — can be retuned while the
// service runs, without losing accrued history.
//
// A Controller periodically measures the fleet through three existing
// seams: per-detector channel statistics (core.TuneInfo via
// service.Monitor.EachTuneInfo), the streaming accuracy estimates of
// telemetry.QoS (λ_M, P_A), and the completeness side's detection-time
// samples (telemetry.QoS.DetectionStats). It compares the achieved
// detection time against an operator target expressed in the Chen,
// Toueg and Aguilera metrics (chen.QoS), re-runs the chen.Configure
// planner against the *measured* network statistics, and applies
// bounded updates to three knobs:
//
//   - the Algorithm 3 hysteresis thresholds of the reference
//     interpreter (the paper's dynamic T(t)/T₀(t)), via
//     telemetry.QoS.SetThresholds;
//   - the estimator window size of every detector, via
//     core.Detector.Retune (service.Monitor.Retune);
//   - the detectors' nominal-interval knob, tracking the measured
//     heartbeat interval corrected for loss.
//
// Every update is bounded by a per-round step limit and continuity is
// preserved at each retune instant (see core.Detector.Retune), so the
// controller can run against live traffic: a bad measurement produces
// at worst one bounded wrong step, corrected the next round.
package autotune

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"accrual/internal/chen"
	"accrual/internal/core"
	"accrual/internal/service"
	"accrual/internal/stats"
	"accrual/internal/telemetry"
)

// Detector kinds the threshold mapping understands. The lateness
// budget α (seconds a heartbeat may be overdue before the reference
// interpreter suspects) is translated into each detector's level units.
const (
	DetectorSimple  = "simple"
	DetectorChen    = "chen"
	DetectorPhi     = "phi"
	DetectorKappa   = "kappa"
	DetectorBertier = "bertier"
)

// Config parameterises a Controller.
type Config struct {
	// Monitor is the registry whose detectors are measured and retuned.
	// Required.
	Monitor *service.Monitor
	// QoS is the online estimator set whose thresholds the controller
	// adapts and whose detection-time samples feed the feedback term.
	// Required.
	QoS *telemetry.QoS
	// Counters receives round/applied/clamped/rejected counts and the
	// per-knob gauges. Optional.
	Counters *telemetry.AutotuneCounters
	// Targets are the operator's QoS requirements. MaxDetectionTime is
	// required; a zero MinMistakeRecurrence defaults to 100× the
	// detection target.
	Targets chen.QoS
	// TargetPA is the minimum acceptable query accuracy P_A. When the
	// measured fleet mean falls below it the controller widens the
	// lateness budget instead of tightening it. Zero disables the term;
	// a value outside [0, 1) is a config error.
	TargetPA float64
	// Detector names the detector kind the monitor's factory builds
	// (one of the Detector* constants); it selects the α → level-units
	// mapping. Required.
	Detector string
	// MaxStep bounds every per-round knob change as a relative step:
	// 0.25 means a knob moves at most ±25% per round (default 0.25;
	// anything else outside (0, 1) is a config error).
	MaxStep float64
	// MinWindow and MaxWindow clamp the proposed estimator window
	// (defaults 16 and 1024).
	MinWindow, MaxWindow int
	// Gain is the exponent of the feedback trim (default 0.5): the
	// trim moves by (target/achieved)^Gain per new detection sample.
	Gain float64
}

// Plan outcome reasons (constants so the steady-state round allocates
// nothing).
const (
	ReasonEmptyFleet  = "no retunable detectors registered"
	ReasonNoArrivals  = "no heartbeat history to measure yet"
	ReasonBadStats    = "measured network statistics degenerate"
	ReasonInfeasible  = "targets infeasible under measured network"
	ReasonConverged   = "knobs within tolerance of plan"
	ReasonRetuned     = "bounded update toward planned knobs"
	ReasonThresholds  = "threshold update rejected"
	ReasonPartialFail = "some detectors rejected the tuning"
)

// Knobs is one coherent setting of the tunable parameters.
type Knobs struct {
	// ThresholdHigh and ThresholdLow are the Algorithm 3 reference
	// thresholds, in the detector's level units.
	ThresholdHigh float64 `json:"threshold_high"`
	ThresholdLow  float64 `json:"threshold_low"`
	// WindowSize is the estimator window capacity.
	WindowSize int `json:"window_size"`
	// Interval is the detectors' nominal-interval knob in nanoseconds
	// (zero for detectors without one).
	IntervalNs int64 `json:"interval_ns"`
}

// Measurement is the fleet-level view one controller round planned
// against.
type Measurement struct {
	// Procs counts retunable detectors; Estimable counts processes with
	// accrued QoS observation time.
	Procs     int `json:"procs"`
	Estimable int `json:"estimable"`
	Suspected int `json:"suspected"`
	// ArrivalMeanNs is the loss-inflated mean gap between accepted
	// heartbeats; IntervalNs is that mean corrected by the measured
	// loss — the estimated true sending interval.
	ArrivalMeanNs   int64 `json:"arrival_mean_ns"`
	ArrivalStdDevNs int64 `json:"arrival_stddev_ns"`
	IntervalNs      int64 `json:"interval_ns"`
	// LossProb is lost/(lost+accepted) over the fleet's counters — an
	// upper bound, since reordered deliveries count as gaps.
	LossProb float64 `json:"loss_prob"`
	// MeanPA is the fleet mean query accuracy, or -1 until any process
	// is estimable (-1 rather than NaN so the plan stays encodable as
	// JSON).
	MeanPA float64 `json:"mean_pa"`
	// Detections / DetectionMeanNs / DetectionMaxNs summarise the
	// completeness samples recorded so far.
	Detections      int   `json:"detections"`
	DetectionMeanNs int64 `json:"detection_mean_ns"`
	DetectionMaxNs  int64 `json:"detection_max_ns"`
}

// Plan is the outcome of one controller round (or dry run): what was
// measured, where the knobs are, where they should go, and what the
// planner predicts the proposed setting achieves.
type Plan struct {
	Round    uint64      `json:"round"`
	Measured Measurement `json:"measured"`
	Current  Knobs       `json:"current"`
	Proposed Knobs       `json:"proposed"`
	// Recommended is the chen.Configure output against the measured
	// network: the (interval, margin) the *protocol* should run at to
	// meet the targets. The monitor cannot change the senders' rate, so
	// this is advisory; the Proposed knobs adapt the receiving side to
	// the traffic actually observed.
	RecommendedIntervalNs int64 `json:"recommended_interval_ns"`
	RecommendedAlphaNs    int64 `json:"recommended_alpha_ns"`
	// PredictedDetectionNs and PredictedRecurrenceNs are the
	// chen.Predict projection for the proposed lateness budget at the
	// measured interval.
	PredictedDetectionNs  int64 `json:"predicted_detection_ns"`
	PredictedRecurrenceNs int64 `json:"predicted_recurrence_ns"`
	// Trim is the cumulative feedback multiplier on the lateness
	// budget (1 = pure feed-forward).
	Trim float64 `json:"trim"`
	// Feasible is false when the plan could not be derived (degenerate
	// measurements or infeasible targets); Change is true when the
	// proposed knobs differ from the current ones; Clamped is true when
	// the per-round step bound limited the move; Applied is true when a
	// Round actually applied the proposal (always false from Plan).
	Feasible bool   `json:"feasible"`
	Change   bool   `json:"change"`
	Clamped  bool   `json:"clamped"`
	Applied  bool   `json:"applied"`
	Reason   string `json:"reason"`
	// TunedDetectors and SkippedDetectors report the Retune walk of an
	// applied round.
	TunedDetectors   int `json:"tuned_detectors"`
	SkippedDetectors int `json:"skipped_detectors"`
}

// groupAgg accumulates per-federation-group channel statistics during
// the measurement walk. The structs are retained across rounds so the
// steady-state walk allocates nothing.
type groupAgg struct {
	procs          int
	accepted, lost uint64
	sumMeanNs      float64 // accepted-weighted arrival mean
	weight         float64
	seen           bool
}

// GroupMeasurement is the per-group rollup exposed on the plan view —
// the group-level framing of which knobs would deserve per-group
// treatment (loss is a group property when groups map to sites).
type GroupMeasurement struct {
	Group         string  `json:"group"`
	Procs         int     `json:"procs"`
	LossProb      float64 `json:"loss_prob"`
	ArrivalMeanNs int64   `json:"arrival_mean_ns"`
}

// fleetAgg is the controller's reusable measurement scratch.
type fleetAgg struct {
	procs          int
	accepted, lost uint64
	sumMeanNs      float64
	weight         float64
	sumVarNs2      float64 // accepted-weighted variance, ns²
	varWeight      float64
	intervalNs     int64 // first non-zero interval knob seen
	windowSize     int   // largest window capacity seen
	sumMarginNs    float64
	nMargin        int
}

// Controller is the autotuner. Create one with New and drive it with
// Plan and Round; it holds no goroutine, so its owner runs Round on its
// own schedule (accruald runs it on clock.Every).
type Controller struct {
	cfg Config

	mu           sync.Mutex
	round        uint64
	trim         float64
	lastDetCount int
	lastDetSumNs float64
	agg          fleetAgg
	groups       map[string]*groupAgg
	tuneFn       func(p service.TuneProcess)
}

// New validates the configuration and returns a controller.
func New(cfg Config) (*Controller, error) {
	if cfg.Monitor == nil || cfg.QoS == nil {
		return nil, errors.New("autotune: Monitor and QoS are required")
	}
	if cfg.Targets.MaxDetectionTime <= 0 {
		return nil, errors.New("autotune: Targets.MaxDetectionTime must be positive")
	}
	switch cfg.Detector {
	case DetectorSimple, DetectorChen, DetectorPhi, DetectorKappa, DetectorBertier:
	default:
		return nil, fmt.Errorf("autotune: unknown detector kind %q", cfg.Detector)
	}
	if cfg.Targets.MinMistakeRecurrence <= 0 {
		cfg.Targets.MinMistakeRecurrence = 100 * cfg.Targets.MaxDetectionTime
	}
	switch {
	case cfg.MaxStep == 0:
		cfg.MaxStep = 0.25
	case !(cfg.MaxStep > 0 && cfg.MaxStep < 1):
		return nil, fmt.Errorf("autotune: MaxStep %v outside (0, 1)", cfg.MaxStep)
	}
	if !(cfg.TargetPA >= 0 && cfg.TargetPA < 1) {
		return nil, fmt.Errorf("autotune: TargetPA %v outside [0, 1)", cfg.TargetPA)
	}
	if cfg.MinWindow <= 0 {
		cfg.MinWindow = 16
	}
	if cfg.MaxWindow < cfg.MinWindow {
		cfg.MaxWindow = 1024
	}
	if cfg.Gain <= 0 || cfg.Gain > 1 {
		cfg.Gain = 0.5
	}
	c := &Controller{cfg: cfg, trim: 1, groups: make(map[string]*groupAgg)}
	// The walk closure is built once: per-round closure allocation
	// would show up in the steady-state 0 allocs/op gate.
	c.tuneFn = func(p service.TuneProcess) {
		c.observeProc(p)
	}
	return c, nil
}

func (c *Controller) observeProc(p service.TuneProcess) {
	a := &c.agg
	a.procs++
	a.accepted += p.Info.Accepted
	a.lost += p.Info.Lost
	if p.Info.ArrivalMean > 0 && p.Info.Accepted > 1 {
		w := float64(p.Info.Accepted - 1)
		a.sumMeanNs += w * float64(p.Info.ArrivalMean.Nanoseconds())
		a.weight += w
		if p.Info.ArrivalStdDev > 0 {
			sd := float64(p.Info.ArrivalStdDev.Nanoseconds())
			a.sumVarNs2 += w * sd * sd
			a.varWeight += w
		}
	}
	if a.intervalNs == 0 && p.Info.Interval > 0 {
		a.intervalNs = p.Info.Interval.Nanoseconds()
	}
	if p.Info.WindowSize > a.windowSize {
		a.windowSize = p.Info.WindowSize
	}
	if p.Info.Margin > 0 {
		a.sumMarginNs += float64(p.Info.Margin.Nanoseconds())
		a.nMargin++
	}
	g := c.groups[p.Group]
	if g == nil {
		g = &groupAgg{}
		c.groups[p.Group] = g
	}
	g.seen = true
	g.procs++
	g.accepted += p.Info.Accepted
	g.lost += p.Info.Lost
	if p.Info.ArrivalMean > 0 && p.Info.Accepted > 1 {
		w := float64(p.Info.Accepted - 1)
		g.sumMeanNs += w * float64(p.Info.ArrivalMean.Nanoseconds())
		g.weight += w
	}
}

// measureLocked refreshes the fleet scratch. Callers hold c.mu.
func (c *Controller) measureLocked() Measurement {
	c.agg = fleetAgg{}
	for _, g := range c.groups {
		*g = groupAgg{}
	}
	c.cfg.Monitor.EachTuneInfo(c.tuneFn)

	var m Measurement
	a := &c.agg
	m.Procs = a.procs
	if total := a.accepted + a.lost; total > 0 {
		m.LossProb = float64(a.lost) / float64(total)
	}
	if a.weight > 0 {
		m.ArrivalMeanNs = int64(a.sumMeanNs / a.weight)
		m.IntervalNs = int64(float64(m.ArrivalMeanNs) * (1 - m.LossProb))
	}
	if a.varWeight > 0 {
		m.ArrivalStdDevNs = int64(math.Sqrt(a.sumVarNs2 / a.varWeight))
	}
	qagg := c.cfg.QoS.AggregateEstimates()
	m.Estimable = qagg.Estimable
	m.Suspected = qagg.Suspected
	m.MeanPA = qagg.MeanPA
	if math.IsNaN(m.MeanPA) {
		m.MeanPA = -1
	}
	count, mean, max := c.cfg.QoS.DetectionStats()
	m.Detections = count
	m.DetectionMeanNs = mean.Nanoseconds()
	m.DetectionMaxNs = max.Nanoseconds()
	return m
}

// Groups returns the per-group rollup of the most recent measurement
// (Plan or Round). It allocates the result slice and is meant for the
// HTTP plan view, not the controller loop.
func (c *Controller) Groups() []GroupMeasurement {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]GroupMeasurement, 0, len(c.groups))
	for name, g := range c.groups {
		if !g.seen {
			continue
		}
		gm := GroupMeasurement{Group: name, Procs: g.procs}
		if total := g.accepted + g.lost; total > 0 {
			gm.LossProb = float64(g.lost) / float64(total)
		}
		if g.weight > 0 {
			gm.ArrivalMeanNs = int64(g.sumMeanNs / g.weight)
		}
		out = append(out, gm)
	}
	return out
}

// currentKnobs reads where the knobs are right now.
func (c *Controller) currentKnobs() Knobs {
	high, low := c.cfg.QoS.Thresholds()
	return Knobs{
		ThresholdHigh: float64(high),
		ThresholdLow:  float64(low),
		WindowSize:    c.agg.windowSize,
		IntervalNs:    c.agg.intervalNs,
	}
}

// clampStep bounds proposed relative to current by the per-round step
// limit, reporting whether the bound was hit. A zero current value
// passes the proposal through (nothing to step from).
func clampStep(current, proposed, maxStep float64) (float64, bool) {
	if current <= 0 || proposed <= 0 {
		return proposed, false
	}
	lo, hi := current*(1-maxStep), current*(1+maxStep)
	if proposed < lo {
		return lo, true
	}
	if proposed > hi {
		return hi, true
	}
	return proposed, false
}

// latenessToLevel translates a lateness budget (seconds a heartbeat may
// be overdue before the reference interpreter should suspect) into the
// configured detector kind's level units. eta, mu and sd are the
// estimated true interval, observed mean arrival gap and observed
// deviation, in seconds.
func (c *Controller) latenessToLevel(alpha, eta, mu, sd float64) float64 {
	switch c.cfg.Detector {
	case DetectorChen:
		// Levels are seconds past the expected arrival.
		return alpha
	case DetectorSimple:
		// Levels are seconds since the last heartbeat; one nominal
		// interval is already "on time".
		return eta + alpha
	case DetectorBertier:
		// Levels are lateness in units of the adaptive margin.
		margin := 0.0
		if c.agg.nMargin > 0 {
			margin = c.agg.sumMarginNs / float64(c.agg.nMargin) / float64(time.Second)
		}
		if margin <= 0 {
			margin = alpha
		}
		return alpha / margin
	case DetectorPhi:
		// Levels are φ = −log₁₀ P_later(elapsed); evaluate at one mean
		// gap plus the budget, under the observed normal model.
		if mu <= 0 {
			mu = eta
		}
		if sd < 0.001 {
			sd = 0.001
		}
		logTail := stats.LogTail(stats.Normal{Mu: mu, Sigma: sd}, mu+alpha)
		return -logTail / math.Ln10
	case DetectorKappa:
		// Levels approximate the count of missed heartbeats; α seconds
		// of silence past the first missed beat is ≈ 1 + α/η beats.
		if eta <= 0 {
			return 1
		}
		return 1 + alpha/eta
	}
	return alpha
}

// planLocked derives one plan from fresh measurements. Callers hold
// c.mu.
func (c *Controller) planLocked() Plan {
	p := Plan{Round: c.round, Trim: c.trim}
	p.Measured = c.measureLocked()
	p.Current = c.currentKnobs()
	p.Proposed = p.Current

	if p.Measured.Procs == 0 {
		p.Reason = ReasonEmptyFleet
		return p
	}
	if p.Measured.ArrivalMeanNs <= 0 {
		p.Reason = ReasonNoArrivals
		return p
	}

	net := chen.NetworkStats{
		LossProb:    p.Measured.LossProb,
		DelayStdDev: time.Duration(p.Measured.ArrivalStdDevNs),
	}
	// Feed-forward: what protocol parameters would meet the targets on
	// the measured channel? Advisory for the senders; its failure modes
	// classify the round.
	if rec, err := chen.Configure(c.cfg.Targets, net); err != nil {
		if errors.Is(err, chen.ErrBadNetworkStats) {
			p.Reason = ReasonBadStats
		} else {
			p.Reason = ReasonInfeasible
		}
		return p
	} else {
		p.RecommendedIntervalNs = rec.Interval.Nanoseconds()
		p.RecommendedAlphaNs = rec.Alpha.Nanoseconds()
	}

	// Feedback: fold the detection-time samples recorded *since the
	// previous round* into the cumulative trim on the lateness budget.
	// The per-round mean (recovered from the cumulative statistics)
	// rather than the all-time mean is what keeps the loop from
	// over-trimming: once recent detections hit the target, the step
	// settles at 1 even though stale samples still skew the total.
	if p.Measured.Detections > c.lastDetCount && p.Measured.DetectionMeanNs > 0 {
		sumNs := float64(p.Measured.DetectionMeanNs) * float64(p.Measured.Detections)
		newCount := float64(p.Measured.Detections - c.lastDetCount)
		achieved := (sumNs - c.lastDetSumNs) / newCount
		c.lastDetCount = p.Measured.Detections
		c.lastDetSumNs = sumNs
		target := float64(c.cfg.Targets.MaxDetectionTime.Nanoseconds())
		// Deadband: detection times are quantized by the sampling
		// cadence; within 10% of target the loop holds rather than
		// chasing that noise.
		if achieved > 0 && math.Abs(achieved/target-1) > 0.1 {
			step := math.Pow(target/achieved, c.cfg.Gain)
			if step < 1-c.cfg.MaxStep {
				step = 1 - c.cfg.MaxStep
			}
			if step > 1+c.cfg.MaxStep {
				step = 1 + c.cfg.MaxStep
			}
			c.trim *= step
			if c.trim < 0.2 {
				c.trim = 0.2
			}
			if c.trim > 5 {
				c.trim = 5
			}
			p.Trim = c.trim
		}
	}
	// Accuracy guard: when the fleet's query accuracy undercuts the
	// operator's floor, wrong suspicions dominate — ease the budget
	// outward instead of tightening it.
	if c.cfg.TargetPA > 0 && p.Measured.MeanPA >= 0 && p.Measured.MeanPA < c.cfg.TargetPA {
		c.trim *= 1 + c.cfg.MaxStep/2
		if c.trim > 5 {
			c.trim = 5
		}
		p.Trim = c.trim
	}

	// The receiving-side lateness budget: the detection-time target
	// minus the (loss-corrected) interval the senders actually use.
	eta := float64(p.Measured.IntervalNs) / float64(time.Second)
	alpha := c.cfg.Targets.MaxDetectionTime.Seconds() - eta
	if alpha <= 0 {
		p.Reason = ReasonInfeasible
		return p
	}
	alpha *= c.trim
	if min := eta / 10; alpha < min {
		alpha = min
	}

	if pred, err := chen.Predict(chen.Params{
		Interval: time.Duration(p.Measured.IntervalNs),
		Alpha:    time.Duration(alpha * float64(time.Second)),
	}, net); err == nil {
		p.PredictedDetectionNs = pred.MaxDetectionTime.Nanoseconds()
		p.PredictedRecurrenceNs = pred.MinMistakeRecurrence.Nanoseconds()
	}
	p.Feasible = true

	// Map the budget into level-unit thresholds and the window size.
	mu := float64(p.Measured.ArrivalMeanNs) / float64(time.Second)
	sd := float64(p.Measured.ArrivalStdDevNs) / float64(time.Second)
	high := c.latenessToLevel(alpha, eta, mu, sd)
	if high < 1e-6 || math.IsNaN(high) || math.IsInf(high, 0) {
		high = 1e-6
	}
	ratio := 0.5
	if p.Current.ThresholdHigh > 0 && p.Current.ThresholdLow > 0 && p.Current.ThresholdLow < p.Current.ThresholdHigh {
		ratio = p.Current.ThresholdLow / p.Current.ThresholdHigh
	}

	var clamped bool
	p.Proposed.ThresholdHigh, clamped = clampStep(p.Current.ThresholdHigh, high, c.cfg.MaxStep)
	p.Clamped = p.Clamped || clamped
	p.Proposed.ThresholdLow = p.Proposed.ThresholdHigh * ratio

	// Window: cover about one target mistake-recurrence span of
	// arrivals, so the estimator forgets on the same timescale the
	// operator cares about, clamped to the configured bounds.
	if eta > 0 {
		w := int(math.Round(c.cfg.Targets.MinMistakeRecurrence.Seconds() / eta))
		if w < c.cfg.MinWindow {
			w = c.cfg.MinWindow
		}
		if w > c.cfg.MaxWindow {
			w = c.cfg.MaxWindow
		}
		if p.Current.WindowSize > 0 {
			wf, cl := clampStep(float64(p.Current.WindowSize), float64(w), c.cfg.MaxStep)
			w = int(math.Round(wf))
			p.Clamped = p.Clamped || cl
		}
		p.Proposed.WindowSize = w
	}

	// Interval knob: track the measured true interval, but only when it
	// has drifted enough to matter (2%), so jittery estimates do not
	// cause churny retunes.
	if p.Current.IntervalNs > 0 && p.Measured.IntervalNs > 0 {
		drift := math.Abs(float64(p.Measured.IntervalNs)/float64(p.Current.IntervalNs) - 1)
		if drift > 0.02 {
			ni, cl := clampStep(float64(p.Current.IntervalNs), float64(p.Measured.IntervalNs), c.cfg.MaxStep)
			p.Proposed.IntervalNs = int64(ni)
			p.Clamped = p.Clamped || cl
		}
	}

	p.Change = knobsDiffer(p.Current, p.Proposed)
	if p.Change {
		p.Reason = ReasonRetuned
	} else {
		p.Reason = ReasonConverged
	}
	return p
}

// knobsDiffer reports whether two knob settings differ beyond a 0.1%
// relative tolerance (absolute for near-zero values).
func knobsDiffer(a, b Knobs) bool {
	return relDiffer(a.ThresholdHigh, b.ThresholdHigh) ||
		relDiffer(a.ThresholdLow, b.ThresholdLow) ||
		a.WindowSize != b.WindowSize ||
		relDiffer(float64(a.IntervalNs), float64(b.IntervalNs))
}

func relDiffer(a, b float64) bool {
	d := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1e-12 {
		return d > 1e-12
	}
	return d/scale > 1e-3
}

// Plan measures the fleet and returns the dry-run plan: current versus
// proposed knobs and the predicted QoS, applying nothing and moving no
// counters.
func (c *Controller) Plan() Plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.planLocked()
}

// Round runs one controller round: measure, plan, and apply the
// proposal if it is feasible and changes anything. It returns the plan
// with the apply outcome filled in.
func (c *Controller) Round() Plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.round++
	p := c.planLocked()
	p.Round = c.round

	ctr := c.cfg.Counters
	if ctr != nil {
		ctr.Rounds.Add(1)
	}
	if !p.Feasible {
		if p.Reason == ReasonBadStats || p.Reason == ReasonInfeasible {
			if ctr != nil {
				ctr.Rejected.Add(1)
			}
		}
		return p
	}
	if ctr != nil && p.Clamped {
		ctr.Clamped.Add(1)
	}
	if !p.Change {
		return p
	}

	if err := c.cfg.QoS.SetThresholds(core.Level(p.Proposed.ThresholdHigh), core.Level(p.Proposed.ThresholdLow)); err != nil {
		p.Reason = ReasonThresholds
		p.Applied = false
		if ctr != nil {
			ctr.Rejected.Add(1)
		}
		return p
	}

	tuning := core.Tuning{}
	if p.Proposed.WindowSize > 0 && p.Proposed.WindowSize != p.Current.WindowSize {
		tuning.WindowSize = p.Proposed.WindowSize
	}
	if p.Proposed.IntervalNs > 0 && p.Proposed.IntervalNs != p.Current.IntervalNs {
		tuning.Interval = time.Duration(p.Proposed.IntervalNs)
	}
	if tuning != (core.Tuning{}) {
		tuned, skipped, err := c.cfg.Monitor.Retune(tuning)
		p.TunedDetectors = tuned
		p.SkippedDetectors = skipped
		if err != nil {
			p.Reason = ReasonPartialFail
			if ctr != nil {
				ctr.Rejected.Add(1)
			}
		}
	}
	p.Applied = true
	if ctr != nil {
		ctr.Applied.Add(1)
		ctr.SetKnobs(p.Proposed.ThresholdHigh, p.Proposed.ThresholdLow,
			float64(p.Proposed.WindowSize), float64(p.Proposed.IntervalNs)/float64(time.Second))
	}
	return p
}

// Rounds returns how many controller rounds have run.
func (c *Controller) Rounds() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.round
}
