package telemetry

import (
	"fmt"
	"math"
	"sync"
	"time"
	"unsafe"

	"accrual/internal/core"
	"accrual/internal/prefetch"
	"accrual/internal/qos"
	"accrual/internal/transform"
)

// ErrBadThresholds is returned by NewQoS and SetThresholds when the
// reference thresholds are inverted or negative: Algorithm 3 requires
// T(t) > T₀(t) ≥ 0, otherwise every query would flap between suspect
// and trust.
var ErrBadThresholds = fmt.Errorf("telemetry: invalid hysteresis thresholds (need high > low >= 0)")

// QoS maintains streaming estimates of the §2 metrics for every process
// of the one registry it serves (Attach). Each binding carries its own
// estimator on its ProcSeries: the reference interpreter's status — the
// Algorithm 3 two-threshold detector D'_T over the binding's sampled
// level — and the qos.Run accounting core each interpreter step folds
// through. qos.Evaluate folds a recorded trace through that same core, so
// the online estimates equal the offline computation over the identical
// sampled transition trace.
//
// Completeness is covered too: a process can be marked as crashed
// (MarkCrashed), and when it is then deregistered while the reference
// interpreter suspects it, the span from the crash to the final
// S-transition is recorded as a detection-time (T_D) sample (Forget).
//
// The estimator lives and dies with the binding: it is allocated at the
// binding's first observation and finalised at its deregistration. A
// re-registered id is a new binding with a new series, so it starts
// fresh whatever order rounds and deregistration notices arrive in.
//
// QoS is safe for concurrent use; one mutex guards every estimator and
// the detection statistics (sampling, scraping and deregistration are
// all orders of magnitude rarer than heartbeat ingest, which never
// touches this lock).
type QoS struct {
	high, low core.Level

	mu  sync.Mutex
	src LevelSource

	// fold is AggregateEstimates' running sum, and foldFn its add method
	// bound once, so the registry walk allocates nothing.
	fold   aggFold
	foldFn func(*ProcSeries, core.Level)

	detCount int
	detSum   time.Duration
	detMax   time.Duration
}

// NewQoS returns an online estimator set using the given reference
// thresholds (suspect above high, trust again at or below low). The
// thresholds must satisfy high > low >= 0; anything else returns
// ErrBadThresholds.
func NewQoS(high, low core.Level) (*QoS, error) {
	if err := checkThresholds(high, low); err != nil {
		return nil, err
	}
	q := &QoS{high: high, low: low}
	q.foldFn = q.fold.add
	return q, nil
}

func checkThresholds(high, low core.Level) error {
	// The NaN comparisons are deliberate: NaN fails high > low.
	if !(high > low && low >= 0) || !high.IsFinite() {
		return fmt.Errorf("%w: high=%v low=%v", ErrBadThresholds, high, low)
	}
	return nil
}

// Thresholds returns the reference interpreter thresholds.
func (q *QoS) Thresholds() (high, low core.Level) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.high, q.low
}

// SetThresholds replaces the reference interpreter thresholds at
// runtime — the autotuner's dynamic T(t)/T₀(t). Inverted or negative
// pairs are rejected with ErrBadThresholds and leave the current
// thresholds in place. The swap is atomic with respect to concurrent
// sampling rounds: every interpreter step reads the thresholds under the
// same mutex, so a retune mid-round cannot record a spurious transition
// against a half-updated pair.
func (q *QoS) SetThresholds(high, low core.Level) error {
	if err := checkThresholds(high, low); err != nil {
		return err
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.high, q.low = high, low
	return nil
}

// estimator is the streaming state of one binding: its latest sampled
// level, how many samples it has had, and the accounting core, whose
// Status is the reference interpreter's output.
type estimator struct {
	level   core.Level
	samples int
	run     qos.Run
}

// Estimate is a point-in-time view of one process's online QoS metrics.
// Metrics that are not yet estimable are NaN: λ_M and P_A before any
// observation time has accrued, the mean durations before their first
// sample. The NaN convention flows straight into the Prometheus
// exposition, which renders NaN verbatim.
type Estimate struct {
	ID string
	// Level is the most recently observed suspicion level.
	Level core.Level
	// Status is the reference interpreter's current output.
	Status core.Status
	// Observed is the accuracy window accumulated so far (observation
	// time, capped at the crash mark if any).
	Observed time.Duration
	// Samples counts level observations.
	Samples int
	// STransitions and TTransitions count reference transitions inside
	// the accuracy window.
	STransitions, TTransitions int
	// LambdaM is the estimated mistake rate in S-transitions per second.
	LambdaM float64
	// PA is the estimated query accuracy probability.
	PA float64
	// TMR, TM and TG are the mean mistake recurrence, mistake duration
	// and good period in seconds.
	TMR, TM, TG float64
}

// LevelSource is the registry a QoS serves — implemented by
// service.Monitor.
type LevelSource interface {
	Now() time.Time
	// EachSeries calls fn with every binding's series and its suspicion
	// level at now.
	EachSeries(now time.Time, fn func(s *ProcSeries, lvl core.Level))
	// SeriesOf returns the series of id's current binding, or nil when
	// id is not registered.
	SeriesOf(id string) *ProcSeries
}

// Attach binds q to the registry it serves: Estimate, MarkCrashed and
// AggregateEstimates resolve through it. service.WithTelemetry and
// service.NewRunner attach the monitor, and Sample attaches its source.
// Feeding one QoS from a second registry is a programming error and
// panics. Conversely a registry feeds one QoS: its bindings' estimators
// are guarded by that QoS's lock.
func (q *QoS) Attach(src LevelSource) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.attachLocked(src)
}

func (q *QoS) attachLocked(src LevelSource) {
	switch q.src {
	case nil:
		q.src = src
	case src:
	default:
		panic("telemetry: one QoS fed by two registries")
	}
}

// Sample observes every process of src once, at src's current clock
// reading: one polling round of the online estimators, for callers that
// drive them alone. The daemon's combined round (service.Runner) feeds
// them through BeginRound and ObserveSeries instead.
func (q *QoS) Sample(src LevelSource) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.attachLocked(src)
	now := src.Now()
	src.EachSeries(now, func(s *ProcSeries, lvl core.Level) {
		q.ObserveSeries(s, lvl, now)
	})
}

// BeginRound takes the estimator lock for one sampling round driven by
// an external registry walk (service.Runner): the walk feeds each
// process through ObserveSeries, then EndRound releases the lock.
func (q *QoS) BeginRound() { q.mu.Lock() }

// EndRound ends a round opened by BeginRound.
func (q *QoS) EndRound() { q.mu.Unlock() }

// ObserveSeries feeds one observation of the binding behind s inside a
// BeginRound/EndRound round: one Algorithm 3 step of its reference
// interpreter, folded into its accounting core. The binding's first
// observation allocates its estimator; every later one allocates
// nothing. Observations of one binding come in non-decreasing time
// order.
func (q *QoS) ObserveSeries(s *ProcSeries, lvl core.Level, now time.Time) {
	e := s.est
	if e == nil {
		e = &estimator{run: qos.NewRun(now, core.Trusted)}
		s.est = e
	}
	e.level = lvl
	e.samples++
	e.run.Step(now, transform.HysteresisStep(e.run.Status, lvl, q.high, q.low), nil)
}

// resolve finds the estimator of id's current binding through the
// registry q serves; nil when q serves none, id is not registered or
// its binding has not been observed. Caller holds q.mu (the round's
// lock order: the QoS lock, then a shard read lock).
func (q *QoS) resolve(id string) *estimator {
	if q.src == nil {
		return nil
	}
	if s := q.src.SeriesOf(id); s != nil {
		return s.est
	}
	return nil
}

// MarkCrashed records that the process actually crashed at the given
// instant: accuracy accounting stops there, and the eventual
// deregistration turns the reference interpreter's final S-transition
// into a detection-time sample. It reports whether the process's
// current binding has been observed.
func (q *QoS) MarkCrashed(id string, at time.Time) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	e := q.resolve(id)
	if e == nil {
		return false
	}
	if e.run.CrashAt.IsZero() || at.Before(e.run.CrashAt) {
		e.run.CrashAt = at
	}
	return true
}

// Forget finalises and releases the estimator of a deregistered binding
// (service.Monitor.Deregister). If the process was marked crashed and the
// reference interpreter suspects it, the crash counts as detected and
// T_D — from the crash mark to the final S-transition, zero when it was
// already suspected at the crash — becomes a detection-time sample.
func (q *QoS) Forget(s *ProcSeries, now time.Time) {
	q.mu.Lock()
	defer q.mu.Unlock()
	e := s.est
	if e == nil {
		return
	}
	s.est = nil
	// A step at the deregistration instant applies the T_D rule to the
	// crash mark as it stands now.
	e.run.Step(now, e.run.Status, nil)
	if !e.run.Detected {
		return
	}
	q.detCount++
	q.detSum += e.run.TD
	if e.run.TD > q.detMax {
		q.detMax = e.run.TD
	}
}

// DetectionStats summarises the detection-time samples recorded so far.
func (q *QoS) DetectionStats() (count int, mean, max time.Duration) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.detCount > 0 {
		mean = q.detSum / time.Duration(q.detCount)
	}
	return q.detCount, mean, q.detMax
}

// Estimate returns the current estimate for one process.
func (q *QoS) Estimate(id string) (Estimate, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	e := q.resolve(id)
	if e == nil {
		return Estimate{}, false
	}
	est := Estimate{
		ID:           id,
		Level:        e.level,
		Status:       e.run.Status,
		Observed:     e.run.Observed(),
		Samples:      e.samples,
		STransitions: e.run.STransitions,
		TTransitions: e.run.TTransitions,
	}
	est.LambdaM, est.PA, est.TMR, est.TM, est.TG = e.run.Metrics()
	return est, true
}

// ProcSeries is what one monitored-process binding keeps for the
// telemetry layer: the `{proc="…"} ` label block rendered (and escaped)
// once, so a scrape never re-renders it, and the binding's QoS
// estimator. The registry creates one per binding and calls Init before
// sharing it; it dies with the binding.
type ProcSeries struct {
	labels string
	// est is the binding's estimator, nil until its first observation
	// and again once Forget has finalised it. Guarded by the mutex of
	// the QoS that feeds the registry.
	est *estimator
}

// Init renders id's label block into p, once, before the binding is
// published to readers.
func (p *ProcSeries) Init(id string) {
	p.labels = RenderLabels(Label{Name: "proc", Value: id})
}

// Labels returns the pre-rendered label block, for
// MetricWriter.SampleRendered.
func (p *ProcSeries) Labels() string { return p.labels }

// PrefetchLabels asks the CPU to start loading the label block's bytes,
// for a walk that copies them a few rows later. The block is immutable
// once Init has run, so any reader of the binding may call it.
func (p *ProcSeries) PrefetchLabels() {
	if len(p.labels) == 0 {
		return
	}
	b := unsafe.Pointer(unsafe.StringData(p.labels))
	prefetch.Line(b) // a short block may still straddle two lines
	prefetch.Line(unsafe.Add(b, len(p.labels)-1))
}

// ProcRow stages one process for the per-process exposition section: a
// registry walk fills ID, Series and Level, GatherEstimates fills the
// five accuracy estimates, and the renderer reads all of it with no
// lock held.
type ProcRow struct {
	ID     string
	Series *ProcSeries
	Level  core.Level
	// NaN where Estimate would report not-yet-estimable, and all NaN for
	// a process the estimators have not observed at all — so every
	// monitored process appears in the scrape with a stable set of series
	// from the moment it registers.
	LambdaM, PA, TMR, TM, TG float64
}

// GatherEstimates fills the accuracy estimates of every row — the values
// Estimate(row.ID) would return — under a single hold of the estimator
// lock, reading each estimator off the row's series. The lock is
// released before it returns: a scrape gathers a shard, then renders it
// to the client.
func (q *QoS) GatherEstimates(rows []ProcRow) {
	q.mu.Lock()
	for i := range rows {
		// Rows are in id order, so their estimators are scattered: start
		// row i+estimateLookahead's lines now, reading est under the lock.
		if j := i + estimateLookahead; j < len(rows) {
			if e := rows[j].Series.est; e != nil {
				prefetchEstimator(e)
			}
		}
		r := &rows[i]
		if e := r.Series.est; e != nil {
			r.LambdaM, r.PA, r.TMR, r.TM, r.TG = e.run.Metrics()
			continue
		}
		nan := math.NaN()
		r.LambdaM, r.PA, r.TMR, r.TM, r.TG = nan, nan, nan, nan, nan
	}
	q.mu.Unlock()
}

// estimateLookahead is how many rows ahead GatherEstimates prefetches.
const estimateLookahead = 8

// prefetchEstimator prefetches the lines holding e's first 193 bytes,
// which hold every field Run.Metrics reads: an estimator is 240 bytes
// and not line-aligned, so those fields span up to four lines.
func prefetchEstimator(e *estimator) {
	p := unsafe.Pointer(e)
	prefetch.Head(p)
	prefetch.Line(unsafe.Add(p, 192))
}

// Aggregate is a fleet-level rollup of the per-process estimates, cheap
// enough for the autotuner to take every controller round.
type Aggregate struct {
	// Procs is the number of processes with estimator state; Estimable
	// is how many of them have accrued observation time.
	Procs, Estimable int
	// Suspected counts processes the reference interpreter currently
	// suspects.
	Suspected int
	// MeanLambdaM and MeanPA average the estimable processes' mistake
	// rate and query accuracy (NaN when nothing is estimable yet).
	MeanLambdaM, MeanPA float64
	// MeanTM averages the mean mistake durations of processes that have
	// completed at least one mistake (NaN when none has).
	MeanTM float64
}

// AggregateEstimates folds every process's current estimate into one
// fleet-level Aggregate: one walk of the registry q serves, under the
// estimator lock. It allocates nothing.
func (q *QoS) AggregateEstimates() Aggregate {
	q.mu.Lock()
	defer q.mu.Unlock()
	f := &q.fold
	*f = aggFold{}
	if q.src != nil {
		q.src.EachSeries(q.src.Now(), q.foldFn)
	}
	agg := f.agg
	agg.MeanLambdaM, agg.MeanPA, agg.MeanTM = math.NaN(), math.NaN(), math.NaN()
	if agg.Estimable > 0 {
		agg.MeanLambdaM = f.sumLambda / float64(agg.Estimable)
		agg.MeanPA = f.sumPA / float64(agg.Estimable)
	}
	if f.nTM > 0 {
		agg.MeanTM = f.sumTM / float64(f.nTM)
	}
	return agg
}

// aggFold is AggregateEstimates' running sums over the registry walk.
type aggFold struct {
	agg                     Aggregate
	sumLambda, sumPA, sumTM float64
	nTM                     int
}

func (f *aggFold) add(s *ProcSeries, _ core.Level) {
	e := s.est
	if e == nil {
		return
	}
	f.agg.Procs++
	if e.run.Status == core.Suspected {
		f.agg.Suspected++
	}
	lambdaM, pa, _, tm, _ := e.run.Metrics()
	if !math.IsNaN(lambdaM) {
		f.agg.Estimable++
		f.sumLambda += lambdaM
		f.sumPA += pa
	}
	if !math.IsNaN(tm) {
		f.sumTM += tm
		f.nTM++
	}
}
