// Package qos computes the quality-of-service metrics of Chen, Toueg and
// Aguilera for binary failure detector outputs, as summarised in §2 of the
// accrual failure detectors paper:
//
//   - detection time T_D (completeness; runs where the process crashes),
//   - mistake recurrence time T_MR, mistake duration T_M, good period
//     duration T_G, average mistake rate λ_M, and query accuracy
//     probability P_A (accuracy; defined while the process is alive).
//
// The input is a transition trace — the S- and T-transitions of one
// binary detector monitoring one process over an observation window —
// plus the crash time, if any. The package is what turns raw simulation
// traces into the rows of the experiment tables (internal/experiments).
package qos

import (
	"errors"
	"fmt"
	"math"
	"time"

	"accrual/internal/core"
)

// Input describes one observed run of a binary failure detector.
type Input struct {
	// Transitions are the output transitions in chronological order.
	// They must alternate (an S-transition only from trusted, a
	// T-transition only from suspected) starting from InitialStatus.
	Transitions []core.Transition
	// Start and End delimit the observation window.
	Start, End time.Time
	// InitialStatus is the detector output at Start. The zero value
	// defaults to Trusted.
	InitialStatus core.Status
	// CrashAt is the instant the monitored process crashed; the zero
	// time means the process is correct throughout the window.
	CrashAt time.Time
}

// Report carries the metrics of one run.
type Report struct {
	// Detected reports whether the crash was permanently detected within
	// the window (final status suspected with no later T-transition).
	// Always false for correct processes.
	Detected bool
	// TD is the detection time: from the crash to the final S-transition
	// (zero if the process was already suspected at crash time and never
	// trusted again). Meaningful only when Detected.
	TD time.Duration

	// STransitions and TTransitions count transitions inside the
	// accuracy window (up to the crash, or the whole window for correct
	// processes).
	STransitions, TTransitions int
	// MistakeDurations are the T_M samples: from each S-transition to
	// the following T-transition, within the accuracy window.
	MistakeDurations []time.Duration
	// MistakeRecurrences are the T_MR samples: between consecutive
	// S-transitions.
	MistakeRecurrences []time.Duration
	// GoodPeriods are the T_G samples: from each T-transition to the
	// next S-transition.
	GoodPeriods []time.Duration
	// LambdaM is the average mistake rate: S-transitions per second of
	// accuracy window.
	LambdaM float64
	// PA is the query accuracy probability: the fraction of the accuracy
	// window during which the output was "trusted" (the correct answer
	// while the process is alive).
	PA float64
	// AccuracyWindow is the duration over which the accuracy metrics
	// were computed.
	AccuracyWindow time.Duration
}

// MeanMistakeDuration returns the mean of the T_M samples, or 0 when
// there are none.
func (r Report) MeanMistakeDuration() time.Duration { return meanDur(r.MistakeDurations) }

// MeanMistakeRecurrence returns the mean of the T_MR samples, or 0.
func (r Report) MeanMistakeRecurrence() time.Duration { return meanDur(r.MistakeRecurrences) }

// MeanGoodPeriod returns the mean of the T_G samples, or 0.
func (r Report) MeanGoodPeriod() time.Duration { return meanDur(r.GoodPeriods) }

func meanDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// ErrInvalidInput is wrapped by every validation error from Evaluate.
var ErrInvalidInput = errors.New("qos: invalid input")

// Evaluate computes the QoS metrics for one run.
func Evaluate(in Input) (Report, error) {
	if in.End.Before(in.Start) {
		return Report{}, fmt.Errorf("%w: end %v before start %v", ErrInvalidInput, in.End, in.Start)
	}
	status := in.InitialStatus
	if status == 0 {
		status = core.Trusted
	}
	if !status.Valid() {
		return Report{}, fmt.Errorf("%w: initial status %v", ErrInvalidInput, in.InitialStatus)
	}
	// Validate the alternation and ordering of the trace.
	prevAt := in.Start
	st := status
	for i, tr := range in.Transitions {
		if tr.At.Before(prevAt) {
			return Report{}, fmt.Errorf("%w: transition %d at %v out of order", ErrInvalidInput, i, tr.At)
		}
		switch tr.Kind {
		case core.STransition:
			if st != core.Trusted {
				return Report{}, fmt.Errorf("%w: S-transition %d while already suspected", ErrInvalidInput, i)
			}
			st = core.Suspected
		case core.TTransition:
			if st != core.Suspected {
				return Report{}, fmt.Errorf("%w: T-transition %d while already trusted", ErrInvalidInput, i)
			}
			st = core.Trusted
		default:
			return Report{}, fmt.Errorf("%w: transition %d has kind %v", ErrInvalidInput, i, tr.Kind)
		}
		prevAt = tr.At
	}

	// Transitions after End lie outside the observation window; the last
	// step closes it.
	run := NewRun(in.Start, status)
	run.CrashAt = in.CrashAt
	var rep Report
	for _, tr := range in.Transitions {
		if tr.At.After(in.End) {
			break
		}
		run.Step(tr.At, flip(run.Status, tr.Kind), &rep)
	}
	run.Step(in.End, run.Status, &rep)

	rep.Detected, rep.TD = run.Detected, run.TD
	rep.STransitions, rep.TTransitions = run.STransitions, run.TTransitions
	rep.AccuracyWindow = run.Observed()
	if rep.AccuracyWindow > 0 {
		rep.LambdaM, rep.PA, _, _, _ = run.Metrics()
	}
	return rep, nil
}

// Run is the accounting core every QoS estimate in the repository folds
// through: one binary detector's output over one process, advanced a
// step at a time. Evaluate folds a recorded trace through it, the live
// estimators (telemetry.QoS) each sampled Algorithm 3 query.
type Run struct {
	// Start is the first instant of the observation window.
	Start time.Time
	// CrashAt is the crash instant, zero while the process is presumed
	// correct. The accuracy window ends there.
	CrashAt time.Time
	// Status is the detector output as of the latest step.
	Status core.Status

	// STransitions and TTransitions count transitions inside the
	// accuracy window.
	STransitions, TTransitions int
	// Detected and TD are the completeness outcome as of the latest
	// step; see Report.
	Detected bool
	TD       time.Duration

	accEnd  time.Time     // end of the accuracy window accounted so far
	trusted time.Duration // time trusted within [Start, accEnd]

	sumTMR, sumTM, sumTG time.Duration
	nTMR, nTM, nTG       int

	lastS, lastT time.Time
	haveS, haveT bool
}

// NewRun returns a run observed from start with the given initial output.
func NewRun(start time.Time, status core.Status) Run {
	return Run{Start: start, Status: status, accEnd: start}
}

// Step advances the run to at, where the output is next; steps come in
// time order. It holds all of the §2 arithmetic:
//
//   - the span since the previous step counts as trusted time if the
//     output was trusted, clipped to the accuracy window, which ends at
//     CrashAt (never before Start);
//   - a change of output is an S- or T-transition at at, counted only
//     inside the accuracy window, where an S-transition closes a T_MR
//     and a T_G sample and a T-transition a T_M sample; a non-nil
//     samples collects them;
//   - a crash-marked process is detected while suspected, with T_D from
//     the crash to the final S-transition, 0 if it was already suspected
//     at the crash.
func (r *Run) Step(at time.Time, next core.Status, samples *Report) {
	end := at
	if !r.CrashAt.IsZero() && r.CrashAt.Before(end) {
		end = r.CrashAt
	}
	if end.After(r.accEnd) {
		if r.Status == core.Trusted {
			r.trusted += end.Sub(r.accEnd)
		}
		r.accEnd = end
	}

	if next != r.Status {
		inWindow := !at.After(r.accEnd)
		switch next {
		case core.Suspected:
			if inWindow {
				r.STransitions++
				if r.haveS {
					d := at.Sub(r.lastS)
					r.sumTMR += d
					r.nTMR++
					if samples != nil {
						samples.MistakeRecurrences = append(samples.MistakeRecurrences, d)
					}
				}
				if r.haveT {
					d := at.Sub(r.lastT)
					r.sumTG += d
					r.nTG++
					if samples != nil {
						samples.GoodPeriods = append(samples.GoodPeriods, d)
					}
				}
			}
			r.lastS, r.haveS = at, true
		case core.Trusted:
			if inWindow {
				r.TTransitions++
				if r.haveS {
					d := at.Sub(r.lastS)
					r.sumTM += d
					r.nTM++
					if samples != nil {
						samples.MistakeDurations = append(samples.MistakeDurations, d)
					}
				}
			}
			r.lastT, r.haveT = at, true
		}
		r.Status = next
	}

	r.Detected = !r.CrashAt.IsZero() && r.Status == core.Suspected
	r.TD = 0
	if r.Detected && r.haveS && r.lastS.After(r.CrashAt) {
		r.TD = r.lastS.Sub(r.CrashAt)
	}
}

// Observed is the accuracy window accounted so far.
func (r *Run) Observed() time.Duration { return r.accEnd.Sub(r.Start) }

// Metrics derives λ_M (S-transitions per second), P_A and the mean T_MR,
// T_M and T_G (seconds) of the run so far, each NaN until estimable:
// λ_M and P_A before any accuracy window accrues, a mean before its
// first sample.
func (r *Run) Metrics() (lambdaM, pa, tmr, tm, tg float64) {
	lambdaM, pa, tmr, tm, tg = math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN()
	if observed := r.Observed(); observed > 0 {
		lambdaM = float64(r.STransitions) / observed.Seconds()
		pa = float64(r.trusted) / float64(observed)
	}
	if r.nTMR > 0 {
		tmr = (r.sumTMR / time.Duration(r.nTMR)).Seconds()
	}
	if r.nTM > 0 {
		tm = (r.sumTM / time.Duration(r.nTM)).Seconds()
	}
	if r.nTG > 0 {
		tg = (r.sumTG / time.Duration(r.nTG)).Seconds()
	}
	return lambdaM, pa, tmr, tm, tg
}

func flip(s core.Status, k core.TransitionKind) core.Status {
	if k == core.STransition {
		return core.Suspected
	}
	return core.Trusted
}

// Aggregate summarises the reports of repeated runs of the same
// configuration.
type Aggregate struct {
	Runs         int
	DetectedRuns int
	MeanTD       time.Duration
	MaxTD        time.Duration
	MeanLambdaM  float64
	MeanPA       float64
	MeanTM       time.Duration
	MeanTMR      time.Duration
	MeanTG       time.Duration
	STransitions int
	TTransitions int
}

// Combine aggregates run reports. Detection statistics average over the
// runs that detected the crash; accuracy statistics average over all
// runs.
func Combine(reports []Report) Aggregate {
	var agg Aggregate
	agg.Runs = len(reports)
	if agg.Runs == 0 {
		return agg
	}
	var (
		sumTD                time.Duration
		sumLam, sumPA        float64
		sumTM, sumTMR, sumTG time.Duration
		nTM, nTMR, nTG       int
	)
	for _, r := range reports {
		if r.Detected {
			agg.DetectedRuns++
			sumTD += r.TD
			if r.TD > agg.MaxTD {
				agg.MaxTD = r.TD
			}
		}
		sumLam += r.LambdaM
		sumPA += r.PA
		agg.STransitions += r.STransitions
		agg.TTransitions += r.TTransitions
		for _, d := range r.MistakeDurations {
			sumTM += d
			nTM++
		}
		for _, d := range r.MistakeRecurrences {
			sumTMR += d
			nTMR++
		}
		for _, d := range r.GoodPeriods {
			sumTG += d
			nTG++
		}
	}
	if agg.DetectedRuns > 0 {
		agg.MeanTD = sumTD / time.Duration(agg.DetectedRuns)
	}
	agg.MeanLambdaM = sumLam / float64(agg.Runs)
	agg.MeanPA = sumPA / float64(agg.Runs)
	if nTM > 0 {
		agg.MeanTM = sumTM / time.Duration(nTM)
	}
	if nTMR > 0 {
		agg.MeanTMR = sumTMR / time.Duration(nTMR)
	}
	if nTG > 0 {
		agg.MeanTG = sumTG / time.Duration(nTG)
	}
	return agg
}

// WindowPoint is one sample of the windowed QoS series.
type WindowPoint struct {
	// At is the window's end time.
	At time.Time
	// PA is the query accuracy probability within the window.
	PA float64
	// LambdaM is the mistake rate within the window (S-transitions per
	// second).
	LambdaM float64
	// STransitions counts S-transitions within the window.
	STransitions int
}

// Series evaluates the accuracy metrics over a sliding window, producing
// a time series: how the detector's mistake rate and accuracy evolve
// along the run. This is the lens for non-stationary scenarios — e.g.
// watching λ_M collapse once the network passes its global stabilisation
// time. The input follows the same rules as Evaluate; window and step
// must be positive.
func Series(in Input, window, step time.Duration) ([]WindowPoint, error) {
	if window <= 0 || step <= 0 {
		return nil, fmt.Errorf("%w: non-positive window or step", ErrInvalidInput)
	}
	// Validate once over the whole trace.
	if _, err := Evaluate(in); err != nil {
		return nil, err
	}
	var out []WindowPoint
	for end := in.Start.Add(window); !end.After(in.End); end = end.Add(step) {
		start := end.Add(-window)
		// Status at the window start: fold transitions before it.
		status := in.InitialStatus
		if status == 0 {
			status = core.Trusted
		}
		var wTrs []core.Transition
		for _, tr := range in.Transitions {
			switch {
			case tr.At.Before(start):
				status = flip(status, tr.Kind)
			case !tr.At.After(end):
				wTrs = append(wTrs, tr)
			}
		}
		rep, err := Evaluate(Input{
			Transitions:   wTrs,
			Start:         start,
			End:           end,
			InitialStatus: status,
			CrashAt:       in.CrashAt,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, WindowPoint{
			At:           end,
			PA:           rep.PA,
			LambdaM:      rep.LambdaM,
			STransitions: rep.STransitions,
		})
	}
	return out, nil
}
