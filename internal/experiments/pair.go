package experiments

import (
	"time"

	"accrual/internal/core"
	"accrual/internal/qos"
	"accrual/internal/sim"
	"accrual/internal/stats"
	"accrual/internal/trace"
	"accrual/internal/transform"
)

// PairWorkload describes a single monitored pair: process p emitting
// heartbeats to monitor q over a configurable channel, optionally
// crashing, with q querying the suspicion level at a fixed cadence. This
// is the workload behind every QoS experiment.
type PairWorkload struct {
	// Interval is the nominal heartbeat period.
	Interval time.Duration
	// Jitter perturbs send times (seconds), optional.
	Jitter stats.Sampler
	// Delay and Loss model the channel (nil: zero delay, no loss).
	Delay sim.DelayModel
	// Loss is consumed by a fresh network per run, so stateful loss
	// models are safe here.
	Loss sim.LossModel
	// CrashAfter is when p crashes, as an offset from the start
	// (zero: p is correct throughout).
	CrashAfter time.Duration
	// Horizon is the run length.
	Horizon time.Duration
	// QueryEvery is the suspicion-level query period.
	QueryEvery time.Duration
}

// PairRun is the recorded outcome of one pair workload: the full
// suspicion-level history at query times. Because level interpreters
// (thresholds, Algorithm 1) are pure functions of the level sequence,
// arbitrarily many interpretations can be replayed over one recording —
// which is also how the paper frames it: one monitor, many interpreters.
type PairRun struct {
	History []core.QueryRecord
	Start   time.Time
	End     time.Time
	CrashAt time.Time // zero when the process is correct
}

// RunPair executes the workload with the given detector factory under a
// fresh simulator seeded with seed.
func RunPair(seed uint64, factory func(start time.Time) core.Detector, w PairWorkload) PairRun {
	s := sim.New(seed)
	net := sim.NewNetwork(s, sim.Link{Delay: w.Delay, Loss: w.Loss})
	start := s.Now()
	det := factory(start)
	var crashAt time.Time
	if w.CrashAfter > 0 {
		crashAt = start.Add(w.CrashAfter)
	}
	end := start.Add(w.Horizon)
	em := &sim.Emitter{
		Sim: s, Net: net, From: "p", To: "q",
		Interval: w.Interval,
		Jitter:   w.Jitter,
		CrashAt:  crashAt,
		Until:    end,
		Sink:     func(hb core.Heartbeat) { det.Report(hb) },
	}
	em.Start()
	run := PairRun{Start: start, End: end, CrashAt: crashAt}
	pr := &sim.Prober{
		Sim: s, Every: w.QueryEvery, Until: end,
		Query: func(now time.Time) {
			run.History = append(run.History, core.QueryRecord{At: now, Level: det.Suspicion(now)})
		},
	}
	pr.Start()
	s.RunUntil(end)
	return run
}

// replaySource turns a recorded history into a LevelFunc that returns the
// records in order (ignoring the passed time, which interpreters only
// forward for bookkeeping).
func replaySource(h []core.QueryRecord) transform.LevelFunc {
	i := 0
	return func(time.Time) core.Level {
		r := h[i]
		i++
		return r.Level
	}
}

func observe(h []core.QueryRecord, bin core.BinaryDetector) []core.Transition {
	obs := trace.NewStatusObserver(core.Trusted)
	for _, rec := range h {
		obs.Observe(rec.At, bin.Query(rec.At))
	}
	return obs.Transitions()
}

// ApplyThreshold replays the single-threshold interpreter D_T over a
// recorded history and returns its transitions.
func ApplyThreshold(h []core.QueryRecord, threshold core.Level) []core.Transition {
	return observe(h, transform.NewConstantThreshold(replaySource(h), threshold))
}

// ApplyHysteresis replays the two-threshold interpreter D'_T.
func ApplyHysteresis(h []core.QueryRecord, high, low core.Level) []core.Transition {
	return observe(h, transform.NewHysteresis(replaySource(h), high, low))
}

// ApplyAlgorithm1 replays the adaptive accrual→binary transformation and
// additionally returns the final status.
func ApplyAlgorithm1(h []core.QueryRecord) ([]core.Transition, core.Status) {
	bin := transform.NewAccrualToBinary(replaySource(h))
	trs := observe(h, bin)
	return trs, bin.Status()
}

// Evaluate computes the QoS report of a transition trace against the
// run's window and crash time.
func (r PairRun) Evaluate(trs []core.Transition) qos.Report {
	rep, err := qos.Evaluate(qos.Input{
		Transitions: trs,
		Start:       r.Start,
		End:         r.End,
		CrashAt:     r.CrashAt,
	})
	if err != nil {
		// Transition traces produced by observe are alternating and
		// ordered by construction; an error here is a programming bug.
		panic(err)
	}
	return rep
}

// detectionTime returns the detection time of the threshold interpreter
// over this (crashing) run, and whether the crash was detected at all.
func (r PairRun) detectionTime(threshold core.Level) (time.Duration, bool) {
	rep := r.Evaluate(ApplyThreshold(r.History, threshold))
	return rep.TD, rep.Detected
}
