package experiments

import (
	"fmt"
	"time"

	"accrual/internal/core"
	"accrual/internal/phi"
	"accrual/internal/sim"
	"accrual/internal/stats"
)

// Shared workload parameters: a 100ms heartbeat with ~10ms send jitter
// over a channel with normally distributed delay (10ms ± 5ms). These are
// LAN-like numbers of the kind the companion φ/κ experiments used.
const (
	hbInterval = 100 * time.Millisecond
	queryEvery = 20 * time.Millisecond
)

func lanDelay() sim.DelayModel {
	return sim.RandomDelay{Dist: stats.Normal{Mu: 0.010, Sigma: 0.005}, Min: time.Millisecond}
}

func lanJitter() stats.Sampler { return stats.Normal{Mu: 0, Sigma: 0.010} }

func phiFactory() func(start time.Time) core.Detector {
	return func(start time.Time) core.Detector {
		return phi.New(start, phi.WithBootstrap(hbInterval, hbInterval/4))
	}
}

// AccuracyWorkload is a long correct run for the accuracy metrics: the
// shared LAN parameters above over ten minutes. fdbench's sweeps start
// from it and vary one knob at a time.
func AccuracyWorkload() PairWorkload {
	return PairWorkload{
		Interval:   hbInterval,
		Jitter:     lanJitter(),
		Delay:      lanDelay(),
		Horizon:    10 * time.Minute,
		QueryEvery: queryEvery,
	}
}

// CrashWorkload crashes the monitored process mid-run for the detection
// metric.
func CrashWorkload() PairWorkload {
	w := AccuracyWorkload()
	w.CrashAfter = 60 * time.Second
	w.Horizon = 90 * time.Second
	return w
}

var e1Thresholds = []core.Level{0.5, 1, 2, 3, 5, 8, 12, 16}

// E1 reproduces Theorem 1 and Corollaries 2–3 (§4.4): sweeping the
// threshold Φ of the single-threshold interpreter D_T over a φ detector
// trades detection time against accuracy, and both orderings are exact on
// every run: T_D is non-decreasing and P_A non-decreasing in Φ.
func E1(seed uint64) *Table {
	t := &Table{
		ID:      "E1",
		Title:   "threshold sweep over φ: detection time vs accuracy",
		Anchor:  "Theorem 1, Corollaries 2–3 (§4.4)",
		Columns: []string{"phi-threshold", "T_D (ms)", "detected", "P_A", "lambda_M (1/min)", "S-transitions"},
	}
	const runs = 3
	type row struct {
		td       []float64
		detected int
		pa       []float64
		lam      []float64
		strans   int
	}
	rows := make([]row, len(e1Thresholds))
	tdMonotone, paMonotone := true, true
	for r := 0; r < runs; r++ {
		s := seed + uint64(r)*1000
		crash := RunPair(s, phiFactory(), CrashWorkload())
		acc := RunPair(s+500, phiFactory(), AccuracyWorkload())
		var prevTD time.Duration
		var prevPA float64
		for i, th := range e1Thresholds {
			td, ok := crash.detectionTime(th)
			rep := acc.Evaluate(ApplyThreshold(acc.History, th))
			if ok {
				rows[i].detected++
				rows[i].td = append(rows[i].td, float64(td.Milliseconds()))
			}
			rows[i].pa = append(rows[i].pa, rep.PA)
			rows[i].lam = append(rows[i].lam, rep.LambdaM*60)
			rows[i].strans += rep.STransitions
			if i > 0 {
				if ok && td < prevTD {
					tdMonotone = false
				}
				if rep.PA < prevPA-1e-12 {
					paMonotone = false
				}
			}
			if ok {
				prevTD = td
			}
			prevPA = rep.PA
		}
	}
	for i, th := range e1Thresholds {
		t.AddRow(
			fmt.Sprintf("%.1f", float64(th)),
			fmt.Sprintf("%.0f", stats.Mean(rows[i].td)),
			fmt.Sprintf("%d/%d", rows[i].detected, runs),
			fmt.Sprintf("%.6f", stats.Mean(rows[i].pa)),
			fmt.Sprintf("%.3f", stats.Mean(rows[i].lam)),
			fmt.Sprintf("%d", rows[i].strans),
		)
	}
	t.AddNote("workload: heartbeat %v, jitter σ=10ms, delay N(10ms,5ms); crash at 60s (crash runs), %v accuracy runs; %d seeds",
		hbInterval, AccuracyWorkload().Horizon, runs)
	t.AddCheck("Cor2-TD-monotone", tdMonotone,
		"T_D non-decreasing in the threshold on every run")
	t.AddCheck("Cor3-PA-monotone", paMonotone,
		"P_A non-decreasing in the threshold on every run")
	// The sweep must actually span the tradeoff: the lowest threshold
	// makes some mistakes, the highest nearly none.
	lowLam := stats.Mean(rows[0].lam)
	highLam := stats.Mean(rows[len(rows)-1].lam)
	t.AddCheck("tradeoff-spanned", lowLam > highLam,
		"aggressive λ_M=%.3f/min > conservative λ_M=%.3f/min", lowLam, highLam)
	return t
}

// E2 reproduces Theorem 4 and Corollaries 5–6 (§4.4): with the
// two-threshold interpreters D'_T sharing a low threshold T0, the number
// of mistakes (λ_M) is non-increasing in the high threshold on every run,
// and the mistake recurrence and good-period durations order accordingly.
func E2(seed uint64) *Table {
	t := &Table{
		ID:      "E2",
		Title:   "two-threshold interpreters D'_T with shared T0",
		Anchor:  "Theorem 4, Corollaries 5–6 (§4.4)",
		Columns: []string{"high threshold", "lambda_M (1/min)", "T_MR mean (s)", "T_G mean (s)", "T_M mean (ms)", "S-transitions"},
	}
	const (
		t0   = core.Level(0.25)
		runs = 3
	)
	thresholds := []core.Level{0.5, 1, 2, 3, 5, 8}

	lamMonotone := true
	type agg struct {
		lamSum         float64
		tmrSum, tgSum  float64
		tmSum          float64
		nTMR, nTG, nTM int
		strans         int
	}
	rowsAgg := make([]agg, len(thresholds))
	for r := 0; r < runs; r++ {
		acc := RunPair(seed+uint64(r)*1000, phiFactory(), AccuracyWorkload())
		prevS := -1
		for i, th := range thresholds {
			rep := acc.Evaluate(ApplyHysteresis(acc.History, th, t0))
			a := &rowsAgg[i]
			a.lamSum += rep.LambdaM * 60
			a.strans += rep.STransitions
			for _, d := range rep.MistakeRecurrences {
				a.tmrSum += d.Seconds()
				a.nTMR++
			}
			for _, d := range rep.GoodPeriods {
				a.tgSum += d.Seconds()
				a.nTG++
			}
			for _, d := range rep.MistakeDurations {
				a.tmSum += d.Seconds() * 1000
				a.nTM++
			}
			// The λ_M ordering is exact on every run (Theorems 1 and 4).
			if prevS >= 0 && rep.STransitions > prevS {
				lamMonotone = false
			}
			prevS = rep.STransitions
		}
	}
	type rowVals struct{ lam, tmr, tg, tm float64 }
	vals := make([]rowVals, len(thresholds))
	for i, th := range thresholds {
		a := rowsAgg[i]
		v := rowVals{lam: a.lamSum / runs}
		if a.nTMR > 0 {
			v.tmr = a.tmrSum / float64(a.nTMR)
		}
		if a.nTG > 0 {
			v.tg = a.tgSum / float64(a.nTG)
		}
		if a.nTM > 0 {
			v.tm = a.tmSum / float64(a.nTM)
		}
		vals[i] = v
		t.AddRow(
			fmt.Sprintf("%.1f", float64(th)),
			fmt.Sprintf("%.3f", v.lam),
			fmt.Sprintf("%.2f", v.tmr),
			fmt.Sprintf("%.2f", v.tg),
			fmt.Sprintf("%.1f", v.tm),
			fmt.Sprintf("%d", a.strans),
		)
	}
	t.AddNote("T0 = %.2f shared by all interpreters; %d × %v runs pooled, heartbeat %v", float64(t0), runs, AccuracyWorkload().Horizon, hbInterval)
	t.AddCheck("Cor5-lambdaM-monotone", lamMonotone,
		"S-transition count non-increasing in the high threshold (exact per-run consequence of Theorems 1 and 4)")
	// Directional checks for the duration metrics: the corollaries order
	// the distributions, so the pooled sample means are compared, skipping
	// rows whose samples are too few to mean anything.
	tmrOrdered, tgOrdered := true, true
	var prev rowVals
	first := true
	for i := range thresholds {
		if rowsAgg[i].nTMR < 2 {
			continue
		}
		if !first {
			if vals[i].tmr < prev.tmr-1e-9 {
				tmrOrdered = false
			}
			if vals[i].tg < prev.tg-1e-9 {
				tgOrdered = false
			}
		}
		prev, first = vals[i], false
	}
	t.AddCheck("Cor5-TMR-ordered", tmrOrdered, "pooled mean T_MR non-decreasing in the threshold (rows with ≥2 samples)")
	t.AddCheck("Cor6-TG-ordered", tgOrdered, "pooled mean T_G non-decreasing in the threshold (rows with ≥2 samples)")
	return t
}
