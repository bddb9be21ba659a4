package experiments

import (
	"fmt"
	"math"
	"time"

	"accrual/internal/core"
	"accrual/internal/phi"
	"accrual/internal/sim"
	"accrual/internal/stats"
)

// regime is one network condition of the §5.4 comparison.
type regime struct {
	name   string
	delay  func() sim.DelayModel
	loss   func() sim.LossModel
	jitter func() stats.Sampler
}

func e6Regimes() []regime {
	return []regime{
		{
			name: "stable",
			delay: func() sim.DelayModel {
				return sim.RandomDelay{Dist: stats.Normal{Mu: 0.010, Sigma: 0.002}, Min: time.Millisecond}
			},
			loss:   func() sim.LossModel { return sim.NoLoss{} },
			jitter: func() stats.Sampler { return stats.Normal{Mu: 0, Sigma: 0.005} },
		},
		{
			name: "high-variance",
			delay: func() sim.DelayModel {
				return sim.RandomDelay{Dist: stats.Normal{Mu: 0.040, Sigma: 0.030}, Min: time.Millisecond}
			},
			loss:   func() sim.LossModel { return sim.NoLoss{} },
			jitter: func() stats.Sampler { return stats.Normal{Mu: 0, Sigma: 0.020} },
		},
		{
			name: "bursty-loss",
			delay: func() sim.DelayModel {
				return sim.RandomDelay{Dist: stats.Normal{Mu: 0.010, Sigma: 0.005}, Min: time.Millisecond}
			},
			loss: func() sim.LossModel {
				return &sim.GilbertElliott{PGoodToBad: 0.02, PBadToGood: 0.25, LossGood: 0, LossBad: 1}
			},
			jitter: func() stats.Sampler { return stats.Normal{Mu: 0, Sigma: 0.005} },
		},
	}
}

// thresholdGrid returns the per-detector threshold candidates used to
// match detection times (the detectors' levels live on different scales:
// seconds for simple/chen, log-probability for φ, missed-heartbeat counts
// for κ).
func thresholdGrid(name string) []core.Level {
	var grid []core.Level
	switch name {
	case "phi (§5.3)":
		// φ grows quadratically in the gap under the normal model, so
		// reaching second-scale detection times on a tight LAN estimate
		// needs thresholds in the hundreds.
		for v := 0.25; v <= 4000; v *= 1.35 {
			grid = append(grid, core.Level(v))
		}
	case "kappa (§5.4)":
		for v := 0.2; v <= 40; v *= 1.25 {
			grid = append(grid, core.Level(v))
		}
	case "bertier (ext)":
		// Margin-normalised lateness: 1 is the original binary suspicion
		// point; second-scale detection needs tens of margins.
		for v := 0.5; v <= 200; v *= 1.3 {
			grid = append(grid, core.Level(v))
		}
	default: // seconds-scaled detectors
		for v := 0.05; v <= 8; v *= 1.25 {
			grid = append(grid, core.Level(v))
		}
	}
	return grid
}

// E6 reproduces the §5.4 comparison claims. Each detector's threshold is
// calibrated once, on the stable network, to a detection time of about
// one second — the way an operator would tune it — and the detectors then
// face the other regimes unchanged. The interesting quantity is how much
// the detection time inflates when heartbeats are lost in bursts: the
// estimation-based detectors pollute their distribution estimates with
// burst gaps (φ's variance estimate explodes, so the calibrated threshold
// suddenly corresponds to a multi-second gap), whereas κ merely counts
// missed heartbeats against a mean-interval estimate that barely moves.
// This is exactly the motivation §5.4 gives for the κ framework.
func E6(seed uint64) *Table {
	t := &Table{
		ID:     "E6",
		Title:  "detector comparison: stable-calibrated thresholds under stress",
		Anchor: "§5.1–§5.4 (κ claims; adaptation claims)",
		Columns: []string{"detector", "threshold", "T_D stable (ms)", "T_D variance (ms)",
			"T_D bursty (ms)", "bursty inflation", "lambda_M bursty (1/min)", "P_A bursty"},
	}
	const (
		targetTD  = time.Second
		crashRuns = 3
	)
	regimes := e6Regimes()
	stable := regimes[0]

	measureTD := func(d struct {
		name string
		mk   func(start time.Time) core.Detector
	}, reg regime, th core.Level, seedOff uint64) (float64, bool) {
		sum, cnt := 0.0, 0
		for r := 0; r < crashRuns; r++ {
			w := CrashWorkload()
			w.Delay = reg.delay()
			w.Loss = reg.loss()
			w.Jitter = reg.jitter()
			run := RunPair(seed+seedOff+uint64(r)*7919, d.mk, w)
			if td, ok := run.detectionTime(th); ok {
				sum += td.Seconds()
				cnt++
			}
		}
		if cnt == 0 {
			return 0, false
		}
		return sum / float64(cnt), true
	}

	inflation := make(map[string]float64)
	detectedEverywhere := true
	for _, d := range detectorFactories(0) {
		// Calibrate on the stable regime.
		grid := thresholdGrid(d.name)
		best, bestTD := -1, math.Inf(1)
		for i, th := range grid {
			td, ok := measureTD(d, stable, th, 0)
			if !ok {
				continue
			}
			if math.Abs(td-targetTD.Seconds()) < math.Abs(bestTD-targetTD.Seconds()) {
				best, bestTD = i, td
			}
		}
		if best < 0 {
			detectedEverywhere = false
			t.AddRow(d.name, "-", "-", "-", "-", "-", "-", "-")
			continue
		}
		th := grid[best]
		tdVar, okVar := measureTD(d, regimes[1], th, 3001)
		tdBurst, okBurst := measureTD(d, regimes[2], th, 6007)
		if !okVar || !okBurst {
			detectedEverywhere = false
		}
		infl := tdBurst / bestTD
		inflation[d.name] = infl
		// Accuracy in the bursty regime at the stable-calibrated
		// threshold.
		w := AccuracyWorkload()
		w.Delay = regimes[2].delay()
		w.Loss = regimes[2].loss()
		w.Jitter = regimes[2].jitter()
		run := RunPair(seed+104729, d.mk, w)
		rep := run.Evaluate(ApplyThreshold(run.History, th))
		t.AddRow(d.name,
			fmt.Sprintf("%.2f", float64(th)),
			fmt.Sprintf("%.0f", bestTD*1000),
			fmt.Sprintf("%.0f", tdVar*1000),
			fmt.Sprintf("%.0f", tdBurst*1000),
			fmt.Sprintf("%.2fx", infl),
			fmt.Sprintf("%.3f", rep.LambdaM*60),
			fmt.Sprintf("%.6f", rep.PA))
	}
	t.AddNote("thresholds calibrated once on the stable regime to T_D ≈ %v (%d crash runs per point); regimes: stable, high-variance delays, Gilbert–Elliott loss bursts", targetTD, crashRuns)
	t.AddNote("levels are seconds-late for simple/chen, −log10 P_later for φ, missed-heartbeat counts for κ")
	kappaInfl := inflation["kappa (§5.4)"]
	phiInfl := inflation["phi (§5.3)"]
	t.AddCheck("kappa-keeps-responsiveness-under-loss", kappaInfl > 0 && kappaInfl < phiInfl,
		"bursty T_D inflation: kappa %.2fx < phi %.2fx (κ counts misses; φ's variance estimate is polluted by burst gaps)",
		kappaInfl, phiInfl)
	t.AddCheck("kappa-inflation-small", kappaInfl < 1.5,
		"kappa's detection time moves < 1.5x under bursty loss (%.2fx)", kappaInfl)
	t.AddCheck("detected-in-every-regime", detectedEverywhere,
		"every detector still detects the crash in every regime")
	return t
}

// E8 reproduces the §5.3 calibration claim: with a threshold Φ, the
// probability of a wrong suspicion is about 10^−Φ when the network is
// probabilistically stable. A wrong suspicion happens in an inter-arrival
// exactly when φ exceeds Φ before the next heartbeat lands; since φ is
// monotone between arrivals, it suffices to evaluate φ at each arrival
// instant (probability integral transform: P(P_later(X) < p) = p when the
// model matches).
func E8(seed uint64) *Table {
	t := &Table{
		ID:      "E8",
		Title:   "φ threshold calibration: empirical wrong-suspicion rate vs 10^−Φ",
		Anchor:  "§5.3, Equation (3)",
		Columns: []string{"phi-threshold", "predicted 10^-phi", "empirical rate", "ratio emp/pred"},
	}
	const (
		n      = 200000
		warmup = 1000
	)
	rng := stats.NewRand(seed)
	intervalDist := stats.Normal{Mu: hbInterval.Seconds(), Sigma: 0.010}
	start := time.Date(2005, 3, 22, 0, 0, 0, 0, time.UTC)
	det := phi.New(start)
	thresholds := []float64{0.5, 1, 1.5, 2, 2.5, 3}
	exceed := make([]int, len(thresholds))
	at := start
	samples := 0
	for i := 1; i <= n; i++ {
		gap := intervalDist.Sample(rng)
		if gap < 0.001 {
			gap = 0.001
		}
		at = at.Add(time.Duration(gap * float64(time.Second)))
		if i > warmup {
			p := det.Phi(at) // φ the instant before this heartbeat lands
			samples++
			for j, th := range thresholds {
				if p > th {
					exceed[j]++
				}
			}
		}
		det.Report(core.Heartbeat{From: "p", Seq: uint64(i), Arrived: at})
	}
	allOK := true
	for j, th := range thresholds {
		pred := math.Pow(10, -th)
		emp := float64(exceed[j]) / float64(samples)
		ratio := emp / pred
		// Order-of-magnitude agreement is the claim ("roughly means").
		ok := ratio > 0.1 && ratio < 10
		if !ok {
			allOK = false
		}
		t.AddRow(fmt.Sprintf("%.1f", th), fmt.Sprintf("%.2e", pred),
			fmt.Sprintf("%.2e", emp), fmt.Sprintf("%.2f", ratio))
	}
	t.AddNote("%d heartbeats, intervals N(%v, 10ms), %d warmup; φ evaluated at each arrival instant", n, hbInterval, warmup)
	t.AddCheck("calibration-within-order-of-magnitude", allOK,
		"empirical wrong-suspicion rate within 10× of 10^−Φ at every threshold")
	return t
}
