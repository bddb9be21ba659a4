package experiments

import (
	"fmt"
	"time"

	"accrual/internal/adversary"
	"accrual/internal/bertier"
	"accrual/internal/chen"
	"accrual/internal/core"
	"accrual/internal/kappa"
	"accrual/internal/phi"
	"accrual/internal/simple"
	"accrual/internal/transform"
)

// detectorFactories enumerates the §5 implementations under test, with
// the given level resolution (0 keeps raw levels).
func detectorFactories(eps core.Level) []struct {
	name string
	mk   func(start time.Time) core.Detector
} {
	return []struct {
		name string
		mk   func(start time.Time) core.Detector
	}{
		{"simple (§5.1)", func(start time.Time) core.Detector {
			return simple.New(start, simple.WithResolution(eps))
		}},
		{"chen (§5.2)", func(start time.Time) core.Detector {
			return chen.New(start, hbInterval, chen.WithResolution(eps))
		}},
		{"phi (§5.3)", func(start time.Time) core.Detector {
			return phi.New(start,
				phi.WithBootstrap(hbInterval, hbInterval/4),
				phi.WithResolution(eps))
		}},
		{"kappa (§5.4)", func(start time.Time) core.Detector {
			return kappa.New(start, kappa.PLater{}, kappa.WithResolution(eps))
		}},
		{"bertier (ext)", func(start time.Time) core.Detector {
			return bertier.New(start, hbInterval, bertier.WithResolution(eps))
		}},
	}
}

// E3 reproduces Algorithm 1 and its correctness lemmas (A.1): the
// accrual→binary transformation applied to each §5 implementation yields
// strong completeness on crash runs and eventual strong accuracy on
// correct runs — without any tuned threshold.
//
// The detectors run with a quantised level (ε = 0.05), which is not an
// implementation convenience but the substance of Definition 1: the
// Lemma 8 proof bounds the number of S-transitions by ⌈SL_max/ε⌉, and
// with continuous levels new record values keep trickling in forever, so
// stabilisation within a finite window genuinely needs the finite
// resolution.
func E3(seed uint64) *Table {
	t := &Table{
		ID:      "E3",
		Title:   "Algorithm 1 (accrual→binary) over every §5 implementation",
		Anchor:  "Algorithm 1, Lemmas 7–8, Theorem 9",
		Columns: []string{"detector", "target", "transitions", "last transition (s)", "final", "stabilised"},
	}
	allOK := true
	for _, d := range detectorFactories(0.05) {
		for _, faulty := range []bool{false, true} {
			w := AccuracyWorkload()
			target := "correct"
			if faulty {
				w = CrashWorkload()
				target = "faulty"
			}
			run := RunPair(seed, d.mk, w)
			trs, final := ApplyAlgorithm1(run.History)
			lastS := "-"
			var lastAt time.Time
			if len(trs) > 0 {
				lastAt = trs[len(trs)-1].At
				lastS = fmt.Sprintf("%.1f", lastAt.Sub(run.Start).Seconds())
			}
			// Stabilised: no transition in the last 20% of the window.
			// (The margin-normalised Bertier level keeps setting small
			// record values for longer than the fixed-unit detectors, so
			// its correct-run transitions extend further into the run.)
			cutoff := run.Start.Add(time.Duration(0.8 * float64(run.End.Sub(run.Start))))
			stabilised := lastAt.Before(cutoff) || len(trs) == 0
			want := core.Trusted
			if faulty {
				want = core.Suspected
			}
			ok := stabilised && final == want
			if !ok {
				allOK = false
			}
			t.AddRow(d.name, target, fmt.Sprintf("%d", len(trs)), lastS,
				final.String(), fmt.Sprintf("%v", stabilised))
		}
	}
	t.AddNote("levels quantised to ε=0.05 (Definition 1); correct runs: %v horizon; faulty runs: crash at 60s, 90s horizon; queries every %v",
		AccuracyWorkload().Horizon, queryEvery)
	t.AddCheck("Lemma7-completeness+Lemma8-accuracy", allOK,
		"every faulty target ends permanently suspected, every correct target permanently trusted")
	return t
}

// scriptedDP is a binary detector replaying a ◇P-compatible schedule:
// arbitrary mistakes before the stabilisation index, constant verdict
// after.
type scriptedDP struct {
	pre   []core.Status
	after core.Status
	i     int
}

func (s *scriptedDP) Query(time.Time) core.Status {
	if s.i < len(s.pre) {
		st := s.pre[s.i]
		s.i++
		return st
	}
	return s.after
}

// E4 reproduces Algorithm 2 and its correctness lemmas (A.2): feeding a
// binary ◇P detector through the ε-accumulation transformation yields an
// accrual detector satisfying Accruement for faulty targets and Upper
// Bound for correct ones.
func E4(seed uint64) *Table {
	t := &Table{
		ID:      "E4",
		Title:   "Algorithm 2 (binary→accrual) over scripted ◇P histories",
		Anchor:  "Algorithm 2, Lemmas 10–11, Theorem 12",
		Columns: []string{"scenario", "queries", "max level", "property", "holds"},
	}
	_ = seed // the scripted histories are deterministic by design
	const queries = 500
	start := time.Date(2005, 3, 22, 0, 0, 0, 0, time.UTC)

	mistakes := []core.Status{
		core.Suspected, core.Trusted, core.Suspected, core.Suspected,
		core.Trusted, core.Suspected, core.Trusted,
	}
	collect := func(bin core.BinaryDetector) []core.QueryRecord {
		acc := transform.NewBinaryToAccrual(bin, 1)
		h := make([]core.QueryRecord, 0, queries)
		for i := 0; i < queries; i++ {
			at := start.Add(time.Duration(i) * time.Second)
			h = append(h, core.QueryRecord{At: at, Level: acc.Suspicion(at)})
		}
		return h
	}

	allOK := true

	// Faulty target: the ◇P history stabilises on "suspected".
	hFaulty := collect(&scriptedDP{pre: mistakes, after: core.Suspected})
	accrue := core.CheckAccruement(hFaulty, len(mistakes), 1)
	if !accrue.Holds {
		allOK = false
	}
	t.AddRow("faulty (stabilises suspected)", fmt.Sprintf("%d", queries),
		fmt.Sprintf("%.0f", float64(hFaulty[len(hFaulty)-1].Level)),
		"Accruement (Prop. 1)", fmt.Sprintf("%v", accrue.Holds))

	// Correct target: the ◇P history stabilises on "trusted".
	hCorrect := collect(&scriptedDP{pre: mistakes, after: core.Trusted})
	maxPre := core.Level(0)
	for _, rec := range hCorrect {
		if rec.Level > maxPre {
			maxPre = rec.Level
		}
	}
	bound := core.CheckUpperBound(hCorrect, maxPre)
	if !bound.Holds {
		allOK = false
	}
	t.AddRow("correct (stabilises trusted)", fmt.Sprintf("%d", queries),
		fmt.Sprintf("%.0f", float64(bound.Max)),
		"Upper Bound (Prop. 2)", fmt.Sprintf("%v", bound.Holds))

	t.AddNote("ε = 1; %d mistaken verdicts before the ◇P history stabilises", len(mistakes))
	t.AddCheck("Lemma10+Lemma11", allOK, "Accruement holds after stabilisation; level bounded by pre-stabilisation peak %v", maxPre)
	return t
}

// E5 reproduces the Appendix A.5 impossibility argument empirically: the
// adaptive adversary satisfying only Weak Accruement prevents Algorithm 1
// from ever stabilising, while a source satisfying the genuine Accruement
// property lets it stabilise on "suspected".
func E5(seed uint64) *Table {
	t := &Table{
		ID:      "E5",
		Title:   "Weak Accruement adversary vs compliant source under Algorithm 1",
		Anchor:  "Appendix A.5, Property 3 discussion (§3.3)",
		Columns: []string{"source", "queries", "transitions", "last transition at", "final"},
	}
	_ = seed // both sources are deterministic
	const n = 50000
	start := time.Date(2005, 3, 22, 0, 0, 0, 0, time.UTC)

	drive := func(next func(core.Status) core.Level) (transitions, lastIdx int, final core.Status) {
		var alg *transform.AccrualToBinary
		src := func(time.Time) core.Level { return next(alg.Status()) }
		alg = transform.NewAccrualToBinary(src)
		prev := core.Trusted
		for i := 0; i < n; i++ {
			s := alg.Query(start.Add(time.Duration(i) * time.Second))
			if s != prev {
				transitions++
				lastIdx = i
				prev = s
			}
			final = s
		}
		return transitions, lastIdx, final
	}

	advTrans, advLast, advFinal := drive(adversary.NewWeakSource(1).Next)
	compTrans, compLast, compFinal := drive(adversary.NewCompliantSource(1, 3).Next)

	t.AddRow("A.5 adversary", fmt.Sprintf("%d", n), fmt.Sprintf("%d", advTrans),
		fmt.Sprintf("query %d", advLast), advFinal.String())
	t.AddRow("compliant (Prop. 1, Q=3)", fmt.Sprintf("%d", n), fmt.Sprintf("%d", compTrans),
		fmt.Sprintf("query %d", compLast), compFinal.String())

	t.AddCheck("adversary-never-stabilises", advTrans > 50 && n-advLast <= n/10,
		"%d transitions, last at query %d of %d", advTrans, advLast, n)
	t.AddCheck("compliant-stabilises", compFinal == core.Suspected && n-compLast >= n/2,
		"final %v, last transition at query %d of %d", compFinal, compLast, n)
	return t
}

// E7 reproduces Equation (1) and the finite-resolution requirement of
// Definition 1: after a crash, every implementation's quantised level
// increases at an average rate of at least ε/2Q per query, where Q is the
// longest observed constant run.
func E7(seed uint64) *Table {
	const eps = core.Level(0.25)
	t := &Table{
		ID:      "E7",
		Title:   "post-crash accruement rate vs the ε/2Q lower bound",
		Anchor:  "Equation (1), Definition 1, §3.3",
		Columns: []string{"detector", "observed Q", "min rate (ε units/query)", "bound ε/2Q", "holds"},
	}
	allOK := true
	for _, d := range detectorFactories(eps) {
		run := RunPair(seed, d.mk, CrashWorkload())
		// Focus on the post-crash suffix: find the first query at or
		// after the crash plus one interval (stabilisation).
		k := 0
		for i, rec := range run.History {
			if rec.At.After(run.CrashAt.Add(2 * hbInterval)) {
				k = i
				break
			}
		}
		accrue := core.CheckAccruement(run.History, k, 0)
		q := accrue.Q + 1 // longest constant run observed → smallest legal Q
		rate, ok := core.MinIncreaseRate(run.History, k, q)
		bound := float64(eps) / (2 * float64(q))
		holds := accrue.Holds && ok && rate >= bound
		if !holds {
			allOK = false
		}
		t.AddRow(d.name, fmt.Sprintf("%d", q),
			fmt.Sprintf("%.5f", rate/float64(eps)),
			fmt.Sprintf("%.5f", bound/float64(eps)),
			fmt.Sprintf("%v", holds))
	}
	t.AddNote("resolution ε = %.2f; crash at 60s, queries every %v; rates normalised to ε units per query", float64(eps), queryEvery)
	t.AddCheck("Equation1-rate-bound", allOK,
		"every implementation's post-crash rate meets ε/2Q")
	return t
}
