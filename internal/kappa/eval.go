package kappa

import (
	"time"

	"accrual/internal/core"
	"accrual/internal/stats"
)

// snapEval is the κ detector's core.EvalAux hook: it computes the
// contribution sum from published parameters. One snapEval is allocated
// per detector at construction (never per publication) and is immutable
// afterwards — the contribution function itself is configuration, fixed
// at New, so sharing it across lock-free readers is safe.
type snapEval struct {
	contrib Contribution
	// minSD is PLater's σ floor, default applied, when contrib is a
	// PLater and 0 otherwise: set once here, so ZScore needs no type
	// assertion per evaluation.
	minSD time.Duration
}

func newSnapEval(contrib Contribution) *snapEval {
	a := &snapEval{contrib: contrib}
	if p, ok := contrib.(PLater); ok {
		a.minSD = p.sigma(Estimate{})
	}
	return a
}

// EvalLevel is the κ level function. P1/P2 carry the inter-arrival
// estimate (mean and stddev, nanoseconds), Ref the last arrival.
// Heartbeats missed for longer than the contribution's saturation delay
// count as exactly 1 without being enumerated, so queries stay
// O(saturation/interval) even for long-crashed processes.
func (a *snapEval) EvalLevel(s core.EvalSnapshot, now time.Time) core.Level {
	est := Estimate{Mean: time.Duration(s.P1), StdDev: time.Duration(s.P2)}
	elapsed := time.Duration(now.UnixNano() - s.Ref)
	if elapsed <= 0 || est.Mean <= 0 {
		return 0
	}
	base := time.Unix(0, s.Ref) // expected arrival time of the last received heartbeat
	// Heartbeat j (1-based after the last received one) starts being
	// awaited at due_j = base + (j−1)·mean; it is due once due_j <= now.
	m := int64(elapsed/est.Mean) + 1
	sat := a.contrib.Saturation(est)
	var nSat int64
	if elapsed > sat {
		nSat = int64((elapsed-sat)/est.Mean) + 1
		if nSat > m {
			nSat = m
		}
	}
	sum := float64(nSat)
	for j := nSat + 1; j <= m; j++ {
		due := base.Add(time.Duration(j-1) * est.Mean)
		sum += a.contrib.Value(now.Sub(due), est)
	}
	return core.Level(sum).Quantize(s.Eps)
}

// ZScore implements core.EvalAux. While 0 < Δ < mean only the first
// missing heartbeat is due (m = 1, none saturated), so under PLater with
// ε = 0 EvalLevel is that heartbeat's contribution alone,
// Normal{μ, σ}.CDF(Δ) = Φ(z): z is computed from the same Δ, μ and
// floored σ, in seconds, that PLater.Value hands to the CDF. Every other
// case — another contribution, ε ≠ 0, Δ ≤ 0 or Δ ≥ mean (two or more
// terms) — is core.ZNone.
func (a *snapEval) ZScore(s core.EvalSnapshot, now time.Time) (float64, core.ZFamily) {
	if a.minSD == 0 || s.Eps != 0 {
		return 0, core.ZNone
	}
	est := Estimate{Mean: time.Duration(s.P1), StdDev: time.Duration(s.P2)}
	elapsed := time.Duration(now.UnixNano() - s.Ref)
	if elapsed <= 0 || elapsed >= est.Mean {
		return 0, core.ZNone
	}
	sigma := PLater{MinStdDev: a.minSD}.sigma(est)
	dist := stats.Normal{Mu: est.Mean.Seconds(), Sigma: sigma.Seconds()}
	return dist.Z(elapsed.Seconds()), core.ZNormalCDF
}

// EvalSnapshot publishes the detector's frozen interpretation
// function: between heartbeats the κ level is the contribution sum
// over the due-time grid anchored at the last arrival,
// so the inter-arrival estimate, the last arrival and the (immutable)
// contribution curve are the whole state. The curve rides along as the
// snapshot's Aux hook.
func (d *Detector) EvalSnapshot() core.EvalSnapshot {
	est, ok := d.estimate()
	if !ok || est.Mean <= 0 {
		return core.EvalSnapshot{Kind: core.EvalZero}
	}
	if d.aux == nil {
		// Detectors predating New (zero-value construction in tests)
		// lazily build the hook; New preallocates it.
		d.aux = newSnapEval(d.contrib)
	}
	return core.EvalSnapshot{
		Kind: core.EvalAuxKind,
		Ref:  d.last.UnixNano(),
		P1:   float64(est.Mean),
		P2:   float64(est.StdDev),
		Eps:  d.eps,
		Aux:  d.aux,
	}
}
