package stats

import "math"

// LogTailer is implemented by distributions that can compute the natural
// logarithm of their tail function directly. The φ detector (§5.3) needs
// ln P_later far into the upper tail, where Tail(x) underflows to zero in
// float64 but its logarithm is still perfectly representable — without
// this, the suspicion level of a crashed process would saturate instead of
// accruing, violating Property 1 in practice.
type LogTailer interface {
	// LogTail returns ln P(X > x). It is −Inf where the tail is exactly
	// zero and 0 where the tail is 1.
	LogTail(x float64) float64
}

var (
	_ LogTailer = Normal{}
	_ LogTailer = Exponential{}
	_ LogTailer = Erlang{}
)

// LogTail returns ln P(X > x) for the normal distribution. For moderate
// arguments it uses erfc directly; past the point where erfc would
// underflow it switches to the standard asymptotic expansion
//
//	ln Q(z) ≈ −z²/2 − ln(z·√(2π)) + ln(1 − 1/z² + 3/z⁴ − 15/z⁶)
//
// whose error in ln Q is below 6e-6 absolute (2e-7 relative) at the
// switch-over z = 8 and shrinks like 105/z⁸ beyond it. The −15/z⁶ term
// matters for monotonicity: without it the series sits 5.3e-5 above
// erfc's ln Q at z = 8, so the tail would step up there (φ would dip);
// with it the series lies below erfc's value and LogTail keeps falling
// across the switch.
func (d Normal) LogTail(x float64) float64 {
	if d.Sigma <= 0 {
		if x < d.Mu {
			return 0
		}
		return math.Inf(-1)
	}
	z := d.Z(x)
	if z < 8 {
		return math.Log(0.5 * math.Erfc(z/math.Sqrt2))
	}
	z2 := z * z
	correction := 1 - 1/z2 + 3/(z2*z2) - 15/(z2*z2*z2)
	return -z2/2 - math.Log(z*math.Sqrt(2*math.Pi)) + math.Log(correction)
}

// Z returns the standard score (x − Mu)/Sigma, the one number LogTail
// depends on: ln P(X > x) is a decreasing function of it alone. Callers
// that rank normal tails compare Z instead of evaluating LogTail; they
// get the very value LogTail computes, bit for bit.
func (d Normal) Z(x float64) float64 { return (x - d.Mu) / d.Sigma }

// LogTail returns ln P(X > x) = −x/mean for the exponential distribution.
func (d Exponential) LogTail(x float64) float64 {
	if x < 0 {
		return 0
	}
	if d.MeanValue <= 0 {
		return math.Inf(-1)
	}
	return -x / d.MeanValue
}

// LogTail returns ln P(X > x) for the Erlang distribution, computed in
// log space with a log-sum-exp over the truncated Poisson series so that
// it remains finite for arbitrarily large x. The log-sum-exp takes two
// passes, the first for the largest term and the second for the sum, and
// the second recomputes each term instead of storing it, so evaluation
// allocates nothing.
func (d Erlang) LogTail(x float64) float64 {
	if x <= 0 {
		return 0
	}
	if d.K < 1 || d.Lambda <= 0 {
		return math.Inf(-1)
	}
	lx := d.Lambda * x
	loglx := math.Log(lx)
	// log term_n = n·ln(λx) − lnΓ(n+1)
	maxLog := math.Inf(-1)
	lgamma := 0.0 // ln(0!) = 0
	for n := 0; n < d.K; n++ {
		if n > 0 {
			lgamma += math.Log(float64(n))
		}
		if lg := float64(n)*loglx - lgamma; lg > maxLog {
			maxLog = lg
		}
	}
	sum := 0.0
	lgamma = 0
	for n := 0; n < d.K; n++ {
		if n > 0 {
			lgamma += math.Log(float64(n))
		}
		lg := float64(n)*loglx - lgamma
		sum += math.Exp(lg - maxLog)
	}
	return -lx + maxLog + math.Log(sum)
}

// LogTail returns the log of the tail of dist, using the LogTailer fast
// path when available and falling back to ln(Tail(x)) otherwise.
func LogTail(dist Dist, x float64) float64 {
	if lt, ok := dist.(LogTailer); ok {
		return lt.LogTail(x)
	}
	return math.Log(dist.Tail(x))
}
