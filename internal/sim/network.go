package sim

import (
	"math/rand/v2"
	"time"

	"accrual/internal/stats"
)

// DelayModel produces per-message one-way delays.
type DelayModel interface {
	Delay(rng *rand.Rand) time.Duration
}

// ConstantDelay delays every message by the same duration.
type ConstantDelay time.Duration

// Delay returns the constant delay.
func (d ConstantDelay) Delay(*rand.Rand) time.Duration { return time.Duration(d) }

// RandomDelay draws delays, in seconds, from a distribution, with a floor
// so that delays are never negative (or never below a propagation minimum).
type RandomDelay struct {
	// Dist produces delays in seconds.
	Dist stats.Sampler
	// Min is the smallest possible delay; samples below it are clamped.
	Min time.Duration
}

// Delay samples the distribution and clamps to Min.
func (d RandomDelay) Delay(rng *rand.Rand) time.Duration {
	v := time.Duration(d.Dist.Sample(rng) * float64(time.Second))
	if v < d.Min {
		return d.Min
	}
	return v
}

// LossModel decides whether each message is lost. Implementations may be
// stateful (bursty models); a LossModel instance must not be shared
// between links.
type LossModel interface {
	Lost(rng *rand.Rand) bool
}

// NoLoss never loses messages.
type NoLoss struct{}

// Lost returns false.
func (NoLoss) Lost(*rand.Rand) bool { return false }

// BernoulliLoss loses each message independently with probability P.
type BernoulliLoss struct {
	P float64
}

// Lost flips a biased coin.
func (l BernoulliLoss) Lost(rng *rand.Rand) bool { return rng.Float64() < l.P }

// GilbertElliott is the classic two-state bursty loss model. The channel
// alternates between a good and a bad state; transitions happen per
// message with the given probabilities, and each state has its own loss
// rate. With LossBad near 1 the model produces the bursts of consecutive
// heartbeat losses that motivate the κ detector (§5.4 of the paper).
type GilbertElliott struct {
	// PGoodToBad is the per-message probability of entering the bad state.
	PGoodToBad float64
	// PBadToGood is the per-message probability of leaving the bad state.
	PBadToGood float64
	// LossGood is the loss probability in the good state (often 0).
	LossGood float64
	// LossBad is the loss probability in the bad state (often near 1).
	LossBad float64

	bad bool
}

// Lost advances the channel state and reports whether the message is lost.
func (l *GilbertElliott) Lost(rng *rand.Rand) bool {
	if l.bad {
		if rng.Float64() < l.PBadToGood {
			l.bad = false
		}
	} else {
		if rng.Float64() < l.PGoodToBad {
			l.bad = true
		}
	}
	p := l.LossGood
	if l.bad {
		p = l.LossBad
	}
	return rng.Float64() < p
}

// Link is the directed channel model between two processes.
type Link struct {
	Delay DelayModel
	Loss  LossModel
}

func (l Link) withDefaults() Link {
	if l.Delay == nil {
		l.Delay = ConstantDelay(0)
	}
	if l.Loss == nil {
		l.Loss = NoLoss{}
	}
	return l
}

type pair struct{ from, to string }

type partition struct {
	a, b     string
	from, to time.Time
}

func (p partition) cuts(from, to string, at time.Time) bool {
	if at.Before(p.from) || !at.Before(p.to) {
		return false
	}
	return (p.a == from && p.b == to) || (p.a == to && p.b == from)
}

// Counters aggregates per-network message statistics.
type Counters struct {
	// Frames counts Conn writes; all of one instant's writes on a Conn
	// travel as one Sent message.
	Frames      int64
	Sent        int64
	Delivered   int64
	Lost        int64
	Partitioned int64
}

// Network routes messages between named processes over per-pair links,
// applying delay, loss and partition models. It is driven entirely by the
// owning Sim and is not safe for concurrent use.
type Network struct {
	sim        *Sim
	def        Link
	links      map[pair]Link
	partitions []partition
	counters   Counters
}

// NewNetwork returns a network over s whose unspecified links behave like
// def (nil models default to zero delay and no loss).
func NewNetwork(s *Sim, def Link) *Network {
	return &Network{sim: s, def: def.withDefaults(), links: make(map[pair]Link)}
}

// SetLink installs a dedicated model for the directed channel from→to.
func (n *Network) SetLink(from, to string, l Link) {
	n.links[pair{from, to}] = l.withDefaults()
}

// Partition drops all messages between a and b (both directions) whose
// send time falls in [from, to).
func (n *Network) Partition(a, b string, from, to time.Time) {
	n.partitions = append(n.partitions, partition{a: a, b: b, from: from, to: to})
}

// Counters returns a snapshot of the message statistics.
func (n *Network) Counters() Counters { return n.counters }

// Send transmits a message from from to to, invoking deliver at the
// (simulated) arrival time unless the message is lost or cut by a
// partition. deliver receives the arrival time.
func (n *Network) Send(from, to string, deliver func(arrived time.Time)) {
	n.counters.Sent++
	now := n.sim.Now()
	for _, p := range n.partitions {
		if p.cuts(from, to, now) {
			n.counters.Partitioned++
			return
		}
	}
	link, ok := n.links[pair{from, to}]
	if !ok {
		link = n.def
	}
	if link.Loss.Lost(n.sim.rng) {
		n.counters.Lost++
		return
	}
	delay := link.Delay.Delay(n.sim.rng)
	if delay < 0 {
		delay = 0
	}
	n.sim.After(delay, func() {
		n.counters.Delivered++
		deliver(n.sim.Now())
	})
}
