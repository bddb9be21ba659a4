package detectors

import (
	"fmt"
	"testing"
	"time"

	"accrual/internal/clock"
	"accrual/internal/core"
	"accrual/internal/service"
	"accrual/internal/sim"
	"accrual/internal/stats"
)

const (
	interval   = 100 * time.Millisecond
	queryEvery = interval
	// settle is how long after the crash the Accruement check starts:
	// beats in flight have landed and every kind has left the grace
	// span right after a beat in which its level sits at zero.
	settle = 2 * time.Second
	// afterCrash is how long a crashed process is observed.
	afterCrash = 60 * time.Second
	// maxFlat is the query bound Q of Property 1: the most consecutive
	// queries, interval apart, over which the level may stay constant.
	maxFlat = 10
)

// scenario is one life of the monitored process "p" on the simulator.
type scenario struct {
	name string
	// beats is how many heartbeats p sends before it crashes; -1 keeps
	// it correct for the whole horizon.
	beats int
	// loss is the channel's Bernoulli loss rate.
	loss float64
	// atCrash, when set, acts on the monitor at the crash instant,
	// after p's last send.
	atCrash func(t *testing.T, mon *service.Monitor)
}

var scenarios = []scenario{
	{name: "crash-after-0", beats: 0},
	// A process that beat once and died: the row that caught accruald's
	// φ factory dropping its bootstrap, which left such a process at
	// level 0 forever.
	{name: "crash-after-1", beats: 1},
	{name: "crash-after-2", beats: 2},
	{name: "crash-after-300", beats: 300},
	{name: "crash-after-retune", beats: 300, atCrash: func(t *testing.T, mon *service.Monitor) {
		if _, _, err := mon.Retune(core.Tuning{WindowSize: 32, Interval: 2 * interval}); err != nil {
			t.Fatalf("Retune: %v", err)
		}
	}},
	{name: "crash-after-state-round-trip", beats: 300, atCrash: func(t *testing.T, mon *service.Monitor) {
		st := mon.ExportState()
		if !mon.Deregister("p") {
			t.Fatal("Deregister: p not registered")
		}
		if n, err := mon.ImportState(st); n != 1 || err != nil {
			t.Fatalf("ImportState = %d, %v", n, err)
		}
	}},
	// The ADD-channel envelope: arbitrary loss on some messages, but
	// never an unbounded silence from a correct sender.
	{name: "correct-under-loss", beats: -1, loss: 0.3},
}

// drive runs sc for one configuration of the shipped factory on a
// seeded LAN channel (delay N(10 ms, 5 ms) floored at 1 ms, send jitter
// N(0, 10 ms)), querying the monitor every queryEvery. A crashing p
// stops at its beats-th send; its crash instant is that beat's arrival
// (the start, for no beats), and it is observed for afterCrash more. A
// correct p runs for horizon. drive returns the query history, the
// crash instant (zero for a correct process) and the longest silence
// between two deliveries.
func drive(t *testing.T, factory service.Factory, profile string, sc scenario,
	horizon time.Duration) (history []core.QueryRecord, crashAt time.Time, longestGap time.Duration) {
	t.Helper()
	s := sim.New(41)
	mon := service.NewMonitor(clock.Func(s.Now), factory)
	if err := mon.Register("p"); err != nil {
		t.Fatal(err)
	}
	start := s.Now()
	crash := func(at time.Time) {
		crashAt = at
		if sc.atCrash != nil {
			sc.atCrash(t, mon)
		}
	}
	if sc.beats == 0 {
		crash(start)
	}
	// Sends are jittered, so the beats-th send time is not known up
	// front; the sources run until far past any crash.
	until := start.Add(horizon + time.Hour)
	last := start
	em := &sim.Emitter{
		Sim: s,
		Net: sim.NewNetwork(s, sim.Link{
			Delay: sim.RandomDelay{Dist: stats.Normal{Mu: 0.010, Sigma: 0.005}, Min: time.Millisecond},
			Loss:  sim.BernoulliLoss{P: sc.loss},
		}),
		From: "p", To: "q",
		Interval: interval,
		Jitter:   stats.Normal{Mu: 0, Sigma: 0.010},
		Until:    until,
		Sink: func(hb core.Heartbeat) {
			if sc.beats >= 0 && hb.Seq > uint64(sc.beats) {
				return // sent after the crash: never sent
			}
			if gap := hb.Arrived.Sub(last); gap > longestGap {
				longestGap = gap
			}
			last = hb.Arrived
			if err := mon.Heartbeat(hb); err != nil {
				t.Errorf("Heartbeat: %v", err)
			}
			if hb.Seq == uint64(sc.beats) {
				crash(hb.Arrived)
			}
		},
	}
	em.Start()
	pr := &sim.Prober{
		Sim: s, Every: queryEvery, Until: until,
		Query: func(now time.Time) {
			lvl, err := mon.Suspicion("p")
			if err != nil {
				t.Fatalf("Suspicion: %v", err)
			}
			history = append(history, core.QueryRecord{At: now, Level: lvl})
		},
	}
	pr.Start()
	if sc.beats < 0 {
		s.RunUntil(start.Add(horizon))
		return history, crashAt, longestGap
	}
	for crashAt.IsZero() && s.Step() {
	}
	s.RunUntil(crashAt.Add(afterCrash))
	return history, crashAt, longestGap
}

// TestShippedConfigurationsHoldProperties checks the paper's Property 1
// (Accruement: a crashed process's level eventually rises without
// bound) and Property 2 (Upper Bound: a correct process's level stays
// bounded) on every detector kind × memory profile the daemon ships,
// built through Factory and driven through service.Monitor, over
// crashes early and late, after a Retune, after a state round trip, and
// for a correct process behind a lossy channel.
func TestShippedConfigurationsHoldProperties(t *testing.T) {
	for _, kind := range []string{"phi", "chen", "kappa", "simple"} {
		for _, profile := range []string{"default", "compact"} {
			factory, err := Factory(kind, interval, profile)
			if err != nil {
				t.Fatal(err)
			}
			for _, sc := range scenarios {
				t.Run(fmt.Sprintf("%s/%s/%s", kind, profile, sc.name), func(t *testing.T) {
					if sc.beats >= 0 {
						checkAccrues(t, factory, profile, sc)
					} else {
						checkBounded(t, factory, profile, sc)
					}
				})
			}
		}
	}
}

func checkAccrues(t *testing.T, factory service.Factory, profile string, sc scenario) {
	history, crashAt, _ := drive(t, factory, profile, sc, 0)
	if ub := core.CheckUpperBound(history, -1); !ub.Holds {
		t.Fatalf("Upper Bound (finiteness): %s", ub.Violation)
	}
	k := 0
	for k < len(history) && history[k].At.Before(crashAt.Add(settle)) {
		k++
	}
	if rep := core.CheckAccruement(history, k, maxFlat); !rep.Holds {
		t.Fatalf("Accruement from %v after the crash: %s", settle, rep.Violation)
	}
}

// checkBounded bounds a correct process's level by what its crashed
// twin shows: the same configuration on a loss-free channel, queried
// after a silence as long as the longest one the lossy channel
// produced. Loss only widens what the estimators learn, so no level of
// the correct process may exceed that.
func checkBounded(t *testing.T, factory service.Factory, profile string, sc scenario) {
	const horizon = 5 * time.Minute
	history, _, gap := drive(t, factory, profile, sc, horizon)
	twin, crashAt, _ := drive(t, factory, profile, scenario{beats: int(horizon / interval)}, 0)
	var bound core.Level = -1
	for _, rec := range twin {
		if rec.At.Sub(crashAt) >= gap {
			bound = rec.Level
			break
		}
	}
	if bound <= 0 {
		t.Fatalf("crashed twin never accrued a level after a %v silence", gap)
	}
	if ub := core.CheckUpperBound(history, bound); !ub.Holds {
		t.Fatalf("Upper Bound (longest silence %v, twin's level %v): %s", gap, bound, ub.Violation)
	}
}
