// Qosplan: from QoS requirements to detector parameters, and back.
//
// The paper frames failure detection as a service with per-application
// quality of service (§1, §4.4). This example closes the engineering
// loop for Chen's detector (§5.2):
//
//  1. an application states its requirements (detect crashes within 2s,
//     at most one wrong suspicion per hour),
//  2. the Chen configurator derives heartbeat parameters (interval η and
//     safety margin α) from those requirements plus measured network
//     statistics,
//  3. a simulated deployment with exactly those network statistics
//     verifies that the achieved QoS meets the plan.
//
// Run with: go run ./examples/qosplan
package main

import (
	"fmt"
	"time"

	"accrual/internal/chen"
	"accrual/internal/core"
	"accrual/internal/qos"
	"accrual/internal/sim"
	"accrual/internal/stats"
	"accrual/internal/trace"
	"accrual/internal/transform"
)

func main() {
	req := chen.QoS{
		MaxDetectionTime:     2 * time.Second,
		MinMistakeRecurrence: time.Hour,
	}
	netStats := chen.NetworkStats{
		LossProb:    0.02,
		DelayMean:   15 * time.Millisecond,
		DelayStdDev: 10 * time.Millisecond,
	}
	fmt.Println("requirements: detect within 2s; at most 1 wrong suspicion per hour")
	fmt.Printf("network:      %.0f%% loss, delay %v ± %v\n\n",
		netStats.LossProb*100, netStats.DelayMean, netStats.DelayStdDev)

	params, err := chen.Configure(req, netStats)
	if err != nil {
		panic(err)
	}
	fmt.Printf("plan: heartbeat every %v, suspect %v past the expected arrival\n\n",
		params.Interval.Truncate(time.Millisecond), params.Alpha.Truncate(time.Millisecond))

	// Validate the plan against a simulated deployment: 2 hours of
	// operation, then a crash.
	s := sim.New(7)
	net := sim.NewNetwork(s, sim.Link{
		Delay: sim.RandomDelay{
			Dist: stats.Normal{Mu: netStats.DelayMean.Seconds(), Sigma: netStats.DelayStdDev.Seconds()},
			Min:  time.Millisecond,
		},
		Loss: sim.BernoulliLoss{P: netStats.LossProb},
	})
	start := s.Now()
	det := chen.New(start, params.Interval)
	crashAt := start.Add(2 * time.Hour)
	end := crashAt.Add(10 * time.Second)
	em := &sim.Emitter{
		Sim: s, Net: net, From: "p", To: "q",
		Interval: params.Interval,
		CrashAt:  crashAt,
		Until:    end,
		Sink:     func(hb core.Heartbeat) { det.Report(hb) },
	}
	em.Start()
	// Interpret the accrual level with the planned margin: D_T at α.
	bin := transform.NewConstantThreshold(transform.FromDetector(det), core.Level(params.Alpha.Seconds()))
	obs := trace.NewStatusObserver(core.Trusted)
	pr := &sim.Prober{
		Sim: s, Every: 50 * time.Millisecond, Until: end,
		Query: func(now time.Time) { obs.Observe(now, bin.Query(now)) },
	}
	pr.Start()
	s.RunUntil(end)

	rep, err := qos.Evaluate(qos.Input{
		Transitions: obs.Transitions(),
		Start:       start, End: end, CrashAt: crashAt,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("simulated 2h of operation plus a crash:")
	fmt.Printf("  wrong suspicions:       %d (budget allowed %d)\n",
		rep.STransitions, int(2*time.Hour/req.MinMistakeRecurrence)+1)
	fmt.Printf("  mistake recurrence:     %v (required >= %v)\n",
		orInf(rep.MeanMistakeRecurrence()), req.MinMistakeRecurrence)
	fmt.Printf("  detection time:         %v (required <= %v, detected %v)\n",
		rep.TD.Truncate(time.Millisecond), req.MaxDetectionTime, rep.Detected)
	ok := rep.Detected && rep.TD <= req.MaxDetectionTime &&
		(rep.STransitions < 2 || rep.MeanMistakeRecurrence() >= req.MinMistakeRecurrence)
	fmt.Printf("\nplan verified: %v\n", ok)
}

func orInf(d time.Duration) string {
	if d == 0 {
		return "∞ (no repeated mistakes)"
	}
	return d.String()
}
