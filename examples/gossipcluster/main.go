// Gossipcluster: large-scale failure detection the way §1.1/§6 of the
// paper sketch it — the daemon's federation digests disseminated by
// gossip on the simulator, accrual detectors interpreting the stream of
// fresh digests, and two consumers built on the levels: an Ω
// leader-election oracle and a slowness oracle ranking nodes by
// responsiveness.
//
// A 24-node cluster gossips with fanout 2. The initial leader crashes at
// t=30s; watch one observer's view converge to a new live leader while
// the crashed node sinks to the bottom of the responsiveness ranking.
//
// Run with: go run ./examples/gossipcluster
package main

import (
	"fmt"
	"strings"
	"time"

	"accrual/internal/core"
	"accrual/internal/experiments"
	"accrual/internal/omega"
	"accrual/internal/phi"
	"accrual/internal/sim"
	"accrual/internal/slowness"
	"accrual/internal/stats"
)

func main() {
	s := sim.New(16)
	net := sim.NewNetwork(s, sim.Link{
		Delay: sim.RandomDelay{Dist: stats.Normal{Mu: 0.01, Sigma: 0.003}, Min: time.Millisecond},
		Loss:  sim.BernoulliLoss{P: 0.02},
	})
	nodes := make([]string, 24)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("n%02d", i)
	}
	crashAt := sim.Epoch.Add(30 * time.Second)
	horizon := sim.Epoch.Add(60 * time.Second)
	const interval = 100 * time.Millisecond
	cluster, err := experiments.NewCluster(experiments.ClusterConfig{
		Sim: s, Net: net, Nodes: nodes, Fanout: 2,
		Interval: interval,
		Crashes:  map[string]time.Time{"n06": crashAt},
		Horizon:  horizon,
		Detector: func(_ string, start time.Time) core.Detector {
			return phi.New(start, phi.WithBootstrap(interval, interval/2))
		},
	})
	if err != nil {
		panic(err)
	}

	observer := cluster.Node("n23").Monitor()
	leaderOracle := omega.New(observer.Ranked, 3)
	ranker := slowness.New(0.2, 0.25)

	fmt.Println("24 nodes, gossip fanout 2 every 100ms, 2% loss; n06 (the initial leader) crashes at t=30s")
	fmt.Println("observer: n23 (everything below is its local view)")
	fmt.Println()
	for tick := 5; tick <= 60; tick += 5 {
		s.RunUntil(sim.Epoch.Add(time.Duration(tick) * time.Second))
		ranker.Update(observer.Ranked())
		leader, _ := leaderOracle.Leader()
		n06Level, _ := observer.Suspicion("n06")
		fmt.Printf("t=%2ds  leader=%s  level(n06)=%8.2f  most responsive: %s\n",
			tick, leader, float64(n06Level), strings.Join(ranker.Fastest(3), " "))
	}
	fmt.Println()
	leader, _ := leaderOracle.Leader()
	fmt.Printf("final leader: %s (stable, live); crashed n06 ranks last of %d\n",
		leader, len(ranker.Order()))
}
