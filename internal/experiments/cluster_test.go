package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"accrual/internal/core"
	"accrual/internal/omega"
	"accrual/internal/phi"
	"accrual/internal/service"
	"accrual/internal/sim"
	"accrual/internal/stats"
)

const clusterInterval = 100 * time.Millisecond

func clusterConfig(s *sim.Sim, n int) ClusterConfig {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("n%02d", i)
	}
	return ClusterConfig{
		Sim: s,
		Net: sim.NewNetwork(s, sim.Link{
			Delay: sim.RandomDelay{Dist: stats.Normal{Mu: 0.01, Sigma: 0.003}, Min: time.Millisecond},
		}),
		Nodes:    ids,
		Fanout:   2,
		Interval: clusterInterval,
		Horizon:  sim.Epoch.Add(70 * time.Second),
		Detector: func(_ string, start time.Time) core.Detector {
			return phi.New(start, phi.WithBootstrap(clusterInterval, clusterInterval/2))
		},
	}
}

func newCluster(t *testing.T, cfg ClusterConfig) (*Cluster, []string) {
	t.Helper()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, cfg.Nodes
}

// level is node's suspicion of peer, failing the test when node has
// never heard of peer.
func level(t *testing.T, c *Cluster, node, peer string) core.Level {
	t.Helper()
	lvl, err := c.Node(node).Monitor().Suspicion(peer)
	if err != nil {
		t.Fatalf("%s: %v", node, err)
	}
	return lvl
}

// acceptedSeq is the digest sequence number node last accepted from
// origin: the origin's round count as node knows it.
func acceptedSeq(c *Cluster, node, origin string) uint64 {
	for _, p := range c.Node(node).Federation().ClusterInfo().Peers {
		if p.Peer == origin {
			return p.Seq
		}
	}
	return 0
}

func TestClusterValidation(t *testing.T) {
	s := sim.New(1)
	good := clusterConfig(s, 3)
	tests := []struct {
		name   string
		mutate func(*ClusterConfig)
	}{
		{"nil sim", func(c *ClusterConfig) { c.Sim = nil }},
		{"nil net", func(c *ClusterConfig) { c.Net = nil }},
		{"one node", func(c *ClusterConfig) { c.Nodes = c.Nodes[:1] }},
		{"zero interval", func(c *ClusterConfig) { c.Interval = 0 }},
		{"zero horizon", func(c *ClusterConfig) { c.Horizon = time.Time{} }},
		{"duplicate node", func(c *ClusterConfig) { c.Nodes = []string{"a", "b", "a"} }},
		{"negative fanout", func(c *ClusterConfig) { c.Fanout = -1 }},
		{"nil detector factory", func(c *ClusterConfig) { c.Detector = nil }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := good
			tt.mutate(&cfg)
			if _, err := NewCluster(cfg); !errors.Is(err, ErrBadCluster) {
				t.Errorf("err = %v, want ErrBadCluster", err)
			}
		})
	}
}

// TestClusterFanoutClamped: a fanout above the peer count gossips to
// every peer, and zero means federation's default of 2. Each node's
// round is one message per target.
func TestClusterFanoutClamped(t *testing.T) {
	for _, tc := range []struct{ nodes, fanout, perRound int }{
		{3, 10, 2},
		{5, 0, 2},
		{5, 3, 3},
	} {
		s := sim.New(1)
		cfg := clusterConfig(s, tc.nodes)
		cfg.Fanout = tc.fanout
		newCluster(t, cfg)
		s.RunUntil(sim.Epoch.Add(clusterInterval))
		if got, want := cfg.Net.Counters().Sent, int64(tc.nodes*tc.perRound); got != want {
			t.Errorf("%d nodes, fanout %d: %d messages in one round, want %d", tc.nodes, tc.fanout, got, want)
		}
	}
}

// TestClusterEveryNodeLearnsEveryOther: after 100 rounds every node
// monitors every other, and the news it holds of each is recent.
func TestClusterEveryNodeLearnsEveryOther(t *testing.T) {
	s := sim.New(3)
	c, ids := newCluster(t, clusterConfig(s, 8))
	s.RunUntil(sim.Epoch.Add(10 * time.Second))
	for _, id := range ids {
		if got := c.Node(id).Monitor().Len(); got != 7 {
			t.Errorf("%s monitors %d peers, want 7", id, got)
		}
		for _, peer := range ids {
			if peer == id {
				continue
			}
			if seq := acceptedSeq(c, id, peer); seq < 90 {
				t.Errorf("%s's news of %s is from round %d of 100", id, peer, seq)
			}
		}
	}
}

func TestClusterLiveNodesStayTrusted(t *testing.T) {
	s := sim.New(4)
	c, ids := newCluster(t, clusterConfig(s, 8))
	var maxLevel core.Level
	for i := 0; i < 60; i++ {
		s.RunUntil(sim.Epoch.Add(time.Duration(i+20) * time.Second / 2))
		for _, id := range ids {
			for _, peer := range ids {
				if peer != id {
					maxLevel = max(maxLevel, level(t, c, id, peer))
				}
			}
		}
	}
	if maxLevel > 8 {
		t.Errorf("max suspicion of a live node = %v, implausibly high", maxLevel)
	}
}

func TestClusterCrashDetectedByAllNodes(t *testing.T) {
	s := sim.New(5)
	cfg := clusterConfig(s, 8)
	cfg.Crashes = map[string]time.Time{"n03": sim.Epoch.Add(30 * time.Second)}
	c, ids := newCluster(t, cfg)
	s.RunUntil(sim.Epoch.Add(60 * time.Second))
	for _, id := range ids {
		if id == "n03" {
			continue
		}
		if lvl := level(t, c, id, "n03"); lvl < 5 {
			t.Errorf("%s's suspicion of crashed n03 = %v, want high", id, lvl)
		}
		for _, peer := range []string{"n00", "n07"} {
			if peer == id {
				continue
			}
			if lvl := level(t, c, id, peer); lvl > 5 {
				t.Errorf("%s wrongly suspects live %s at %v", id, peer, lvl)
			}
		}
		// The crashed node's digest sequence froze cluster-wide.
		if seq := acceptedSeq(c, id, "n03"); seq == 0 || seq > 300 {
			t.Errorf("%s holds n03's round %d, want ≤ 300 (one per 100ms round until 30s)", id, seq)
		}
	}
}

// TestClusterDeterminism: a seeded run is a pure function of its seed —
// every node's levels and accepted sequence numbers agree across runs.
func TestClusterDeterminism(t *testing.T) {
	type view struct {
		ranked []service.RankedProcess
		seqs   []uint64
	}
	run := func() []view {
		s := sim.New(77)
		cfg := clusterConfig(s, 6)
		cfg.Crashes = map[string]time.Time{"n01": sim.Epoch.Add(5 * time.Second)}
		c, ids := newCluster(t, cfg)
		s.RunUntil(sim.Epoch.Add(20 * time.Second))
		var out []view
		for _, id := range ids {
			v := view{ranked: c.Node(id).Monitor().Ranked()}
			for _, peer := range ids {
				v.seqs = append(v.seqs, acceptedSeq(c, id, peer))
			}
			out = append(out, v)
		}
		return out
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs with one seed diverge:\n%v\n%v", a, b)
	}
}

// TestClusterOmega: leader election over one node's Monitor — after the
// leader crashes, the oracle leaves it for a live node.
func TestClusterOmega(t *testing.T) {
	s := sim.New(8)
	cfg := clusterConfig(s, 5)
	cfg.Crashes = map[string]time.Time{"n00": sim.Epoch.Add(20 * time.Second)}
	c, _ := newCluster(t, cfg)
	oracle := omega.New(c.Node("n04").Monitor().Ranked, 1)
	s.RunUntil(sim.Epoch.Add(10 * time.Second))
	if _, ok := oracle.Leader(); !ok {
		t.Fatal("no early leader")
	}
	s.RunUntil(sim.Epoch.Add(60 * time.Second))
	for i := 0; i < 10; i++ {
		s.RunUntil(s.Now().Add(time.Second))
		if leader, _ := oracle.Leader(); leader == "n00" {
			t.Fatalf("crashed node still leader at %v", s.Now().Sub(sim.Epoch))
		}
	}
}

// lateJoiner returns a 5-node cluster config plus "newbie", which every
// node lists as a peer but which stays silent until joinAt.
func lateJoiner(s *sim.Sim, joinAt time.Time) ClusterConfig {
	cfg := clusterConfig(s, 5)
	cfg.Nodes = append(cfg.Nodes, "newbie")
	cfg.Joins = map[string]time.Time{"newbie": joinAt}
	return cfg
}

func TestClusterLateJoinerDiscoveredByAll(t *testing.T) {
	s := sim.New(9)
	joinAt := sim.Epoch.Add(20 * time.Second)
	c, ids := newCluster(t, lateJoiner(s, joinAt))
	s.RunUntil(joinAt.Add(-time.Millisecond))
	for _, id := range ids {
		if id != "newbie" && c.Node(id).Monitor().Known("newbie") {
			t.Fatalf("%s heard of newbie before it booted", id)
		}
	}
	if n := c.Node("newbie").Monitor().Len(); n != 0 {
		t.Fatalf("newbie heard of %d peers before it booted", n)
	}
	s.RunUntil(sim.Epoch.Add(40 * time.Second))
	for _, id := range ids {
		if id == "newbie" {
			continue
		}
		if lvl := level(t, c, id, "newbie"); lvl > 8 {
			t.Errorf("%s suspects the live joiner at %v", id, lvl)
		}
		if !c.Node("newbie").Monitor().Known(id) {
			t.Errorf("joiner never heard of %s", id)
		}
	}
}

func TestClusterLateJoinerCrashDetected(t *testing.T) {
	s := sim.New(10)
	cfg := lateJoiner(s, sim.Epoch.Add(10*time.Second))
	cfg.Crashes = map[string]time.Time{"newbie": sim.Epoch.Add(40 * time.Second)}
	c, ids := newCluster(t, cfg)
	s.RunUntil(sim.Epoch.Add(70 * time.Second))
	for _, id := range ids {
		if id == "newbie" {
			continue
		}
		if lvl := level(t, c, id, "newbie"); lvl < 5 {
			t.Errorf("%s's suspicion of the crashed joiner = %v, want high", id, lvl)
		}
	}
}

func TestClusterUnknownPeer(t *testing.T) {
	s := sim.New(6)
	c, _ := newCluster(t, clusterConfig(s, 3))
	s.RunUntil(sim.Epoch.Add(time.Second))
	if _, err := c.Node("n00").Monitor().Suspicion("ghost"); !errors.Is(err, service.ErrUnknownProcess) {
		t.Errorf("unknown peer: err = %v, want ErrUnknownProcess", err)
	}
	if c.Node("ghost") != nil {
		t.Error("unknown node should be nil")
	}
}
