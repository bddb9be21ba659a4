package experiments

import (
	"errors"
	"fmt"
	"net"
	"time"

	"accrual/internal/core"
	"accrual/internal/federation"
	"accrual/internal/service"
	"accrual/internal/sim"
	"accrual/internal/transport"
)

// ClusterConfig describes a gossiping cluster on the simulator: each
// node runs the daemon's own federation plane over sim.Conn sockets —
// the gossip-style deployment of accrual detection of §1.1/§6.
type ClusterConfig struct {
	Sim *sim.Sim
	Net *sim.Network
	// Nodes are the distinct member ids (at least 2); each node lists
	// all the others as its federation peers.
	Nodes []string
	// Fanout is federation's (default and clamping apply).
	Fanout   int
	Interval time.Duration
	// Horizon bounds the gossip schedule.
	Horizon time.Time
	// Crashes and Joins map node ids to the instants they stop and
	// boot: outside that span a node neither gossips nor receives,
	// though every peer lists it throughout.
	Crashes, Joins map[string]time.Time
	// Detector builds a node's detector of one peer.
	Detector service.Factory
}

// ErrBadCluster is wrapped by every ClusterConfig validation error.
var ErrBadCluster = errors.New("experiments: bad cluster config")

// Cluster is a set of federated nodes driven by one simulator.
type Cluster struct {
	nodes map[string]*ClusterNode
	// Decode scratch shared by every node: the simulator runs one
	// delivery at a time.
	ids   *transport.IDInterner
	dig   transport.Digest
	beats []core.Heartbeat
}

// ClusterNode is one member: a federation peer whose local registry is
// empty, so its digests carry only its own liveness, and a Monitor that
// is its accrual view of the other members. Every digest it receives is
// a heartbeat of the digest's origin numbered by the digest's sequence
// number: the Monitor's sequence guard keeps only news fresher than it
// holds, and federation's relay of each origin's freshest frame spreads
// that news across the cluster.
type ClusterNode struct {
	id              string
	fed             *federation.Federation
	mon             *service.Monitor
	joinAt, crashAt time.Time
}

// NewCluster builds the nodes and schedules their gossip rounds.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Sim == nil || cfg.Net == nil || len(cfg.Nodes) < 2 || cfg.Interval <= 0 || cfg.Horizon.IsZero() || cfg.Detector == nil {
		return nil, fmt.Errorf("%w: want a sim, a network, 2+ nodes, an interval, a horizon and a detector", ErrBadCluster)
	}
	c := &Cluster{nodes: make(map[string]*ClusterNode, len(cfg.Nodes)), ids: transport.NewIDInterner()}
	// A registry here holds at most the cluster's peers, so one shard:
	// the default 64 would allocate a slab chunk per shard in use.
	local := service.NewMonitor(cfg.Sim, cfg.Detector, service.WithShardCount(1))
	for _, id := range cfg.Nodes {
		if c.nodes[id] != nil {
			return nil, fmt.Errorf("%w: duplicate node %q", ErrBadCluster, id)
		}
		c.nodes[id] = &ClusterNode{
			id:      id,
			mon:     service.NewMonitor(cfg.Sim, cfg.Detector, service.WithShardCount(1)),
			joinAt:  cfg.Joins[id],
			crashAt: cfg.Crashes[id],
		}
	}
	for _, id := range cfg.Nodes {
		peers := make([]string, 0, len(cfg.Nodes)-1)
		for _, p := range cfg.Nodes {
			if p != id {
				peers = append(peers, p)
			}
		}
		fed, err := federation.New(federation.Config{
			Self: id, Peers: peers, Monitor: local,
			Interval: cfg.Interval, Fanout: cfg.Fanout,
			Clock: cfg.Sim, Seed: cfg.Sim.Rand().Uint64(),
			Dial: func(addr string) (net.Conn, error) {
				return cfg.Net.Dial(id, addr, c.receiver(c.nodes[addr])), nil
			},
		})
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadCluster, err)
		}
		n := c.nodes[id]
		n.fed = fed
		cfg.Sim.Every(cfg.Interval, cfg.Horizon, func(now time.Time) {
			if n.alive(now) {
				fed.Round()
			}
		})
	}
	return c, nil
}

// receiver handles the bundles of AFG1 frames delivered to n: each
// frame is merged into n's federation view and is a heartbeat of its
// origin, and a bundle's heartbeats reach n's Monitor in one batch.
func (c *Cluster) receiver(n *ClusterNode) func(frames [][]byte, arrived time.Time) {
	return func(frames [][]byte, arrived time.Time) {
		if !n.alive(arrived) {
			return
		}
		c.beats = c.beats[:0]
		for _, frame := range frames {
			if transport.UnmarshalDigest(frame, &c.dig, c.ids) != nil {
				continue
			}
			n.fed.HandleDigest(&c.dig, arrived)
			if c.dig.Origin != n.id {
				c.beats = append(c.beats, core.Heartbeat{From: c.dig.Origin, Seq: c.dig.Seq, Arrived: arrived})
			}
		}
		n.mon.HeartbeatBatch(c.beats)
	}
}

// Node returns a member by id, or nil if unknown.
func (c *Cluster) Node(id string) *ClusterNode { return c.nodes[id] }

// Monitor is the node's accrual view of the peers it has heard of.
func (n *ClusterNode) Monitor() *service.Monitor { return n.mon }

// Federation is the node's gossip plane (its /v1/cluster view).
func (n *ClusterNode) Federation() *federation.Federation { return n.fed }

func (n *ClusterNode) alive(at time.Time) bool {
	return !at.Before(n.joinAt) && (n.crashAt.IsZero() || at.Before(n.crashAt))
}
