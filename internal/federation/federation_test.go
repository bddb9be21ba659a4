package federation

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	"accrual/internal/clock"
	"accrual/internal/core"
	"accrual/internal/service"
	"accrual/internal/simple"
	"accrual/internal/telemetry"
	"accrual/internal/transport"
)

var start = time.Date(2005, 3, 22, 0, 0, 0, 0, time.UTC)

func simpleFactory(_ string, start time.Time) core.Detector {
	return simple.New(start)
}

// newPeer builds a manual-clock monitor + federation pair for unit
// tests; groupFn may be nil for the default group.
func newPeer(t *testing.T, self string, groupFn func(string) string, cfg Config) (*Federation, *service.Monitor, *clock.Manual) {
	t.Helper()
	clk := clock.NewManual(start)
	opts := []service.MonitorOption{}
	if groupFn != nil {
		opts = append(opts, service.WithGroupFn(groupFn))
	}
	mon := service.NewMonitor(clk, simpleFactory, opts...)
	cfg.Self = self
	cfg.Monitor = mon
	cfg.Clock = clk
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f, mon, clk
}

func TestConfigValidation(t *testing.T) {
	mon := service.NewMonitor(clock.NewManual(start), simpleFactory)
	good := Config{Self: "a", Monitor: mon}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"empty self", func(c *Config) { c.Self = "" }},
		{"oversized self", func(c *Config) { c.Self = string(make([]byte, 256)) }},
		{"nil monitor", func(c *Config) { c.Monitor = nil }},
		{"negative fanout", func(c *Config) { c.Fanout = -1 }},
		{"negative top-k", func(c *Config) { c.TopK = -3 }},
		{"negative interval", func(c *Config) { c.Interval = -time.Second }},
		{"empty peer address", func(c *Config) { c.Peers = []string{"h:1", ""} }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := good
			tt.mutate(&cfg)
			if _, err := New(cfg); !errors.Is(err, ErrBadConfig) {
				t.Errorf("err = %v, want ErrBadConfig", err)
			}
		})
	}

	f, err := New(good)
	if err != nil {
		t.Fatal(err)
	}
	if f.cfg.Interval != DefaultInterval || f.cfg.Fanout != DefaultFanout ||
		f.cfg.TopK != DefaultTopK || f.cfg.StaleAfter != DefaultStaleMultiple*DefaultInterval {
		t.Errorf("defaults not applied: %+v", f.cfg)
	}
	oversized := good
	oversized.TopK = transport.MaxDigestSuspects + 500
	f, err = New(oversized)
	if err != nil {
		t.Fatal(err)
	}
	if f.cfg.TopK != transport.MaxDigestSuspects {
		t.Errorf("TopK = %d, want clamped to %d", f.cfg.TopK, transport.MaxDigestSuspects)
	}
}

// TestLocalSummary pins the digest build over the local registry: group
// rollups sum and max member levels, suspects come back most suspected
// first, and top-k truncates from the bottom of the ranking.
func TestLocalSummary(t *testing.T) {
	groups := map[string]string{"a1": "east", "a2": "east", "b1": "west"}
	f, mon, clk := newPeer(t, "self", func(id string) string { return groups[id] }, Config{TopK: 2})
	now := clk.Now()
	for _, id := range []string{"a1", "a2", "b1"} {
		if err := mon.Heartbeat(core.Heartbeat{From: id, Seq: 1, Arrived: now}); err != nil {
			t.Fatal(err)
		}
	}
	// simple levels = seconds since last beat: age the processes apart.
	clk.Advance(time.Second)
	if err := mon.Heartbeat(core.Heartbeat{From: "a2", Seq: 2, Arrived: clk.Now()}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Second) // a1,b1 at level 3; a2 at level 2

	info := f.ClusterInfo()
	if len(info.Suspects) != 2 {
		t.Fatalf("suspects = %d, want top-k 2", len(info.Suspects))
	}
	if info.Suspects[0].ID != "a1" || info.Suspects[1].ID != "b1" {
		t.Errorf("top-2 = %s,%s; want a1,b1 (level 3 each, id tiebreak)",
			info.Suspects[0].ID, info.Suspects[1].ID)
	}
	if info.Suspects[0].Level != 3 || info.Suspects[0].AgeSeconds != 3 {
		t.Errorf("a1: level %v age %v, want 3 and 3", info.Suspects[0].Level, info.Suspects[0].AgeSeconds)
	}
	if len(info.Groups) != 2 {
		t.Fatalf("groups = %+v, want east and west", info.Groups)
	}
	east := info.Groups[0]
	if east.Group != "east" || east.Procs != 2 || east.Impact != 5 || east.Max != 3 {
		t.Errorf("east rollup = %+v, want procs 2, impact 5, max 3", east)
	}
	if len(info.Peers) != 0 {
		t.Errorf("peers = %+v, want none before any digest", info.Peers)
	}
}

func digestFrom(origin string, seq uint64, suspects ...transport.DigestSuspect) *transport.Digest {
	return &transport.Digest{
		Origin:   origin,
		Seq:      seq,
		Procs:    uint32(len(suspects)),
		Suspects: suspects,
		Groups:   []transport.DigestGroup{{Group: origin + "-grp", Procs: uint32(len(suspects))}},
	}
}

// TestHandleDigestSeqGuard pins the anti-entropy acceptance rule: only a
// strictly newer per-origin sequence number is merged; everything else
// is counted as a stale relay and dropped whole.
func TestHandleDigestSeqGuard(t *testing.T) {
	hub := telemetry.NewHub()
	f, _, clk := newPeer(t, "self", nil, Config{Hub: hub})
	at := clk.Now()

	f.HandleDigest(digestFrom("peer-a", 5, transport.DigestSuspect{ID: "x", Level: 1}), at)
	f.HandleDigest(digestFrom("peer-a", 5, transport.DigestSuspect{ID: "x", Level: 9}), at) // replay
	f.HandleDigest(digestFrom("peer-a", 4, transport.DigestSuspect{ID: "x", Level: 9}), at) // older relay
	f.HandleDigest(digestFrom("self", 99, transport.DigestSuspect{ID: "y", Level: 9}), at)  // own frame echoed

	st := hub.Federation.Snapshot()
	if st.DigestsReceived != 1 || st.DigestsStale != 2 {
		t.Errorf("received %d stale %d, want 1 and 2", st.DigestsReceived, st.DigestsStale)
	}
	if st.DigestBeats != 1 {
		t.Errorf("digest beats = %d, want 1", st.DigestBeats)
	}
	info := f.ClusterInfo()
	if len(info.Peers) != 1 || info.Peers[0].Peer != "peer-a" || info.Peers[0].Seq != 5 {
		t.Fatalf("peers = %+v, want peer-a at seq 5", info.Peers)
	}
	for _, s := range info.Suspects {
		if s.ID == "x" && s.Level != 1 {
			t.Errorf("x level = %v, want 1 (replay must not overwrite)", s.Level)
		}
		if s.ID == "y" {
			t.Error("own echoed frame merged as a remote peer")
		}
	}

	f.HandleDigest(digestFrom("peer-a", 6, transport.DigestSuspect{ID: "x", Level: 2}), at)
	info = f.ClusterInfo()
	if info.Peers[0].Seq != 6 {
		t.Errorf("seq = %d, want advanced to 6", info.Peers[0].Seq)
	}
}

// TestMergeByFreshness pins the merge rule for a process reported by
// several origins: the smallest effective age (remote age plus local
// time since that digest arrived) wins.
func TestMergeByFreshness(t *testing.T) {
	f, _, clk := newPeer(t, "self", nil, Config{StaleAfter: time.Hour})
	f.HandleDigest(digestFrom("peer-a", 1,
		transport.DigestSuspect{ID: "x", Level: 4, Age: 10 * time.Second}), clk.Now())
	clk.Advance(5 * time.Second)
	// peer-b's report is newer: age 2s, and its digest arrived later.
	f.HandleDigest(digestFrom("peer-b", 1,
		transport.DigestSuspect{ID: "x", Level: 1, Age: 2 * time.Second}), clk.Now())
	clk.Advance(time.Second)

	info := f.ClusterInfo()
	var got *transport.ClusterSuspect
	for i := range info.Suspects {
		if info.Suspects[i].ID == "x" {
			got = &info.Suspects[i]
		}
	}
	if got == nil {
		t.Fatal("x missing from merged view")
	}
	if got.Owner != "peer-b" {
		t.Errorf("owner = %q, want peer-b (freshest last-arrival)", got.Owner)
	}
	// peer-a's view of x: age 10s + 6s elapsed = 16s; peer-b's: 2s + 1s.
	if got.AgeSeconds != 3 {
		t.Errorf("age = %v, want 3 (decayed by local elapsed time)", got.AgeSeconds)
	}
	if got.Level != 1 {
		t.Errorf("level = %v, want the owner's reported 1", got.Level)
	}
}

// TestStalenessDecay pins the decay contract: a silent peer crosses the
// staleness cutoff, its entries stay visible but flagged, its frames are
// no longer relayed, and the staleness gauge keeps counting up.
func TestStalenessDecay(t *testing.T) {
	f, _, clk := newPeer(t, "self", nil, Config{Interval: time.Second})
	// StaleAfter defaults to 10×Interval = 10s.
	f.HandleDigest(digestFrom("peer-a", 1, transport.DigestSuspect{ID: "x", Level: 2, Age: 0}), clk.Now())

	clk.Advance(5 * time.Second)
	info := f.ClusterInfo()
	if info.Peers[0].Stale {
		t.Error("peer stale after 5s with a 10s cutoff")
	}
	clk.Advance(6 * time.Second)
	info = f.ClusterInfo()
	if !info.Peers[0].Stale {
		t.Error("peer not stale after 11s with a 10s cutoff")
	}
	if info.Peers[0].StalenessSeconds != 11 {
		t.Errorf("staleness = %v, want 11", info.Peers[0].StalenessSeconds)
	}
	found := false
	for _, s := range info.Suspects {
		if s.ID == "x" {
			found = true
			if !s.Stale {
				t.Error("stale peer's suspect not flagged")
			}
			if s.AgeSeconds != 11 {
				t.Errorf("suspect age = %v, want decayed to 11", s.AgeSeconds)
			}
		}
	}
	if !found {
		t.Error("stale peer's suspect dropped; decay must flag, not erase")
	}
	var peers, staleness = 0, 0.0
	f.EachPeerStaleness(func(peer string, s float64) { peers++; staleness = s })
	if peers != 1 || staleness != 11 {
		t.Errorf("EachPeerStaleness: %d peers at %v, want 1 at 11", peers, staleness)
	}
}

// TestDigestBuildZeroAlloc is the acceptance gate: building and encoding
// a digest over a 100k-process registry allocates nothing in steady
// state, like the ingest and scrape paths it runs beside.
func TestDigestBuildZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-process registry build in -short mode")
	}
	if raceEnabled {
		t.Skip("race detector defeats sync.Pool reuse; allocation budget not meaningful")
	}
	f, mon, clk := newPeer(t, "self", func(id string) string { return id[:len("grp-00")] }, Config{})
	now := clk.Now()
	for i := 0; i < 100_000; i++ {
		id := fmt.Sprintf("grp-%02d-proc-%05d", i%32, i)
		if err := mon.Heartbeat(core.Heartbeat{From: id, Seq: 1, Arrived: now}); err != nil {
			t.Fatal(err)
		}
	}
	round := func() {
		if _, err := f.EncodeRound(); err != nil {
			t.Fatal(err)
		}
	}
	round() // warm: scratch grown, heap sized
	// The registry walk draws its scratch from a sync.Pool; a GC during
	// the measurement would empty it and count the refill against us.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if allocs := testing.AllocsPerRun(10, round); allocs != 0 {
		t.Errorf("digest build over 100k procs: %.1f allocs/op, want 0", allocs)
	}
}

// TestReceiveSteadyStateZeroAlloc pins the receive half: once an
// origin's peerState has grown, re-accepting its digests (interned
// strings, same shape) allocates nothing.
func TestReceiveSteadyStateZeroAlloc(t *testing.T) {
	f, _, clk := newPeer(t, "self", nil, Config{})
	d := digestFrom("peer-a", 0,
		transport.DigestSuspect{ID: "x", Level: 1, Age: time.Second},
		transport.DigestSuspect{ID: "y", Level: 2, Age: time.Second})
	at := clk.Now()
	d.Seq++
	f.HandleDigest(d, at) // warm: peerState allocated, raw buffer grown
	if allocs := testing.AllocsPerRun(1000, func() {
		d.Seq++
		f.HandleDigest(d, at)
	}); allocs != 0 {
		t.Errorf("steady-state digest accept: %.1f allocs/op, want 0", allocs)
	}
}

// recordConn is a gossip socket that keeps every frame written to it.
type recordConn struct {
	net.Conn
	frames [][]byte
}

func (c *recordConn) Write(p []byte) (int, error) {
	c.frames = append(c.frames, append([]byte(nil), p...))
	return len(p), nil
}

func (c *recordConn) Close() error { return nil }

// scrambled are remote origins in an order that is neither sorted nor
// reverse-sorted, heard from in that order.
var scrambled = []string{"peer-e", "peer-b", "peer-g", "peer-a", "peer-f", "peer-c", "peer-d"}

// TestRoundRelaysInOriginOrder: every round writes the own frame, then
// the relayed frames in ascending origin order, whatever order the
// origins were first heard from in.
func TestRoundRelaysInOriginOrder(t *testing.T) {
	conn := &recordConn{}
	f, _, clk := newPeer(t, "self", nil, Config{
		Peers: []string{"peer:1"},
		Dial:  func(string) (net.Conn, error) { return conn, nil },
	})
	want := append([]string{"self"}, scrambled...)
	slices.Sort(want[1:])
	var d transport.Digest
	for round := 1; round <= 20; round++ {
		for _, origin := range scrambled {
			f.HandleDigest(digestFrom(origin, uint64(round)), clk.Now())
		}
		conn.frames = conn.frames[:0]
		f.Round()
		var got []string
		for _, fr := range conn.frames {
			if err := transport.UnmarshalDigest(fr, &d, nil); err != nil {
				t.Fatal(err)
			}
			got = append(got, d.Origin)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("round %d wrote frames of %v, want %v", round, got, want)
		}
		clk.Advance(time.Second)
	}
}

// TestPeerStalenessLinesInOriginOrder: the federation's staleness gauges
// render one line per origin in ascending origin order, the same in
// every scrape, so a cursor concatenation and a single-shot scrape agree.
func TestPeerStalenessLinesInOriginOrder(t *testing.T) {
	hub := telemetry.NewHub()
	f, mon, clk := newPeer(t, "self", nil, Config{Hub: hub})
	for i, origin := range scrambled {
		f.HandleDigest(digestFrom(origin, 1), clk.Now())
		clk.Advance(time.Duration(i+1) * time.Second)
	}
	api := transport.NewAPI(mon, transport.WithAPITelemetry(hub), transport.WithClusterView(f))
	want := slices.Clone(scrambled)
	slices.Sort(want)
	const gauge = `accrual_federation_peer_staleness_seconds{peer="`
	for r := 0; r < 20; r++ {
		var buf bytes.Buffer
		if err := api.WriteMetrics(&buf); err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, line := range strings.Split(buf.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, gauge); ok {
				got = append(got, rest[:strings.IndexByte(rest, '"')])
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("render %d: staleness lines for %v, want %v", r, got, want)
		}
	}
}

// TestOwnerTieGoesToSmallestOrigin: two origins report one process at
// the same effective age; the merged view names the smaller origin its
// owner in every fresh federation, not whichever origin came first.
func TestOwnerTieGoesToSmallestOrigin(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		f, _, clk := newPeer(t, "self", nil, Config{})
		x := transport.DigestSuspect{ID: "x", Level: 2, Age: time.Second}
		f.HandleDigest(digestFrom("peer-b", 1, x), clk.Now())
		f.HandleDigest(digestFrom("peer-a", 1, x), clk.Now())
		info := f.ClusterInfo()
		if len(info.Suspects) != 1 || info.Suspects[0].Owner != "peer-a" {
			t.Fatalf("trial %d: suspects %+v, want x owned by peer-a", trial, info.Suspects)
		}
	}
}
