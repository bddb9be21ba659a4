// Package federation is the gossip plane that joins N accruald peers
// into one fleet view. Each peer periodically digests its own slice of
// the registry — the top-k most suspected processes plus an impact-style
// accrual rollup per group — into a single AFG1 frame
// (internal/transport) and gossips it to a random fanout of its
// configured peers, relaying the freshest frame it holds from every
// other origin along the way. Anti-entropy is by freshness: a digest is
// accepted only when its per-origin sequence number is strictly newer
// than the known state, and merged process entries are owned by
// whichever origin reported the most recent heartbeat arrival.
//
// The digest build runs on the registry's generation-guarded slab walk
// (service.Monitor.EachInfo): zero allocations in steady state and no
// global pause, so federating a daemon does not perturb the zero-alloc
// heartbeat ingest path it sits next to. Remote state decays rather than
// vanishes — suspect ages keep growing by local elapsed time and peers
// unheard past the staleness cutoff are flagged stale — so a partitioned
// peer's last known picture stays inspectable through GET /v1/cluster
// instead of silently disappearing.
package federation

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"net"
	"slices"
	"strings"
	"sync"
	"time"

	"accrual/internal/clock"
	"accrual/internal/service"
	"accrual/internal/stats"
	"accrual/internal/telemetry"
	"accrual/internal/transport"
)

// ErrBadConfig is wrapped by every Config validation error.
var ErrBadConfig = errors.New("federation: bad config")

// Defaults for Config fields left zero.
const (
	DefaultInterval = time.Second
	DefaultFanout   = 2
	DefaultTopK     = 64
	// DefaultStaleMultiple sets StaleAfter to this many intervals when
	// unset: a peer missing that many consecutive rounds (with fanout ≥ 2
	// each round, so many independent chances) is genuinely unreachable,
	// not just unlucky.
	DefaultStaleMultiple = 10
)

// Config parameterises one peer of the federation plane.
type Config struct {
	// Self is this daemon's origin name in gossiped digests — its -group.
	// Required; at most 255 bytes (it rides in every AFG1 frame).
	Self string
	// Peers are the gossip target addresses (host:port of the other
	// daemons' heartbeat sockets). May be empty: a peer with no targets
	// still accepts digests and serves the merged view.
	Peers []string
	// Monitor is the local registry digests are built from. Required.
	Monitor *service.Monitor
	// Interval is the gossip period its owner runs Round at (default
	// 1s); the default StaleAfter derives from it.
	Interval time.Duration
	// Fanout is how many random peers each round sends to (default 2,
	// clamped to the peer count; negative is a config error).
	Fanout int
	// TopK bounds the suspect records per digest (default 64, clamped to
	// transport.MaxDigestSuspects; negative is a config error).
	TopK int
	// StaleAfter is how long after its last accepted digest a peer is
	// flagged stale and excluded from relay (default 10×Interval).
	StaleAfter time.Duration
	// Hub receives the accrual_federation_* counters when non-nil.
	Hub *telemetry.Hub
	// Clock defaults to the wall clock.
	Clock clock.Clock
	// Dial opens the gossip socket to one peer address (default UDP).
	// Tests inject fault-wrapped conns here.
	Dial func(addr string) (net.Conn, error)
	// Seed feeds the peer-selection PRNG, so multi-peer tests are
	// deterministic (0 picks a fixed default).
	Seed uint64
}

// peerState is the last accepted digest from one origin, plus its
// re-encoded raw frame for relay. Slices are reused across accepts, so a
// steady-state receive path allocates nothing once every id has been
// interned by the listener's decoder.
type peerState struct {
	seq      uint64
	procs    uint32
	sent     time.Time
	arrived  time.Time
	suspects []transport.DigestSuspect
	groups   []transport.DigestGroup
	raw      []byte
}

// Federation is one peer of the gossip plane. It holds no goroutine: its
// owner calls Round once per gossip interval (accruald runs it on
// clock.Every) and Close at shutdown. HandleDigest is wired into the UDP
// listener via transport.WithDigestHandler; ClusterInfo and
// EachPeerStaleness implement transport.ClusterView for the HTTP API and
// metrics scrape.
type Federation struct {
	cfg Config
	mon *service.Monitor
	clk clock.Clock
	fed *telemetry.FederationCounters

	// mu guards everything below plus the build scratch; lock order is
	// mu → registry shard locks (via EachInfo), never the reverse.
	mu      sync.Mutex
	rng     interface{ IntN(int) int }
	seq     uint64
	remotes map[string]*peerState

	// Build scratch, reused every round so digest construction and the
	// gossip round are allocation-free in steady state.
	top      []transport.DigestSuspect
	groups   []transport.DigestGroup
	groupIdx map[string]int
	procs    uint32
	buildNow time.Time
	observe  func(service.ProcessInfo)
	dig      transport.Digest
	buf      []byte
	wire     []byte
	frames   [][2]int
	perm     []int

	// connMu guards the lazily dialled gossip sockets; writes happen
	// outside mu so a slow send never blocks the receive path.
	connMu sync.Mutex
	conns  map[string]net.Conn
}

// New validates cfg, applies defaults and returns an idle Federation;
// drive it with Round.
func New(cfg Config) (*Federation, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("%w: empty Self", ErrBadConfig)
	}
	if len(cfg.Self) > 255 {
		return nil, fmt.Errorf("%w: Self %d bytes (max 255)", ErrBadConfig, len(cfg.Self))
	}
	if cfg.Monitor == nil {
		return nil, fmt.Errorf("%w: nil Monitor", ErrBadConfig)
	}
	if cfg.Fanout < 0 {
		return nil, fmt.Errorf("%w: negative fanout %d", ErrBadConfig, cfg.Fanout)
	}
	if cfg.TopK < 0 {
		return nil, fmt.Errorf("%w: negative top-k %d", ErrBadConfig, cfg.TopK)
	}
	if cfg.Interval < 0 || cfg.StaleAfter < 0 {
		return nil, fmt.Errorf("%w: negative interval", ErrBadConfig)
	}
	for _, p := range cfg.Peers {
		if p == "" {
			return nil, fmt.Errorf("%w: empty peer address", ErrBadConfig)
		}
	}
	if cfg.Interval == 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.Fanout == 0 {
		cfg.Fanout = DefaultFanout
	}
	if cfg.TopK == 0 {
		cfg.TopK = DefaultTopK
	}
	if cfg.TopK > transport.MaxDigestSuspects {
		cfg.TopK = transport.MaxDigestSuspects
	}
	if cfg.StaleAfter == 0 {
		cfg.StaleAfter = DefaultStaleMultiple * cfg.Interval
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Wall{}
	}
	if cfg.Dial == nil {
		cfg.Dial = func(addr string) (net.Conn, error) { return net.Dial("udp", addr) }
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 0xacc4a1fed
	}
	f := &Federation{
		cfg:      cfg,
		mon:      cfg.Monitor,
		clk:      cfg.Clock,
		rng:      stats.NewRand(seed),
		remotes:  make(map[string]*peerState),
		groupIdx: make(map[string]int),
		conns:    make(map[string]net.Conn),
	}
	if cfg.Hub != nil {
		f.fed = &cfg.Hub.Federation
	} else {
		f.fed = new(telemetry.FederationCounters)
	}
	// The walk callback is created once: per-round closure construction
	// would be the only allocation left on the digest build path.
	f.observe = f.observeInfo
	return f, nil
}

// Close closes the gossip sockets. Call it once no Round is running; a
// later Round dials afresh.
func (f *Federation) Close() {
	f.connMu.Lock()
	for addr, c := range f.conns {
		_ = c.Close()
		delete(f.conns, addr)
	}
	f.connMu.Unlock()
}

// observeInfo folds one registry entry into the round's scratch: the
// per-group rollup and the bounded top-k suspect heap.
func (f *Federation) observeInfo(info service.ProcessInfo) {
	f.procs++
	gi, ok := f.groupIdx[info.Group]
	if !ok {
		gi = len(f.groups)
		f.groupIdx[info.Group] = gi
		f.groups = append(f.groups, transport.DigestGroup{Group: info.Group})
	}
	lvl := float64(info.Level)
	g := &f.groups[gi]
	g.Procs++
	if !math.IsNaN(lvl) {
		g.Impact += lvl
		if lvl > g.Max {
			g.Max = lvl
		}
	}
	age := f.buildNow.Sub(info.LastArrival)
	if age < 0 {
		age = 0
	}
	f.offerSuspect(transport.DigestSuspect{ID: info.ID, Level: lvl, Age: age})
}

// offerSuspect keeps the k largest levels in a hand-rolled min-heap
// (container/heap would box every push). NaN levels never displace a
// finite one: the comparison against the root is false.
func (f *Federation) offerSuspect(s transport.DigestSuspect) {
	h := f.top
	if len(h) < f.cfg.TopK {
		h = append(h, s)
		i := len(h) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !(h[i].Level < h[p].Level) {
				break
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
		f.top = h
		return
	}
	if len(h) == 0 || !(s.Level > h[0].Level) {
		return
	}
	h[0] = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && h[l].Level < h[min].Level {
			min = l
		}
		if r < len(h) && h[r].Level < h[min].Level {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

func suspectRank(a, b transport.DigestSuspect) int {
	if c := cmp.Compare(b.Level, a.Level); c != 0 {
		return c
	}
	return strings.Compare(a.ID, b.ID)
}

func groupRank(a, b transport.DigestGroup) int {
	return strings.Compare(a.Group, b.Group)
}

// buildSummary walks the registry into the round scratch: f.top holds
// the top-k suspects most suspected first, f.groups the per-group
// rollups sorted by name, f.procs the membership count. Caller holds
// f.mu. Steady-state allocation-free: the walk is the registry's
// lock-free slab walk and every slice and map here is reused.
func (f *Federation) buildSummary(now time.Time) {
	f.top = f.top[:0]
	f.groups = f.groups[:0]
	clear(f.groupIdx)
	f.procs = 0
	f.buildNow = now
	f.mon.EachInfo(f.observe)
	slices.SortFunc(f.top, suspectRank)
	slices.SortFunc(f.groups, groupRank)
	if len(f.groups) > transport.MaxDigestGroups {
		// More groups than one frame may carry: keep the first
		// MaxDigestGroups by name. A fleet with >256 groups per daemon has
		// outgrown per-frame rollups; the local /v1/cluster view is
		// unaffected (it renders before this trim is relevant).
		f.groups = f.groups[:transport.MaxDigestGroups]
	}
}

// encodeOwn builds and encodes this round's own digest into f.buf.
// Caller holds f.mu.
func (f *Federation) encodeOwn(now time.Time) error {
	f.buildSummary(now)
	f.seq++
	f.dig.Origin = f.cfg.Self
	f.dig.Seq = f.seq
	f.dig.Sent = now
	f.dig.Procs = f.procs
	for {
		f.dig.Suspects = f.top
		f.dig.Groups = f.groups
		buf, err := transport.AppendDigest(f.buf[:0], &f.dig)
		if err == nil {
			f.buf = buf
			return nil
		}
		if !errors.Is(err, transport.ErrDigestTooLarge) {
			return err
		}
		// Long ids can overflow one UDP payload before the record caps
		// do: shed the least suspected half and retry, then groups.
		switch {
		case len(f.top) > 0:
			f.top = f.top[:len(f.top)/2]
		case len(f.groups) > 0:
			f.groups = f.groups[:len(f.groups)/2]
		default:
			return err
		}
	}
}

// EncodeRound builds and encodes one digest round without putting it on
// the wire, returning the frame size — the hook the fdbench federation
// benchmark and the zero-alloc gate drive. It advances the digest
// sequence exactly like a gossiped round.
func (f *Federation) EncodeRound() (int, error) {
	now := f.clk.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.encodeOwn(now); err != nil {
		return 0, err
	}
	return len(f.buf), nil
}

// Round runs one gossip round: build and encode the own digest, pick a
// random fanout of peers, and send them the own frame plus the freshest
// raw frame of every non-stale origin.
func (f *Federation) Round() {
	now := f.clk.Now()
	f.mu.Lock()
	if err := f.encodeOwn(now); err != nil {
		f.mu.Unlock()
		return
	}
	// Copy every frame out under the lock: HandleDigest may overwrite a
	// peerState's raw frame the moment mu is released, and conn writes
	// must not run under mu (a slow socket would stall the receive path).
	f.wire = append(f.wire[:0], f.buf...)
	f.frames = f.frames[:0]
	f.frames = append(f.frames, [2]int{0, len(f.wire)})
	for _, st := range f.remotes {
		if now.Sub(st.arrived) > f.cfg.StaleAfter {
			continue
		}
		start := len(f.wire)
		f.wire = append(f.wire, st.raw...)
		f.frames = append(f.frames, [2]int{start, len(f.wire)})
	}
	targets := f.pickPeers()
	f.mu.Unlock()

	for _, ti := range targets {
		addr := f.cfg.Peers[ti]
		c, err := f.conn(addr)
		if err != nil {
			continue
		}
		for _, fr := range f.frames {
			if _, err := c.Write(f.wire[fr[0]:fr[1]]); err != nil {
				f.dropConn(addr, c)
				break
			}
			f.fed.DigestsSent.Add(1)
		}
	}
}

// pickPeers draws min(fanout, len(peers)) distinct peer indices by
// partial Fisher-Yates over the reused permutation scratch. Caller holds
// f.mu (the PRNG lives under it).
func (f *Federation) pickPeers() []int {
	n := len(f.cfg.Peers)
	k := f.cfg.Fanout
	if k > n {
		k = n
	}
	if cap(f.perm) < n {
		f.perm = make([]int, n)
	}
	f.perm = f.perm[:n]
	for i := range f.perm {
		f.perm[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + f.rng.IntN(n-i)
		f.perm[i], f.perm[j] = f.perm[j], f.perm[i]
	}
	return f.perm[:k]
}

func (f *Federation) conn(addr string) (net.Conn, error) {
	f.connMu.Lock()
	defer f.connMu.Unlock()
	if c, ok := f.conns[addr]; ok {
		return c, nil
	}
	c, err := f.cfg.Dial(addr)
	if err != nil {
		return nil, err
	}
	f.conns[addr] = c
	return c, nil
}

func (f *Federation) dropConn(addr string, c net.Conn) {
	_ = c.Close()
	f.connMu.Lock()
	if f.conns[addr] == c {
		delete(f.conns, addr)
	}
	f.connMu.Unlock()
}

// HandleDigest is the listener callback (transport.WithDigestHandler):
// it merges one decoded AFG1 frame into the remote view. The digest is
// the listener's decode scratch, valid only for the call, so everything
// is copied into the origin's reused peerState. Acceptance is guarded by
// the per-origin sequence number — strictly newer wins, anything else is
// a relay that lost the race and is dropped as stale. Self-originated
// frames (our own digest relayed back) are ignored.
func (f *Federation) HandleDigest(d *transport.Digest, arrived time.Time) {
	if d.Origin == f.cfg.Self {
		return
	}
	f.mu.Lock()
	st, ok := f.remotes[d.Origin]
	if !ok {
		st = new(peerState)
		f.remotes[d.Origin] = st
	}
	if !st.arrived.IsZero() && d.Seq <= st.seq {
		f.mu.Unlock()
		f.fed.DigestsStale.Add(1)
		return
	}
	st.seq = d.Seq
	st.procs = d.Procs
	st.sent = d.Sent
	st.arrived = arrived
	st.suspects = append(st.suspects[:0], d.Suspects...)
	st.groups = append(st.groups[:0], d.Groups...)
	// Re-encode for relay rather than retaining the wire buffer: the
	// listener reuses its read buffer, and an append into st.raw is
	// allocation-free once the capacity has grown.
	st.raw, _ = transport.AppendDigest(st.raw[:0], d)
	f.mu.Unlock()
	f.fed.DigestsReceived.Add(1)
	f.fed.DigestBeats.Add(uint64(len(d.Suspects)))
}

// jsonLevel clamps non-finite levels so the /v1/cluster response stays
// valid JSON (mirrors the HTTP layer's clamp for local levels).
func jsonLevel(l float64) float64 {
	switch {
	case math.IsInf(l, 1) || math.IsNaN(l):
		return math.MaxFloat64
	case math.IsInf(l, -1):
		return -math.MaxFloat64
	}
	return l
}

// ClusterInfo implements transport.ClusterView: the merged fleet view of
// the local slice plus every origin's digested view. Remote suspect ages
// decay by local elapsed time since the digest arrived; when two origins
// report the same process id, the entry with the smallest effective age
// (the freshest last-arrival) wins. Peers past the staleness cutoff are
// flagged stale, and so are their entries, but nothing is dropped.
func (f *Federation) ClusterInfo() transport.ClusterInfo {
	now := f.clk.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	info := transport.ClusterInfo{
		Self:            f.cfg.Self,
		Now:             now,
		ConfiguredPeers: f.cfg.Peers,
		Peers:           []transport.ClusterPeer{},
		Groups:          []transport.ClusterGroup{},
	}
	f.buildSummary(now)
	merged := make(map[string]transport.ClusterSuspect, len(f.top))
	for _, s := range f.top {
		merged[s.ID] = transport.ClusterSuspect{
			ID:         s.ID,
			Level:      jsonLevel(s.Level),
			AgeSeconds: s.Age.Seconds(),
		}
	}
	for _, g := range f.groups {
		info.Groups = append(info.Groups, transport.ClusterGroup{
			Group:  g.Group,
			Procs:  g.Procs,
			Impact: jsonLevel(g.Impact),
			Max:    jsonLevel(g.Max),
		})
	}
	for origin, st := range f.remotes {
		staleness := now.Sub(st.arrived)
		stale := staleness > f.cfg.StaleAfter
		info.Peers = append(info.Peers, transport.ClusterPeer{
			Peer:             origin,
			Seq:              st.seq,
			Procs:            st.procs,
			StalenessSeconds: staleness.Seconds(),
			Stale:            stale,
		})
		for _, s := range st.suspects {
			age := s.Age + staleness
			cur, dup := merged[s.ID]
			if dup && cur.AgeSeconds <= age.Seconds() {
				continue
			}
			merged[s.ID] = transport.ClusterSuspect{
				ID:         s.ID,
				Owner:      origin,
				Level:      jsonLevel(s.Level),
				AgeSeconds: age.Seconds(),
				Stale:      stale,
			}
		}
		for _, g := range st.groups {
			info.Groups = append(info.Groups, transport.ClusterGroup{
				Group:  g.Group,
				Owner:  origin,
				Procs:  g.Procs,
				Impact: jsonLevel(g.Impact),
				Max:    jsonLevel(g.Max),
				Stale:  stale,
			})
		}
	}
	info.Suspects = make([]transport.ClusterSuspect, 0, len(merged))
	for _, s := range merged {
		info.Suspects = append(info.Suspects, s)
	}
	slices.SortFunc(info.Suspects, func(a, b transport.ClusterSuspect) int {
		if c := cmp.Compare(b.Level, a.Level); c != 0 {
			return c
		}
		return strings.Compare(a.ID, b.ID)
	})
	slices.SortFunc(info.Peers, func(a, b transport.ClusterPeer) int {
		return strings.Compare(a.Peer, b.Peer)
	})
	slices.SortFunc(info.Groups, func(a, b transport.ClusterGroup) int {
		if c := strings.Compare(a.Owner, b.Owner); c != 0 {
			return c
		}
		return strings.Compare(a.Group, b.Group)
	})
	return info
}

// EachPeerStaleness implements transport.ClusterView for the metrics
// scrape: seconds since each origin's last accepted digest,
// allocation-free.
func (f *Federation) EachPeerStaleness(fn func(peer string, stalenessSeconds float64)) {
	now := f.clk.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	for origin, st := range f.remotes {
		fn(origin, now.Sub(st.arrived).Seconds())
	}
}

var _ transport.ClusterView = (*Federation)(nil)
