package transport

import (
	"errors"
	"fmt"
	"log"
	"net"
	"slices"
	"sync"
	"time"

	"accrual/internal/clock"
	"accrual/internal/core"
	"accrual/internal/service"
	"accrual/internal/stats"
	"accrual/internal/telemetry"
	"accrual/internal/transport/intern"
)

const (
	// defaultReadBatch is the number of datagrams the listener tries to
	// drain per read syscall where recvmmsg is available (see
	// WithReadBatch). One is the plain-read path.
	defaultReadBatch = 16
	// maxReadBatch bounds WithReadBatch; each slot pins a full
	// MaxBatchPacketSize buffer for the life of the listener.
	maxReadBatch = 256
	// senderRedialAfter is how many consecutive write failures tear down
	// the connected socket and switch the sender to backoff redialing. A
	// connected UDP socket can fail transiently (ICMP unreachable races),
	// so a single error is not worth a teardown.
	senderRedialAfter = 3
	// senderLogInterval rate-limits failure logging: at most one line per
	// interval per sender, with a suppressed-message count.
	senderLogInterval = time.Minute
	// Default redial backoff bounds; see WithSenderBackoff.
	defaultBackoffMin = time.Second
	defaultBackoffMax = 30 * time.Second
)

// SenderHealth is a point-in-time view of one sender's delivery health,
// the per-target signal MultiSender.Health aggregates for redundant
// monitoring layouts.
type SenderHealth struct {
	// Target is the configured destination address.
	Target string
	// Connected reports whether the sender currently holds a socket. A
	// disconnected sender is redialing with backoff.
	Connected bool
	// ConsecutiveFailures counts send failures since the last success.
	ConsecutiveFailures int
	// SendFailures counts heartbeats that never made the wire: write
	// errors plus ticks skipped while awaiting a redial backoff.
	SendFailures uint64
	// Redials counts reconnection attempts (each re-resolves the target).
	Redials uint64
	// LastError is the most recent dial or write error (nil if none).
	LastError error
	// LastSuccess is the sender-clock time of the last successful send
	// (zero before the first).
	LastSuccess time.Time
}

// Sender periodically emits heartbeats for one process over UDP — the
// monitored side of the simple implementation (§5.1). Create one with
// NewSender, start it with Start and stop it with Stop; the goroutine is
// always joined on Stop.
//
// A sender survives a dead target: after senderRedialAfter consecutive
// write failures it closes the socket and redials with exponential
// backoff plus jitter. Every redial goes through the dialer (net.Dial by
// default), which re-resolves the target address — a monitor that moved
// behind a DNS name is picked up without restarting the sender. Failures
// are counted (WithSenderTelemetry) and logged at most once per minute.
type Sender struct {
	id       string
	ids      []string // all process ids this sender beats for (ids[0] == id)
	target   string
	interval time.Duration
	clk      clock.Clock
	dial     func(target string) (net.Conn, error)

	backoffMin time.Duration
	backoffMax time.Duration

	// Batch coalescing (WithBatch): beats accumulate in pending and are
	// flushed as one AFB1 frame per target once batchMax beats are held
	// or the oldest pending beat has waited batchDelay.
	batchMax   int
	batchDelay time.Duration

	tel *telemetry.TransportCounters

	mu         sync.Mutex
	conn       net.Conn
	seq        uint64
	done       chan struct{}
	stopped    chan struct{}
	consecFail int
	lastErr    error
	lastOK     time.Time
	backoff    time.Duration
	nextRedial time.Time
	jitter     func() float64

	// Loop-goroutine-only state: the encode buffers and the pending
	// batch are touched exclusively by the single loop goroutine, so
	// they need no locking and are reused beat after beat.
	encBuf  []byte
	benc    *BatchEncoder
	pending []core.Heartbeat

	logMu      sync.Mutex
	lastLogAt  time.Time
	suppressed int
}

// SenderOption configures a Sender.
type SenderOption func(*Sender)

// WithSenderClock substitutes the clock used for the Sent timestamps
// (default: the wall clock).
func WithSenderClock(clk clock.Clock) SenderOption {
	return func(s *Sender) { s.clk = clk }
}

// WithSenderDialer substitutes the function used to (re)connect to the
// target (default: net.Dial("udp", target)). Tests inject flaky or
// fault-wrapped connections here; every redial calls it afresh, so the
// default re-resolves DNS on each attempt.
func WithSenderDialer(dial func(target string) (net.Conn, error)) SenderOption {
	return func(s *Sender) {
		if dial != nil {
			s.dial = dial
		}
	}
}

// WithSenderBackoff bounds the redial backoff: the first redial waits
// min, each failed attempt doubles the wait up to max, and every wait is
// jittered ±25% so a fleet of senders does not redial in lockstep.
// Non-positive values keep the defaults (1s..30s).
func WithSenderBackoff(min, max time.Duration) SenderOption {
	return func(s *Sender) {
		if min > 0 {
			s.backoffMin = min
		}
		if max > 0 {
			s.backoffMax = max
		}
		if s.backoffMax < s.backoffMin {
			s.backoffMax = s.backoffMin
		}
	}
}

// WithSenderTelemetry points the sender's failure counters at a shared
// telemetry hub, so send failures and redials show up on /v1/metrics of
// a daemon that also emits heartbeats.
func WithSenderTelemetry(hub *telemetry.Hub) SenderOption {
	return func(s *Sender) { s.tel = &hub.Transport }
}

// WithBatch switches the sender to coalesced AFB1 batch frames: beats
// accumulate and are flushed as one datagram once maxBeats are pending
// or the oldest pending beat has waited maxDelay, whichever comes first.
// A maxDelay of zero flushes at every heartbeat round — for a group
// sender that still folds the whole round into one datagram with no
// added latency, while maxDelay > 0 additionally coalesces across
// rounds, trading up to maxDelay of detection latency for fewer
// syscalls and datagrams (see docs/TUNING.md, "Batching and
// coalescing"). maxBeats below 1 falls back to 1; the target must run a
// batch-aware listener (anything since the AFB1 frame landed).
func WithBatch(maxBeats int, maxDelay time.Duration) SenderOption {
	return func(s *Sender) {
		if maxBeats < 1 {
			maxBeats = 1
		}
		if maxBeats > MaxBatchBeats {
			maxBeats = MaxBatchBeats
		}
		s.batchMax = maxBeats
		if maxDelay > 0 {
			s.batchDelay = maxDelay
		}
	}
}

// NewSender returns a heartbeat sender for process id targeting the UDP
// address target (host:port), sending every interval.
func NewSender(id, target string, interval time.Duration, opts ...SenderOption) (*Sender, error) {
	return NewGroupSender([]string{id}, target, interval, opts...)
}

// NewGroupSender returns one sender heartbeating for every process id in
// ids — the node-agent layout where a single host emits beats for many
// local processes. Each heartbeat round emits one beat per id; combined
// with WithBatch the whole round coalesces into one datagram instead of
// len(ids) of them. All ids share the round's sequence number, which is
// strictly increasing per process, exactly what the monitor's staleness
// tracking needs.
func NewGroupSender(ids []string, target string, interval time.Duration, opts ...SenderOption) (*Sender, error) {
	if len(ids) == 0 {
		return nil, ErrEmptyID
	}
	for _, id := range ids {
		if id == "" {
			return nil, ErrEmptyID
		}
		if len(id) > maxIDLen {
			return nil, fmt.Errorf("%w: %d bytes", ErrIDTooLong, len(id))
		}
	}
	if interval <= 0 {
		return nil, fmt.Errorf("transport: non-positive heartbeat interval %v", interval)
	}
	s := &Sender{
		id:         ids[0],
		ids:        append([]string(nil), ids...),
		target:     target,
		interval:   interval,
		clk:        clock.Wall{},
		dial:       func(target string) (net.Conn, error) { return net.Dial("udp", target) },
		backoffMin: defaultBackoffMin,
		backoffMax: defaultBackoffMax,
		tel:        new(telemetry.TransportCounters),
	}
	rng := stats.NewRand(uint64(time.Now().UnixNano()))
	s.jitter = rng.Float64
	for _, opt := range opts {
		opt(s)
	}
	if len(s.ids) > 1 && s.batchMax == 0 {
		// A group sender without batching would need one datagram per id
		// per round anyway; default it into per-round coalescing.
		s.batchMax = len(s.ids)
	}
	return s, nil
}

// Start dials the target and launches the heartbeat loop. The first
// heartbeat is sent immediately so the monitor learns about the process
// without waiting a full interval. An initial dial failure is returned
// (fail fast on misconfiguration); failures after a successful Start are
// handled by the redial machinery instead.
func (s *Sender) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done != nil {
		return fmt.Errorf("transport: sender %q already started", s.id)
	}
	conn, err := s.dial(s.target)
	if err != nil {
		return fmt.Errorf("transport: dial %s: %w", s.target, err)
	}
	s.conn = conn
	s.consecFail = 0
	s.backoff = 0
	s.nextRedial = time.Time{}
	s.done = make(chan struct{})
	s.stopped = make(chan struct{})
	go s.loop(s.done, s.stopped)
	return nil
}

func (s *Sender) loop(done <-chan struct{}, stopped chan<- struct{}) {
	defer close(stopped)
	ticker := time.NewTicker(s.interval)
	defer ticker.Stop()
	if s.batchMax > 0 {
		s.batchLoop(done, ticker)
		return
	}
	s.sendOne(done)
	for {
		select {
		case <-done:
			return
		case <-ticker.C:
			s.sendOne(done)
		}
	}
}

// batchLoop is the coalescing variant of the send loop: every heartbeat
// round collects one beat per process id into pending, full frames
// (batchMax beats) flush immediately, and a partial remainder flushes
// once its oldest beat has waited batchDelay (immediately when the
// delay is zero). Stop flushes whatever is pending, so no collected
// beat is silently lost.
func (s *Sender) batchLoop(done <-chan struct{}, ticker *time.Ticker) {
	if s.benc == nil {
		s.benc = NewBatchEncoder(s.batchMax)
	}
	flush := time.NewTimer(time.Hour)
	if !flush.Stop() {
		<-flush.C
	}
	armed := false
	disarm := func() {
		if armed && !flush.Stop() {
			select {
			case <-flush.C:
			default:
			}
		}
		armed = false
	}
	round := func() {
		s.collectRound()
		for len(s.pending) >= s.batchMax {
			s.flushBatch(done, s.batchMax)
		}
		if len(s.pending) == 0 || s.batchDelay == 0 {
			s.flushBatch(done, len(s.pending))
			disarm()
			return
		}
		if !armed {
			flush.Reset(s.batchDelay)
			armed = true
		}
	}
	round()
	for {
		select {
		case <-done:
			// Final flush: the socket is still open (Stop closes it only
			// after this loop exits), so held beats make the wire.
			for len(s.pending) > 0 {
				s.flushBatch(done, s.batchMax)
			}
			return
		case <-ticker.C:
			round()
		case <-flush.C:
			armed = false
			for len(s.pending) > 0 {
				s.flushBatch(done, s.batchMax)
			}
		}
	}
}

// collectRound appends one beat per process id to pending. All ids share
// the round's sequence number — strictly increasing per process, which
// is all the monitor's staleness tracking requires.
func (s *Sender) collectRound() {
	s.mu.Lock()
	s.seq++
	seq := s.seq
	s.mu.Unlock()
	now := s.clk.Now()
	for _, id := range s.ids {
		s.pending = append(s.pending, core.Heartbeat{From: id, Seq: seq, Sent: now})
	}
}

// flushBatch encodes up to max pending beats as one AFB1 frame and
// sends it. Beats that cannot be sent (backoff, write error) are
// dropped and counted as send failures — during an outage the next
// round's beats carry strictly fresher information, so retaining a
// backlog would only delay recovery and bloat memory.
func (s *Sender) flushBatch(done <-chan struct{}, max int) {
	if max > len(s.pending) {
		max = len(s.pending)
	}
	if max <= 0 {
		return
	}
	s.benc.Reset()
	n := 0
	for n < max {
		if err := s.benc.Add(s.pending[n]); err != nil {
			// Frame byte budget reached; the rest rides the next flush.
			// Unreachable at n==0: one record always fits an empty frame
			// and ids were validated at construction.
			break
		}
		n++
	}
	if n == 0 {
		n = 1 // defensive: never livelock on an unencodable beat
	} else if frame := s.benc.Bytes(); frame != nil {
		sent := s.pending[n-1].Sent
		if conn, ok := s.acquireConn(done, n); ok {
			s.writeFrame(conn, frame, n, sent)
		}
	}
	s.pending = append(s.pending[:0], s.pending[n:]...)
}

// sendOne emits one single-beat AFD1 heartbeat, redialing first if the
// socket was torn down and its backoff has elapsed. The encode buffer is
// reused across beats, so the steady-state send path does not allocate.
func (s *Sender) sendOne(done <-chan struct{}) {
	conn, ok := s.acquireConn(done, 1)
	if !ok {
		return
	}
	s.mu.Lock()
	s.seq++
	hb := core.Heartbeat{From: s.id, Seq: s.seq, Sent: s.clk.Now()}
	s.mu.Unlock()
	var err error
	s.encBuf, err = AppendHeartbeat(s.encBuf[:0], hb)
	if err != nil {
		return // cannot happen: id validated at construction
	}
	s.writeFrame(conn, s.encBuf, 1, hb.Sent)
}

// acquireConn returns the live socket, redialing first when the sender
// is disconnected and its backoff has elapsed. ok=false means no socket
// this round — backoff still pending, the redial failed, or the sender
// is stopping — with the missed beats counted as send failures.
func (s *Sender) acquireConn(done <-chan struct{}, beats int) (net.Conn, bool) {
	s.mu.Lock()
	conn := s.conn
	if conn == nil {
		if time.Now().Before(s.nextRedial) {
			s.tel.SendFailures.Add(uint64(beats))
			s.mu.Unlock()
			return nil, false
		}
		s.tel.Redials.Add(1)
		s.mu.Unlock()
		c, err := s.dial(s.target) // outside the lock: dialing may block on DNS
		s.mu.Lock()
		select {
		case <-done:
			// Stopped while dialing; don't resurrect the connection.
			if c != nil {
				_ = c.Close()
			}
			s.mu.Unlock()
			return nil, false
		default:
		}
		if err != nil {
			s.tel.SendFailures.Add(uint64(beats))
			s.consecFail++
			s.lastErr = err
			s.scheduleRedialLocked()
			s.mu.Unlock()
			s.logLimited("redial %s: %v", s.target, err)
			return nil, false
		}
		s.conn = c
		conn = c
	}
	s.mu.Unlock()
	return conn, true
}

// writeFrame writes one encoded frame carrying beats heartbeats and
// handles the failure accounting: errors count per beat, and after
// senderRedialAfter consecutive failing frames the socket is torn down
// and the next rounds redial (re-resolving the target) with backoff —
// so an unreachable target costs counted skips, not a log line per
// tick forever.
func (s *Sender) writeFrame(conn net.Conn, frame []byte, beats int, sent time.Time) bool {
	if _, err := conn.Write(frame); err != nil {
		s.mu.Lock()
		s.tel.SendFailures.Add(uint64(beats))
		s.consecFail++
		s.lastErr = err
		if s.consecFail >= senderRedialAfter && s.conn == conn {
			_ = conn.Close()
			s.conn = nil
			s.scheduleRedialLocked()
		}
		s.mu.Unlock()
		s.logLimited("send to %s: %v", s.target, err)
		return false
	}
	s.mu.Lock()
	s.consecFail = 0
	s.backoff = 0
	s.lastErr = nil
	s.lastOK = sent
	s.mu.Unlock()
	return true
}

// scheduleRedialLocked doubles the backoff (bounded by backoffMax) and
// sets the next redial time with ±25% jitter. Caller holds s.mu.
func (s *Sender) scheduleRedialLocked() {
	if s.backoff == 0 {
		s.backoff = s.backoffMin
	} else {
		s.backoff *= 2
		if s.backoff > s.backoffMax {
			s.backoff = s.backoffMax
		}
	}
	jittered := time.Duration(float64(s.backoff) * (0.75 + 0.5*s.jitter()))
	s.nextRedial = time.Now().Add(jittered)
}

// logLimited logs at most once per senderLogInterval, folding the
// intervening failures into a suppressed count on the next line.
func (s *Sender) logLimited(format string, args ...any) {
	now := time.Now()
	s.logMu.Lock()
	if !s.lastLogAt.IsZero() && now.Sub(s.lastLogAt) < senderLogInterval {
		s.suppressed++
		s.logMu.Unlock()
		return
	}
	s.lastLogAt = now
	n := s.suppressed
	s.suppressed = 0
	s.logMu.Unlock()
	msg := fmt.Sprintf(format, args...)
	if n > 0 {
		log.Printf("transport: sender %q: %s (%d similar suppressed)", s.id, msg, n)
		return
	}
	log.Printf("transport: sender %q: %s", s.id, msg)
}

// Sent returns the number of heartbeat rounds emitted so far (for a
// group sender each round carries one beat per process id). The
// sequence is monotone across Stop/Start cycles.
func (s *Sender) Sent() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Health reports the sender's current delivery health.
func (s *Sender) Health() SenderHealth {
	st := s.tel.Snapshot()
	s.mu.Lock()
	defer s.mu.Unlock()
	return SenderHealth{
		Target:              s.target,
		Connected:           s.conn != nil,
		ConsecutiveFailures: s.consecFail,
		SendFailures:        st.SendFailures,
		Redials:             st.Redials,
		LastError:           s.lastErr,
		LastSuccess:         s.lastOK,
	}
}

// Stop terminates the heartbeat loop and waits for it to exit. Stop is
// idempotent, and a stopped sender can be started again (the sequence
// numbers continue where they left off).
func (s *Sender) Stop() {
	s.mu.Lock()
	done, stopped := s.done, s.stopped
	s.done, s.stopped = nil, nil
	s.mu.Unlock()
	if done == nil {
		return
	}
	close(done)
	<-stopped
	// The socket outlives the loop join on purpose: a coalescing loop
	// performs its final flush of held beats on the way out.
	s.mu.Lock()
	conn := s.conn
	s.conn = nil
	s.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
}

// Listener receives heartbeats over UDP and feeds them into a
// service.Monitor, stamping arrival times with the monitor host's clock —
// the monitoring side of §5.1. Create one with Listen; Close stops and
// joins the read loop.
//
// Every heartbeat takes one path from the socket to its registry slot,
// on the read loop itself: decode → resolve → report. The loop validates
// each datagram — an AFB1 frame, or an AFD1 datagram as its one-record
// case — and hands each record, its id still the bytes of the read
// buffer, to Monitor.HeartbeatID. A known id costs one intern.Hash and
// one probe of its registry shard's index; the beat is reported in
// place, with no allocation. A first-contact id is converted to a string
// once, and the registry keeps that string as the binding's id. There
// is no queue between socket and slot: under overload the socket's
// receive buffer is the queue, and what the kernel drops is the same
// loss the detectors already tolerate from the network.
type Listener struct {
	conn      *net.UDPConn
	clk       clock.Clock
	mon       *service.Monitor
	readSlots int
	internCap int

	stopped chan struct{}

	// ids canonicalises AFG1 digest ids: the ids of a peer's digest
	// repeat round after round, so each is stored once. Heartbeat ids
	// never reach it; the registry stores those itself.
	ids *IDInterner

	// tel counts packet dispositions. It defaults to a listener-private
	// instance and is redirected to a shared hub by WithTelemetry, so
	// the counting code never branches on "telemetry enabled".
	tel *telemetry.TransportCounters

	// digestFn, when set via WithDigestHandler, receives decoded AFG1
	// suspicion digests from federated peers. Without it digest frames
	// are decoded (and counted) but ignored — a non-federated daemon
	// tolerates a misdirected peer without log spam.
	digestFn func(d *Digest, arrived time.Time)

	// Read-loop state, touched only by the read goroutine and reused
	// datagram after datagram: the socket's counter cell, the beats of
	// senders awaiting registration, and the digest decode scratch (the
	// digest handler must copy anything it keeps).
	cell  *telemetry.SocketCell
	fresh []core.Heartbeat
	dig   Digest
}

// ListenerOption configures a Listener.
type ListenerOption func(*Listener)

// WithListenerClock substitutes the clock used for arrival timestamps
// (default: the wall clock).
func WithListenerClock(clk clock.Clock) ListenerOption {
	return func(l *Listener) { l.clk = clk }
}

// WithTelemetry points the listener's packet counters at a shared
// telemetry hub, so the daemon's /v1/metrics scrape sees transport
// dispositions alongside the monitor counters.
func WithTelemetry(hub *telemetry.Hub) ListenerOption {
	return func(l *Listener) { l.tel = &hub.Transport }
}

// WithReadBatch sets how many datagrams the read loop tries to drain per
// read syscall (default 16, clamped to 1..256). On Linux amd64/arm64 the
// loop uses recvmmsg(2), so a burst of n datagrams costs one syscall
// instead of n; elsewhere — and with n == 1 — it degrades to one plain
// read per datagram with identical semantics. Arrival timestamps are
// stamped once per drained batch: beats in one batch share an Arrived
// time, which at worst skews an inter-arrival sample by the in-batch
// decode time (microseconds against heartbeat intervals of milliseconds
// or more).
func WithReadBatch(n int) ListenerOption {
	return func(l *Listener) {
		if n < 1 {
			n = 1
		}
		if n > maxReadBatch {
			n = maxReadBatch
		}
		l.readSlots = n
	}
}

// WithDigestHandler routes decoded AFG1 suspicion digests (gossiped by
// federated accruald peers, sharing the heartbeat port) to fn, called
// from the read loop with the frame's arrival time. The digest is the
// loop's reused decode scratch: fn must copy whatever it keeps. A nil fn
// keeps the default of decoding and ignoring digest frames.
func WithDigestHandler(fn func(d *Digest, arrived time.Time)) ListenerOption {
	return func(l *Listener) { l.digestFn = fn }
}

// WithInternCapacity bounds the listener's digest-id intern table at n
// ids (default intern.DefaultCapacity; n <= 0 keeps the default). Beyond
// the bound, a new digest id is converted without being remembered and
// counted in accrual_intern_overflow_total.
func WithInternCapacity(n int) ListenerOption {
	return func(l *Listener) {
		if n > 0 {
			l.internCap = n
		}
	}
}

// Listen binds a UDP socket on addr (host:port, port 0 for ephemeral)
// and starts forwarding decoded heartbeats to mon.
func Listen(addr string, mon *service.Monitor, opts ...ListenerOption) (*Listener, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %s: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	l := newListener(mon, opts...)
	l.conn = conn
	l.cell = &l.tel.RegisterSockets(1)[0]
	go l.run()
	return l, nil
}

// newListener applies the options and builds the intern table. It opens
// no socket and starts no goroutine.
func newListener(mon *service.Monitor, opts ...ListenerOption) *Listener {
	l := &Listener{
		clk:       clock.Wall{},
		mon:       mon,
		readSlots: defaultReadBatch,
		stopped:   make(chan struct{}),
		tel:       new(telemetry.TransportCounters),
	}
	for _, opt := range opts {
		opt(l)
	}
	// Built after the options so the overflow counter lands on the final
	// (possibly hub-shared) TransportCounters.
	iopts := []intern.Option{intern.WithOverflowCounter(&l.tel.InternOverflow)}
	if l.internCap > 0 {
		iopts = append(iopts, intern.WithCapacity(l.internCap))
	}
	l.ids = intern.New(iopts...)
	return l
}

// Addr returns the bound UDP address.
func (l *Listener) Addr() net.Addr { return l.conn.LocalAddr() }

// readOne is the shared single-datagram read used by the portable
// fallback and by single-slot readers. conn.Read (not ReadFromUDP) keeps
// the path allocation-free: the source address is discarded anyway.
func (br *batchReader) readOne() (int, error) {
	n, err := br.conn.Read(br.bufs[0])
	if err != nil {
		return 0, err
	}
	br.sizes[0] = n
	return 1, nil
}

// run is the read loop: drain datagrams (recvmmsg where available) and
// handle each. Once the socket is closed it releases Close.
func (l *Listener) run() {
	defer close(l.stopped)
	br := newBatchReader(l.conn, l.readSlots)
	for {
		n, err := br.read()
		if err != nil {
			return // closed
		}
		l.cell.Batches.Add(1)
		l.cell.Packets.Add(uint64(n))
		// One clock read per drained batch: every datagram pulled by this
		// syscall was already on the socket, so one timestamp is the most
		// honest arrival time available for all of them.
		arrived := l.clk.Now()
		for i := 0; i < n; i++ {
			l.handleDatagram(br.bufs[i][:br.sizes[i]], arrived)
		}
	}
}

// handleDatagram handles one datagram, told apart by its magic: an AFG1
// digest goes to the digest handler; an AFB1 frame, or an AFD1 datagram
// as its one-record case, is validated whole and each record reported to
// the monitor, stamped with arrived. It counts the datagram's
// disposition either way; the accrual_udp_batch* counters see AFB1
// frames only.
func (l *Listener) handleDatagram(buf []byte, arrived time.Time) {
	l.tel.PacketsReceived.Add(1)
	if IsDigestFrame(buf) {
		if err := UnmarshalDigest(buf, &l.dig, l.ids); err != nil {
			l.countDecodeError(err)
			return
		}
		if l.digestFn != nil {
			l.digestFn(&l.dig, arrived)
		}
		return
	}
	off, n := headerLen-1, 1
	var err error
	if IsBatchFrame(buf) {
		off = batchHeaderLen
		if n, err = batchRecords(buf); err == nil {
			l.tel.ObserveBatch(n)
		}
	} else {
		err = checkSingle(buf)
	}
	if err != nil {
		l.countDecodeError(err)
		return
	}
	var delivered, rejected uint64
	l.fresh = l.fresh[:0]
	for i := 0; i < n; i++ {
		id, hb, next := decodeRecord(buf, off)
		off = next
		hb.Arrived = arrived
		if l.mon.HeartbeatID(id, hb) {
			delivered++
			continue
		}
		// First contact: this conversion is the id's one allocation; the
		// registry keeps the string when it binds the sender below.
		hb.From = string(id)
		l.fresh = append(l.fresh, hb)
	}
	if len(l.fresh) > 0 {
		// New senders are registered after the known ones, in registry-
		// shard order. Walks (scrape, top-k, sampling, digests) visit the
		// registry shard by shard, and a binding's per-process objects are
		// allocated when it is bound, so a burst bound in shard order is
		// laid out in the order the walks read it; bound in arrival order,
		// a fleet registering in bulk made the read-heavy benchmark's
		// top-k and scrape walks ~20% dearer. The sort is stable, so one
		// process's beats keep their order.
		mask := uint32(l.mon.ShardCount() - 1)
		slices.SortStableFunc(l.fresh, func(a, b core.Heartbeat) int {
			return int(intern.Hash(a.From)&mask) - int(intern.Hash(b.From)&mask)
		})
		acc, rej := l.mon.HeartbeatBatch(l.fresh)
		delivered += uint64(acc)
		rejected += uint64(rej)
	}
	l.tel.Delivered.Add(delivered)
	l.tel.Rejected.Add(rejected)
}

// countDecodeError buckets a decode failure into the drop taxonomy.
func (l *Listener) countDecodeError(err error) {
	switch {
	case errors.Is(err, ErrPacketShort):
		l.tel.PacketsShort.Add(1)
	case errors.Is(err, ErrBadMagic):
		l.tel.PacketsBadMagic.Add(1)
	case errors.Is(err, ErrBadVersion):
		l.tel.PacketsBadVersion.Add(1)
	default:
		l.tel.PacketsMalformed.Add(1)
	}
}

// ListenerStats is a point-in-time snapshot of the listener's packet
// dispositions: every datagram read and every way it can fail to become
// a delivered heartbeat.
type ListenerStats = telemetry.TransportStats

// Stats snapshots the listener's packet counters. Tests assert on these
// instead of sleeping: Delivered/Dropped move strictly after the packet
// in question has been fully accounted.
func (l *Listener) Stats() ListenerStats {
	return l.tel.Snapshot()
}

// Close stops the read loop and waits for it to exit.
func (l *Listener) Close() error {
	err := l.conn.Close()
	<-l.stopped
	return err
}
