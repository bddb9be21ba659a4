package transport

import (
	"errors"
	"fmt"
	"log"
	"net"
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
	// defaultQueueCap is the per-worker ingest queue capacity.
	defaultQueueCap = 256
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
// Every heartbeat takes one path from the socket to its registry slot:
// the read loop decodes each datagram into a run of beats — the records
// of an AFB1 frame, or an AFD1 datagram as the one-record case — and the
// run goes to Monitor.HeartbeatBatch. By default that happens on the
// read loop itself. With WithIngestWorkers the listener instead fans
// each run out to a pool of ingest goroutines, routed by intern.Hash of
// the sender id — the hash the Monitor shards on — so heartbeats from
// one process are always ingested in arrival order while different
// processes proceed on different cores.
type Listener struct {
	conn      *net.UDPConn
	clk       clock.Clock
	mon       *service.Monitor
	workers   int
	queueCap  int
	readSlots int
	internCap int

	queues  []chan *beatGroup
	wg      sync.WaitGroup
	stopped chan struct{}

	// ids is the interner backing decoded heartbeat id strings — the
	// shared, concurrency-safe table the read loop (and, when wired with
	// service.WithInterner, the Monitor) canonicalises through.
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
	// datagram after datagram: the socket's counter cell, the decode
	// scratch, the per-worker groups being filled, and the digest decode
	// scratch (the digest handler must copy anything it keeps).
	cell        *telemetry.SocketCell
	beatScratch []core.Heartbeat
	groups      []*beatGroup
	dig         Digest
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

// WithIngestWorkers enables parallel heartbeat ingestion with n worker
// goroutines (n < 1 keeps the synchronous single-loop default). Each
// worker owns a bounded queue the read loop feeds without ever blocking:
// when one worker's queue is full its newest packets are shed (counted
// in Stats as PacketsShed), so a stalled shard never delays another
// process's heartbeats — suspicion levels degrade per process, not
// globally, exactly the isolation the accrual model wants under
// overload.
func WithIngestWorkers(n int) ListenerOption {
	return func(l *Listener) { l.workers = n }
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

// WithIngestQueueCap sets the per-worker ingest queue capacity (default
// 256; values below 1 keep the default). A deeper queue rides out longer
// detector stalls before shedding, at the cost of staler heartbeats when
// it finally drains — for accrual detectors fresh-and-lossy beats
// stale-and-complete, so prefer the default unless shed counters say
// otherwise.
func WithIngestQueueCap(n int) ListenerOption {
	return func(l *Listener) {
		if n >= 1 {
			l.queueCap = n
		}
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

// WithInternTable substitutes the id intern table backing decoded
// heartbeat ids — normally the daemon-wide shared table also passed to
// service.WithInterner, so a process id is one string for transport and
// registry together. Overrides WithInternCapacity.
func WithInternTable(tab *IDInterner) ListenerOption {
	return func(l *Listener) {
		if tab != nil {
			l.ids = tab
		}
	}
}

// WithInternCapacity bounds the listener-private intern table at n ids
// (default intern.DefaultCapacity) when no shared table was supplied.
// Beyond the bound, unknown ids fall back to per-packet allocation and
// are counted in accrual_intern_overflow_total.
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
	l.startWorkers()
	go l.run()
	return l, nil
}

// newListener applies the options and builds the intern table. It opens
// no socket and starts no goroutine.
func newListener(mon *service.Monitor, opts ...ListenerOption) *Listener {
	l := &Listener{
		clk:       clock.Wall{},
		mon:       mon,
		queueCap:  defaultQueueCap,
		readSlots: defaultReadBatch,
		stopped:   make(chan struct{}),
		tel:       new(telemetry.TransportCounters),
	}
	for _, opt := range opts {
		opt(l)
	}
	if l.ids == nil {
		// Built after the options so the overflow counter lands on the
		// final (possibly hub-shared) TransportCounters.
		iopts := []intern.Option{intern.WithOverflowCounter(&l.tel.InternOverflow)}
		if l.internCap > 0 {
			iopts = append(iopts, intern.WithCapacity(l.internCap))
		}
		l.ids = intern.New(iopts...)
	}
	return l
}

// startWorkers launches the ingest workers, if any are configured.
func (l *Listener) startWorkers() {
	if l.workers < 1 {
		return
	}
	l.queues = make([]chan *beatGroup, l.workers)
	l.groups = make([]*beatGroup, l.workers)
	for i := range l.queues {
		l.queues[i] = make(chan *beatGroup, l.queueCap)
		l.wg.Add(1)
		go l.worker(l.queues[i])
	}
}

// stopWorkers closes the worker queues and waits until the workers have
// drained them. Only the read loop dispatches, so it runs this once it
// has exited.
func (l *Listener) stopWorkers() {
	for _, q := range l.queues {
		close(q)
	}
	l.wg.Wait()
}

// Addr returns the bound UDP address.
func (l *Listener) Addr() net.Addr { return l.conn.LocalAddr() }

// beatGroup carries the beats of one decoded datagram routed to one
// worker. Groups are pooled and their backing slices reused, so the
// worker fan-out does not allocate in steady state.
type beatGroup struct {
	beats []core.Heartbeat
}

var groupPool = sync.Pool{New: func() any { return new(beatGroup) }}

// release empties g and returns it to the pool.
func (g *beatGroup) release() {
	g.beats = g.beats[:0]
	groupPool.Put(g)
}

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
// handle each. Once the socket is closed it stops the workers, then
// releases Close.
func (l *Listener) run() {
	defer close(l.stopped)
	defer l.stopWorkers()
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

// handleDatagram decodes one datagram, told apart by its magic: an AFG1
// digest goes to the digest handler; an AFB1 frame, or an AFD1 datagram
// as its one-record case, becomes a run of beats for dispatch. It counts
// the datagram's disposition either way; the accrual_udp_batch* counters
// see AFB1 frames only.
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
	batch := IsBatchFrame(buf)
	var beats []core.Heartbeat
	var err error
	if batch {
		beats, err = UnmarshalBatch(buf, l.beatScratch[:0], l.ids)
	} else {
		beats, err = appendSingle(buf, l.beatScratch[:0], l.ids)
	}
	if err != nil {
		l.countDecodeError(err)
		return
	}
	l.beatScratch = beats[:0] // keep the grown capacity for the next datagram
	if batch {
		l.tel.ObserveBatch(len(beats))
	}
	for i := range beats {
		beats[i].Arrived = arrived
	}
	if shed := l.dispatch(beats); batch && shed > 0 {
		l.tel.BatchBeatsShed.Add(shed)
	}
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

// dispatch routes one decoded run of beats and returns how many it shed.
// Without workers the run goes straight to the monitor. With workers it
// is partitioned by intern.Hash into pooled per-worker groups — one
// process always to the same worker, so per-process order holds — and
// each group is queued whole. The read loop never blocks on a worker: a
// full queue sheds that worker's group, counted per beat, and leaves
// the rest alone, because the next heartbeat from the same process
// carries strictly fresher information — drop-newest loses nothing the
// detector needs.
func (l *Listener) dispatch(beats []core.Heartbeat) (shed uint64) {
	if l.queues == nil {
		l.ingestRun(beats)
		return 0
	}
	n := uint32(len(l.queues))
	for _, hb := range beats {
		w := intern.Hash(hb.From) % n
		if l.groups[w] == nil {
			l.groups[w] = groupPool.Get().(*beatGroup)
		}
		l.groups[w].beats = append(l.groups[w].beats, hb)
	}
	for w, g := range l.groups {
		if g == nil {
			continue
		}
		l.groups[w] = nil
		select {
		case l.queues[w] <- g:
			l.tel.ObserveQueueDepth(len(l.queues[w]))
		default:
			l.tel.PacketsShed.Add(uint64(len(g.beats)))
			shed += uint64(len(g.beats))
			g.release()
		}
	}
	return shed
}

// worker drains one ingest queue into the monitor.
func (l *Listener) worker(q <-chan *beatGroup) {
	defer l.wg.Done()
	for g := range q {
		l.ingestRun(g.beats)
		g.release()
	}
}

// ingestRun hands one run of beats to the monitor and counts the outcome.
func (l *Listener) ingestRun(beats []core.Heartbeat) {
	acc, rej := l.mon.HeartbeatBatch(beats)
	l.tel.Delivered.Add(uint64(acc))
	l.tel.Rejected.Add(uint64(rej))
}

// ListenerStats is a point-in-time snapshot of the listener's packet
// dispositions: every datagram read, every way it can fail to become a
// delivered heartbeat, and the ingest-queue high-water mark.
type ListenerStats = telemetry.TransportStats

// Stats snapshots the listener's packet counters. Tests assert on these
// instead of sleeping: Delivered/Dropped move strictly after the packet
// in question has been fully accounted.
func (l *Listener) Stats() ListenerStats {
	return l.tel.Snapshot()
}

// Close stops the read loop, drains the ingest workers and waits for
// all of them to exit.
func (l *Listener) Close() error {
	err := l.conn.Close()
	<-l.stopped
	return err
}
