package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"syscall"
	"time"

	"accrual"
	"accrual/internal/transport"
)

// Exposition series the barrier and the conservation check read.
const (
	keyDelivered = "accrual_udp_heartbeats_delivered_total"
	keyProcesses = "accrual_monitor_processes"
	keyShed      = `accrual_udp_packets_shed_total{reason="queue_full"}`
)

var dropReasons = []string{"short", "bad_magic", "bad_version", "malformed", "rejected"}

const (
	pauseMinCycles = 10
	pauseMinTime   = 3 * time.Second
	maxPaused      = 4 // probes silent at once; well inside the top 16
	restCycles     = 2 // cycles a probe beats again before its next pause
)

// probe is one id that takes turns being silent, so that Accruement can
// be checked on the real stack: its level must keep rising while it is
// paused and fall once its resume beat is in.
type probe struct {
	idx    int // into plan.ids
	paused bool
	since  time.Time
	cycles int     // status answers seen in this pause
	first  float64 // level at the first of them
	last   float64 // level at the latest
	ranked bool    // was in the top 16 and above the beating median, this pause
	rested int
}

// sender writes rounds of beats on the workload's wire with the repo's
// own codecs. After every W datagrams it calls endWindow, which is where
// its two users differ: the cycle loop watches the daemon from outside,
// the staged listener reads a counter in its own process.
type sender struct {
	w   workload
	p   *plan
	udp *net.UDPConn

	enc    *transport.BatchEncoder
	buf    []byte
	paused []bool // by id index; nil when nothing is ever paused

	seq      uint64 // round number, carried as Seq by its beats
	sent     uint64 // beats written
	inWindow int
	// endWindow runs with inWindow already reset.
	endWindow func() error
}

func newSender(w workload, p *plan, udp *net.UDPConn, endWindow func() error) sender {
	return sender{w: w, p: p, udp: udp, enc: transport.NewBatchEncoder(w.frame), endWindow: endWindow}
}

// bench drives one daemon: one goroutine, one thing in flight.
type bench struct {
	sender
	d  *daemon
	hc *http.Client
	tr *tracer

	body   bytes.Buffer
	probes []probe
	nextPr int // rotation cursor into probes

	lost     uint64 // beats a barrier gave up on
	lossSeen uint64 // daemon and kernel loss counters at the last barrier
	httpOps  uint64
	failed   uint64
	problems []string

	windows   int
	noRxQueue bool // daemon socket not in /proc/net/udp: barrier per window
	parent    int  // span the next call into the daemon hangs under

	cpuErr                 error
	drainTime, barrierTime time.Duration
	visible                []float64 // resume beat written -> lower level seen, us
	queries                []query
	silent                 []*probe
	levels                 []float64
	top                    map[string]bool
	lastScrape             *exposition // nil when the latest scrape did not parse
	scrapeBytes            int
}

func newBench(w workload, p *plan, d *daemon, hc *http.Client, tr *tracer) (*bench, error) {
	udp, err := net.DialUDP("udp4", nil, &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: d.udpPort})
	if err != nil {
		return nil, err
	}
	b := &bench{d: d, hc: hc, tr: tr, parent: -1, top: make(map[string]bool, topK)}
	b.sender = newSender(w, p, udp, b.windowDone)
	b.paused = make([]bool, w.n)
	for _, idx := range p.probes {
		b.probes = append(b.probes, probe{idx: idx, rested: restCycles})
	}
	return b, nil
}

func (b *bench) close() { b.udp.Close() }

// fail records a failed operation or check. Only the first few are kept
// as text; all are counted.
func (b *bench) fail(n uint64, format string, args ...any) {
	b.failed += n
	if len(b.problems) < 20 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// get performs one HTTP GET and reads the body to its end into the
// reused buffer. An error means the daemon is gone and the run is over;
// a non-200 answer is a failed operation and returns ok false.
func (b *bench) get(name, path string) (body []byte, ok bool, err error) {
	sp := b.tr.begin(name, b.parent)
	defer b.tr.end(sp)
	b.httpOps++
	resp, err := b.hc.Get(b.d.httpBase + path)
	if err != nil {
		return nil, false, err
	}
	b.body.Reset()
	_, err = b.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, false, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		b.fail(1, "GET %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(b.body.Bytes()))
		return nil, false, nil
	}
	return b.body.Bytes(), true, nil
}

// round writes one beat for every id that is not paused, in the plan's
// next shuffled order.
func (s *sender) round() error {
	s.seq++
	for _, i := range s.p.nextOrder() {
		if s.paused != nil && s.paused[i] {
			continue
		}
		if err := s.beat(int(i)); err != nil {
			return err
		}
	}
	return s.flushFrame()
}

// beat encodes one heartbeat with the repo's own codecs and writes the
// datagram once it is full (at once for AFD1).
func (s *sender) beat(i int) error {
	hb := accrual.Heartbeat{From: s.p.ids[i], Seq: s.seq, Sent: time.Now()}
	if s.w.frame == 1 {
		var err error
		if s.buf, err = transport.AppendHeartbeat(s.buf[:0], hb); err != nil {
			return err
		}
		return s.writeDatagram(s.buf, 1)
	}
	if err := s.enc.Add(hb); err != nil {
		return err
	}
	if s.enc.Count() == s.w.frame {
		return s.flushFrame()
	}
	return nil
}

func (s *sender) flushFrame() error {
	if s.enc.Count() == 0 {
		return nil
	}
	err := s.writeDatagram(s.enc.Bytes(), s.enc.Count())
	s.enc.Reset()
	return err
}

// writeDatagram puts one datagram on the loopback wire and ends the
// window after W of them.
func (s *sender) writeDatagram(frame []byte, beats int) error {
	if _, err := s.udp.Write(frame); err != nil {
		return fmt.Errorf("udp write: %w", err)
	}
	s.sent += uint64(beats)
	if s.inWindow++; s.inWindow < s.w.window {
		return nil
	}
	s.inWindow = 0
	return s.endWindow()
}

// windowDone keeps the window discipline of the cycle loop: after W
// datagrams wait for the daemon's socket to drain, after K windows wait
// for a barrier.
func (b *bench) windowDone() error {
	b.windows++
	if b.noRxQueue || b.windows == b.w.perBar {
		return b.barrier()
	}
	b.drain()
	return nil
}

// drain waits until the daemon's socket holds no unread datagram, so the
// next window cannot overflow the kernel receive buffer. It costs the
// daemon nothing. Without the socket's row there is nothing to watch and
// every window ends in a barrier instead.
func (b *bench) drain() {
	sp := b.tr.begin("drain_wait", b.parent)
	start := time.Now()
	for {
		sock, ok := b.socketRow()
		if !ok {
			b.noRxQueue = true
			break
		}
		if sock.rxQueue == 0 {
			break
		}
		pause(20 * time.Microsecond)
	}
	b.drainTime += time.Since(start)
	b.tr.end(sp)
}

func (b *bench) socketRow() (udpSock, bool) {
	data, err := os.ReadFile("/proc/net/udp")
	if err != nil {
		return udpSock{}, false
	}
	return parseNetUDP(data, b.d.udpPort)
}

// lossCount adds up every counter that says a beat did not reach a
// detector: shed at a full queue, undecodable or rejected, or dropped by
// the kernel at the socket.
func lossCount(ex *exposition, sock udpSock) uint64 {
	n := uint64(ex.global[keyShed]) + sock.drops
	for _, r := range dropReasons {
		n += uint64(ex.global[`accrual_udp_packets_dropped_total{reason="`+r+`"}`])
	}
	return n
}

// barrier polls the first page of the scrape until the daemon has
// delivered every beat written so far. It has no deadline: it ends early
// only when the loss counters explain the gap and nothing is moving any
// more, and then the missing beats count as failed.
func (b *bench) barrier() error {
	sp := b.tr.begin("barrier", b.parent)
	saved := b.parent
	b.parent = sp
	start := time.Now()
	defer func() {
		b.barrierTime += time.Since(start)
		b.parent = saved
		b.tr.end(sp)
	}()
	b.windows = 0
	var prev uint64
	still := 0
	for {
		body, ok, err := b.get("barrier_page", "/v1/metrics?cursor=0&limit=1")
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("barrier: metrics page refused")
		}
		ex, err := parseExposition(body)
		if err != nil {
			return fmt.Errorf("barrier: %w", err)
		}
		delivered, err := ex.counter(keyDelivered)
		if err != nil {
			return fmt.Errorf("barrier: %w", err)
		}
		want := b.sent - b.lost
		sock, watched := b.socketRow() // the zero row when it cannot be read
		loss := lossCount(ex, sock)
		if delivered >= want {
			if delivered > want {
				b.fail(delivered-want, "conservation: delivered %d beats, sent %d", delivered, want)
				b.lost -= min(b.lost, delivered-want) // beats given up on that arrived after all
			}
			if loss != b.lossSeen {
				b.fail(loss-b.lossSeen, "conservation: loss counters rose to %d with every beat delivered", loss)
				b.lossSeen = loss
			}
			return nil
		}
		if loss > b.lossSeen && delivered == prev && (!watched || sock.rxQueue == 0) {
			if still++; still == 3 {
				b.fail(want-delivered, "conservation: %d of %d beats never delivered (loss counters %d)", want-delivered, want, loss)
				b.lost += want - delivered
				b.lossSeen = loss
				return nil
			}
		} else {
			still = 0
		}
		prev = delivered
		pause(100 * time.Microsecond)
	}
}

// pause sleeps in the kernel. time.Sleep would round a sub-millisecond
// wait up to a millisecond whenever the runtime parks in epoll.
func pause(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	_ = syscall.Nanosleep(&ts, nil) // an early wake-up only polls sooner
}

// statusAnswer is the body of /v1/status.
type statusAnswer struct {
	ID        string  `json:"id"`
	Level     float64 `json:"level"`
	Threshold float64 `json:"threshold"`
	Status    string  `json:"status"`
}

// status asks for one id's interpretation and checks the answer against
// itself: right id, a level that is a number, and the verdict the
// threshold implies.
func (b *bench) status(idx int, threshold float64) (level float64, ok bool, err error) {
	id := b.p.ids[idx]
	body, ok, err := b.get("status", fmt.Sprintf("/v1/status?id=%s&threshold=%g", id, threshold))
	if err != nil || !ok {
		return 0, false, err
	}
	var a statusAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		b.fail(1, "status %s: %v", id, err)
		return 0, false, nil
	}
	suspected := a.Level > a.Threshold
	switch {
	case a.ID != id:
		b.fail(1, "status %s: answer names %q", id, a.ID)
	case math.IsNaN(a.Level) || math.IsInf(a.Level, 0) || a.Level < 0:
		b.fail(1, "status %s: level %v", id, a.Level)
	case a.Threshold != threshold:
		b.fail(1, "status %s: threshold %v echoed as %v", id, threshold, a.Threshold)
	case (a.Status == "suspected") != suspected || (a.Status == "trusted") == suspected:
		b.fail(1, "status %s: %q at level %v, threshold %v", id, a.Status, a.Level, a.Threshold)
	default:
		return a.Level, true, nil
	}
	return 0, false, nil
}

// ranking asks for the 16 most suspected and checks count and order. The
// ids are left in b.top.
func (b *bench) ranking() error {
	body, ok, err := b.get("topk", fmt.Sprintf("/v1/processes?top=%d", topK))
	if err != nil || !ok {
		return err
	}
	var a struct {
		Processes []struct {
			ID    string  `json:"id"`
			Level float64 `json:"level"`
		} `json:"processes"`
	}
	if err := json.Unmarshal(body, &a); err != nil {
		b.fail(1, "top-k: %v", err)
		return nil
	}
	clear(b.top)
	if len(a.Processes) != topK {
		b.fail(1, "top-k: %d entries, want %d", len(a.Processes), topK)
		return nil
	}
	for i, p := range a.Processes {
		if i > 0 && p.Level > a.Processes[i-1].Level {
			b.fail(1, "top-k: level rises from %v to %v at rank %d", a.Processes[i-1].Level, p.Level, i+1)
			return nil
		}
		b.top[p.ID] = true
	}
	return nil
}

// scrape reads the whole exposition, parses it with the benchmark's own
// parser and checks the membership it reports. The parsed scrape and its
// size are left in lastScrape and scrapeBytes.
func (b *bench) scrape() error {
	body, ok, err := b.get("scrape", "/v1/metrics")
	if err != nil || !ok {
		return err
	}
	ex, perr := parseExposition(body)
	b.lastScrape, b.scrapeBytes = ex, len(body)
	switch {
	case perr != nil:
		b.fail(1, "scrape: %v", perr)
	case ex.global[keyProcesses] != float64(b.w.n):
		b.fail(1, "scrape: %s = %v, want %d", keyProcesses, ex.global[keyProcesses], b.w.n)
	case ex.perProc[levelFamily] != b.w.n:
		b.fail(1, "scrape: %d %s series, want %d", ex.perProc[levelFamily], levelFamily, b.w.n)
	}
	return nil
}

// setUp brings a fresh daemon to the state the window starts from: a
// first round registers every id, four more warm the estimators, and one
// scrape and one ranking prove the read side answers for the full fleet.
func (b *bench) setUp() error {
	for range 5 {
		if err := b.round(); err != nil {
			return err
		}
	}
	if err := b.endPhase(); err != nil {
		return err
	}
	if err := b.scrape(); err != nil {
		return err
	}
	return b.ranking()
}

// endPhase closes a partly filled window and waits for the barrier.
func (b *bench) endPhase() error {
	b.inWindow = 0
	return b.barrier()
}

// rotate runs the pause rotation at the top of a cycle: probes that have
// been silent for long enough are returned for their resume step, and
// the next probe in the seeded rotation falls silent if there is room.
func (b *bench) rotate(now time.Time) (resuming []*probe) {
	silent := 0
	for i := range b.probes {
		pr := &b.probes[i]
		switch {
		case !pr.paused:
			pr.rested++
		case pr.cycles >= pauseMinCycles && now.Sub(pr.since) >= pauseMinTime:
			resuming = append(resuming, pr)
		default:
			silent++
		}
	}
	if next := &b.probes[b.nextPr]; silent+len(resuming) < maxPaused && !next.paused && next.rested >= restCycles {
		*next = probe{idx: next.idx, paused: true, since: now}
		b.paused[next.idx] = true
		b.nextPr = (b.nextPr + 1) % len(b.probes)
	}
	return resuming
}

// resume ends a probe's pause. The Accruement checks are relative and
// ordered, never timed: the level rose during the pause, ranked among
// the most suspected at some point of it, and is lower at the first
// answer after the resume beat is known to be delivered.
func (b *bench) resume(pr *probe) error {
	id := b.p.ids[pr.idx]
	if !(pr.last > pr.first) {
		b.fail(1, "accruement: %s ended its pause at level %v, started it at %v", id, pr.last, pr.first)
	}
	if !pr.ranked {
		b.fail(1, "accruement: %s was never in the top %d and above the beating median while paused", id, topK)
	}
	written := time.Now()
	if err := b.beat(pr.idx); err != nil {
		return err
	}
	if err := b.flushFrame(); err != nil {
		return err
	}
	for delivered := false; ; delivered = true {
		level, ok, err := b.status(pr.idx, 1)
		if err != nil {
			return err
		}
		if ok && level < pr.last {
			b.visible = append(b.visible, float64(time.Since(written).Nanoseconds())/1e3)
			break
		}
		if delivered {
			if ok {
				b.fail(1, "accruement: %s at level %v after its resume beat was delivered, %v before", id, level, pr.last)
			}
			break
		}
		if err := b.endPhase(); err != nil {
			return err
		}
	}
	b.paused[pr.idx] = false
	pr.paused, pr.rested = false, 0
	return nil
}

// daemonCPU reads the daemon's CPU clock. A failed read is kept in
// cpuErr and ends the run at the end of the cycle.
func (b *bench) daemonCPU() uint64 {
	ns, err := taskCPU(b.d.pid)
	if err != nil && b.cpuErr == nil {
		b.cpuErr = err
	}
	return ns
}

// cycleSample is what one cycle contributes to the medians.
type cycleSample struct {
	beats                         uint64
	ingestCPU, statusCPU, topkCPU time.Duration
	scrapeCPU, cycleCPU           time.Duration
	ingestWall, cycleWall         time.Duration
}

// cycle runs one fixed-work cycle and reads the daemon's CPU clock at
// every phase boundary. prevCPU is the reading that ended the previous
// cycle, so cycleCPU also covers what the daemon did between phases.
func (b *bench) cycle(prevCPU uint64, prevEnd time.Time) (cs cycleSample, endCPU uint64, err error) {
	root := b.tr.begin("cycle", -1)
	defer func() { b.tr.end(root); b.parent = -1 }()
	resuming := b.rotate(prevEnd)

	// Ingest phase.
	b.parent = b.tr.begin("ingest", root)
	sent0 := b.sent
	for range b.w.rounds {
		if err = b.round(); err != nil {
			return cs, 0, err
		}
	}
	if err = b.endPhase(); err != nil {
		return cs, 0, err
	}
	b.tr.end(b.parent)
	cs.beats = b.sent - sent0
	c1, t1 := b.daemonCPU(), time.Now()
	cs.ingestCPU, cs.ingestWall = time.Duration(c1-prevCPU), t1.Sub(prevEnd)

	// Resume steps, outside every phase metric but inside the cycle.
	if len(resuming) > 0 {
		b.parent = b.tr.begin("resume", root)
		for _, pr := range resuming {
			if err = b.resume(pr); err != nil {
				return cs, 0, err
			}
		}
		b.tr.end(b.parent)
		c1 = b.daemonCPU()
	}

	// Read phase: status batch. Paused probes take the first slots of
	// the seeded query list, so the batch is S calls whatever is paused.
	b.parent = b.tr.begin("status_batch", root)
	b.queries = b.p.nextQueries(b.queries)
	b.levels = b.levels[:0]
	silent := b.silent[:0]
	for i := range b.probes {
		if b.probes[i].paused {
			silent = append(silent, &b.probes[i])
		}
	}
	b.silent = silent
	for k, q := range b.queries {
		if k < len(silent) {
			if err = b.askProbe(silent[k], q.threshold); err != nil {
				return cs, 0, err
			}
			continue
		}
		level, ok, serr := b.status(q.id, q.threshold)
		if serr != nil {
			return cs, 0, serr
		}
		if ok && !b.paused[q.id] {
			b.levels = append(b.levels, level)
		}
	}
	b.tr.end(b.parent)
	c2 := b.daemonCPU()
	cs.statusCPU = time.Duration(c2 - c1)

	// Rankings.
	b.parent = b.tr.begin("topk_batch", root)
	for range b.w.topk {
		if err = b.ranking(); err != nil {
			return cs, 0, err
		}
	}
	b.tr.end(b.parent)
	c3 := b.daemonCPU()
	cs.topkCPU = time.Duration(c3 - c2)
	beating := median(b.levels)
	for i := range b.probes {
		if pr := &b.probes[i]; pr.paused && b.top[b.p.ids[pr.idx]] && pr.last > beating {
			pr.ranked = true
		}
	}

	// Full scrapes.
	b.parent = b.tr.begin("scrape_batch", root)
	for range b.w.scrapes {
		if err = b.scrape(); err != nil {
			return cs, 0, err
		}
	}
	b.tr.end(b.parent)
	c4, t4 := b.daemonCPU(), time.Now()
	cs.scrapeCPU = time.Duration(c4 - c3)
	cs.cycleCPU, cs.cycleWall = time.Duration(c4-prevCPU), t4.Sub(prevEnd)
	return cs, c4, b.cpuErr
}

// askProbe queries a paused probe and holds it to Accruement: its level
// may not fall from one cycle's answer to the next.
func (b *bench) askProbe(pr *probe, threshold float64) error {
	level, ok, err := b.status(pr.idx, threshold)
	if err != nil || !ok {
		return err
	}
	if pr.cycles == 0 {
		pr.first = level
	} else if level < pr.last {
		b.fail(1, "accruement: paused %s fell from level %v to %v", b.p.ids[pr.idx], pr.last, level)
	}
	pr.last = level
	pr.cycles++
	return nil
}
