package main

import (
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"syscall"
	"time"

	"accrual"
	"accrual/internal/federation"
	"accrual/internal/service"
	"accrual/internal/telemetry"
	"accrual/internal/transport"
)

// The staged replay pushes the same seeded fleet and beats through each
// layer's public functions inside the runner, one layer at a time, with
// a span around every measured call. It says where the black-box figures
// come from; it is never an end-to-end metric. README.md lists every
// symbol it links against.

const (
	// stageTime is how long each staged measurement repeats its call.
	stageTime = 150 * time.Millisecond
	// stagedFrame is the AFB1 frame size of the codec and service
	// stages, whatever the workload's wire.
	stagedFrame = 64
	// detectorPool is how many detectors of one kind share the arrival
	// trace of the detector stage.
	detectorPool = 1024
	// listenerTime is how long the listener stage replays rounds. Its
	// figure is a difference of two CPU clocks and needs the longer run.
	listenerTime = time.Second
)

var detectorKinds = []string{"phi", "chen", "kappa", "simple", "bertier"}

// newDetector builds one detector through the root package's
// constructors, on the daemon's 1 s nominal interval.
func newDetector(kind string, start time.Time) accrual.Detector {
	switch kind {
	case "phi":
		return accrual.NewPhiDetector(start, time.Second)
	case "chen":
		return accrual.NewChenDetector(start, time.Second)
	case "kappa":
		return accrual.NewKappaDetector(start)
	case "bertier":
		return accrual.NewBertierDetector(start, time.Second)
	default:
		return accrual.NewSimpleDetector(start)
	}
}

// stage carries what the staged measurements share.
type stage struct {
	r   *run
	tr  *tracer
	res *result
	p   *plan
	// Per-beat costs in nanoseconds that later stages subtract from
	// their own to get a self time.
	afd1Decode, afb1Decode float64
	heartbeat, batch       float64
	listenerAll            float64
	report                 map[string]float64 // by detector kind
}

// perOp repeats fn for stageTime, each call under its own span, and
// returns nanoseconds per operation; fn reports how many operations it
// did. prep, when not nil, runs before every call outside the span: it
// is where a stage generates its next inputs, which is the generator's
// cost and not the layer's.
func (s *stage) perOp(name string, parent int, prep func(), fn func() int) float64 {
	var busy time.Duration
	ops := 0
	for start := time.Now(); time.Since(start) < stageTime; {
		if prep != nil {
			prep()
		}
		sp := s.tr.begin(name, parent)
		ops += fn()
		s.tr.end(sp)
		busy += s.tr.spans[sp].end - s.tr.spans[sp].start
	}
	return float64(busy.Nanoseconds()) / float64(ops)
}

// mallocs counts heap allocations so far.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// roundBeats fills dst with one round of beats in the plan's next order.
func (s *stage) roundBeats(dst []accrual.Heartbeat, seq uint64, now time.Time) []accrual.Heartbeat {
	dst = dst[:0]
	for _, i := range s.p.nextOrder() {
		dst = append(dst, accrual.Heartbeat{From: s.p.ids[i], Seq: seq, Sent: now, Arrived: now})
	}
	return dst
}

// staged runs every stage and adds its metrics. beatCPU and statusCPU
// are the traced window's black-box figures, in nanoseconds.
func (r *run) staged(tr *tracer, res *result, beatCPU, statusCPU float64) error {
	s := &stage{r: r, tr: tr, res: res, p: newPlan(r.w, r.seed), report: map[string]float64{}}
	root := tr.begin("staged", -1)
	defer tr.end(root)
	s.codec(root)
	s.detectors(root)
	if err := s.serviceAndReaders(root, statusCPU); err != nil {
		return err
	}
	if err := s.listener(root); err != nil {
		return err
	}
	decode, ingest := s.afb1Decode, s.batch
	if r.w.frame == 1 {
		decode, ingest = s.afd1Decode, s.heartbeat
	}
	self := math.Max(0, s.listenerAll-decode-ingest)
	res.add("listener.self_ns_per_beat", self, "ns", 1)
	// The ingest chain's self times: listener, codec, service, detector.
	res.add("trace.coverage", (self+decode+ingest)/beatCPU, "ratio", 1)
	return nil
}

func (s *stage) codec(root int) {
	sp := s.tr.begin("codec", root)
	defer s.tr.end(sp)
	now := time.Now()
	beats := s.roundBeats(nil, 1, now)
	n := len(beats)

	var buf []byte
	s.res.add("codec.afd1_encode_ns", s.perOp("codec.afd1_encode", sp, nil, func() int {
		for _, hb := range beats {
			buf, _ = transport.AppendHeartbeat(buf[:0], hb)
		}
		return n
	}), "ns", 1)

	packets := make([][]byte, n)
	for i, hb := range beats {
		packets[i], _ = transport.MarshalHeartbeat(hb)
	}
	var sink uint64
	s.afd1Decode = s.perOp("codec.afd1_decode", sp, nil, func() int {
		for _, pkt := range packets {
			hb, _ := transport.UnmarshalHeartbeat(pkt)
			sink += hb.Seq
		}
		return n
	})
	s.res.add("codec.afd1_decode_ns", s.afd1Decode, "ns", 1)

	enc := transport.NewBatchEncoder(stagedFrame)
	var frames [][]byte
	encodeRound := func(keep bool) int {
		for i := 0; i < n; i += stagedFrame {
			enc.Reset()
			for _, hb := range beats[i:min(i+stagedFrame, n)] {
				_ = enc.Add(hb) // ids are short and the frame has room
			}
			if frame := enc.Bytes(); keep {
				frames = append(frames, append([]byte(nil), frame...))
			}
		}
		return n
	}
	encodeRound(true)
	s.res.add("codec.afb1_encode_ns_per_beat", s.perOp("codec.afb1_encode", sp, nil, func() int { return encodeRound(false) }), "ns", 1)

	ids := transport.NewIDInterner()
	var scratch []accrual.Heartbeat
	decodeRound := func() int {
		for _, frame := range frames {
			scratch, _ = transport.UnmarshalBatch(frame, scratch[:0], ids)
			sink += uint64(len(scratch))
		}
		return n
	}
	decodeRound() // interns every id, as the daemon's steady state has
	s.afb1Decode = s.perOp("codec.afb1_decode", sp, nil, decodeRound)
	s.res.add("codec.afb1_decode_ns_per_beat", s.afb1Decode, "ns", 1)
	m0 := mallocs()
	decodeRound()
	s.res.add("codec.decode_allocs_per_frame", float64(mallocs()-m0)/float64(len(frames)), "count", len(frames))

	dig := s.digest("peer-a", 1, now)
	var frame []byte
	s.res.add("codec.digest_encode_us", s.perOp("codec.digest_encode", sp, nil, func() int {
		frame, _ = transport.AppendDigest(frame[:0], dig)
		return 1
	})/1e3, "us", 1)
	var back transport.Digest
	s.res.add("codec.digest_decode_us", s.perOp("codec.digest_decode", sp, nil, func() int {
		_ = transport.UnmarshalDigest(frame, &back, ids)
		return 1
	})/1e3, "us", 1)
	_ = sink
}

// digest builds the AFG1 digest a peer with the default top-k of 64
// would gossip about the first ids of the fleet.
func (s *stage) digest(origin string, seq uint64, now time.Time) *transport.Digest {
	d := &transport.Digest{Origin: origin, Seq: seq, Sent: now, Procs: uint32(s.r.w.n)}
	for i := 0; i < federation.DefaultTopK; i++ {
		d.Suspects = append(d.Suspects, transport.DigestSuspect{ID: s.p.ids[i], Level: float64(i) / 8, Age: time.Duration(i) * time.Millisecond})
	}
	d.Groups = []transport.DigestGroup{{Group: origin, Procs: d.Procs, Impact: 12.5, Max: 8}}
	return d
}

// detectors feeds one arrival trace, seeded jitter around the 1 s
// interval, to a pool of detectors of each kind.
func (s *stage) detectors(root int) {
	sp := s.tr.begin("detector", root)
	defer s.tr.end(sp)
	base := time.Now()
	for _, kind := range detectorKinds {
		jitter := rand.New(rand.NewPCG(s.r.seed, 7))
		pool := make([]accrual.Detector, detectorPool)
		for i := range pool {
			pool[i] = newDetector(kind, base)
		}
		var seq uint64
		last := base
		report := s.perOp("detector."+kind+".report", sp, nil, func() int {
			seq++
			last = base.Add(time.Duration(seq)*time.Second + time.Duration(jitter.IntN(200)-100)*time.Millisecond)
			hb := accrual.Heartbeat{From: "p", Seq: seq, Arrived: last}
			for _, d := range pool {
				d.Report(hb)
			}
			return len(pool)
		})
		s.report[kind] = report
		s.res.add("detector."+kind+".report_ns", report, "ns", 1)
		var sum accrual.Level
		var pass int
		s.res.add("detector."+kind+".suspicion_ns", s.perOp("detector."+kind+".suspicion", sp, nil, func() int {
			pass++
			at := last.Add(time.Duration(pass) * 10 * time.Millisecond)
			for _, d := range pool {
				sum += d.Suspicion(at)
			}
			return len(pool)
		}), "ns", 1)
		_ = sum
	}
}

// serviceAndReaders stages internal/service on a registry of the
// workload's size and kind, then everything that reads it: the metrics
// writer, the status handler and the federation plane.
func (s *stage) serviceAndReaders(root int, statusCPU float64) error {
	sp := s.tr.begin("service", root)
	w := s.r.w
	n := w.n
	kind := w.detector

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	hub := telemetry.NewHub()
	mon := accrual.NewMonitor(accrual.WallClock(),
		func(_ string, start time.Time) accrual.Detector { return newDetector(kind, start) },
		service.WithTelemetry(hub))
	var beats []accrual.Heartbeat
	var seq uint64
	next := func() {
		seq++
		beats = s.roundBeats(beats, seq, time.Now())
	}

	next()
	reg := s.tr.begin("service.register", sp)
	for _, hb := range beats {
		if err := mon.Heartbeat(hb); err != nil {
			return err
		}
	}
	s.tr.end(reg)
	s.res.add("service.register_ns_per_proc", float64((s.tr.spans[reg].end-s.tr.spans[reg].start).Nanoseconds())/float64(n), "ns", n)
	batchRound := func() int {
		for i := 0; i < n; i += stagedFrame {
			mon.HeartbeatBatch(beats[i:min(i+stagedFrame, n)])
		}
		return n
	}
	for range 4 {
		next()
		batchRound()
	}
	// The daemon's sampler has always observed the fleet by the time
	// anything reads it.
	hub.QoS().Sample(mon)
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	s.res.add("service.heap_bytes_per_proc", (float64(after.HeapAlloc)-float64(before.HeapAlloc))/float64(n), "B", n)

	s.heartbeat = s.perOp("service.heartbeat", sp, next, func() int {
		for _, hb := range beats {
			_ = mon.Heartbeat(hb) // auto-registration is on; it cannot fail
		}
		return n
	})
	s.res.add("service.heartbeat_ns", s.heartbeat, "ns", 1)
	s.batch = s.perOp("service.batch", sp, next, batchRound)
	s.res.add("service.batch_ns_per_beat", s.batch, "ns", 1)
	s.res.add("service.ingest_self_ns_per_beat", math.Max(0, s.batch-s.report[kind]), "ns", 1)
	next()
	m0 := mallocs()
	batchRound()
	s.res.add("service.ingest_allocs_per_beat", float64(mallocs()-m0)/float64(n), "count", n)

	qry := rand.New(rand.NewPCG(s.r.seed, 11))
	asked := make([]string, 1024)
	for i := range asked {
		asked[i] = s.p.ids[qry.IntN(n)]
	}
	var sum accrual.Level
	s.res.add("service.suspicion_ns", s.perOp("service.suspicion", sp, nil, func() int {
		for _, id := range asked {
			lvl, _ := mon.Suspicion(id)
			sum += lvl
		}
		return len(asked)
	}), "ns", 1)
	s.res.add("service.walk_ns_per_proc", s.perOp("service.walk", sp, nil, func() int {
		mon.EachLevel(func(_ string, lvl accrual.Level) { sum += lvl })
		return n
	}), "ns", 1)
	var ranked []service.RankedProcess
	s.res.add("service.topk_ns_per_proc", s.perOp("service.topk", sp, nil, func() int {
		ranked = mon.TopK(topK, ranked[:0])
		return n
	}), "ns", 1)
	_ = sum
	s.tr.end(sp)

	// internal/transport's HTTP face over the same registry.
	sp = s.tr.begin("metrics", root)
	api := transport.NewAPI(mon, transport.WithAPITelemetry(hub))
	var werr error
	s.res.add("metrics.write_ns_per_proc", s.perOp("metrics.write", sp, nil, func() int {
		if err := api.WriteMetrics(io.Discard); err != nil {
			werr = err
		}
		return n
	}), "ns", 1)
	if werr != nil {
		return werr
	}
	m0 = mallocs()
	_ = api.WriteMetrics(io.Discard)
	s.res.add("metrics.allocs_per_scrape", float64(mallocs()-m0), "count", 1)
	s.tr.end(sp)

	sp = s.tr.begin("http", root)
	reqs := make([]*http.Request, len(asked))
	for i, id := range asked {
		reqs[i] = httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/status?id=%s&threshold=%g", id, 0.5+8*qry.Float64()), nil)
	}
	bad := 0
	handler := s.perOp("http.status_handler", sp, nil, func() int {
		for _, req := range reqs {
			rec := httptest.NewRecorder()
			api.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				bad++
			}
		}
		return len(reqs)
	})
	if bad > 0 {
		return fmt.Errorf("staged status handler: %d answers were not 200", bad)
	}
	s.res.add("http.status_handler_us", handler/1e3, "us", 1)
	s.res.add("http.status_net_share", 1-handler/statusCPU, "ratio", 1)
	s.tr.end(sp)

	// internal/federation, traced only: no peer is ever dialled.
	sp = s.tr.begin("federation", root)
	defer s.tr.end(sp)
	fed, err := federation.New(federation.Config{Self: "perfbench", Monitor: mon, Hub: hub})
	if err != nil {
		return err
	}
	var ferr error
	s.res.add("federation.encode_round_us", s.perOp("federation.encode_round", sp, nil, func() int {
		if _, err := fed.EncodeRound(); err != nil {
			ferr = err
		}
		return 1
	})/1e3, "us", 1)
	if ferr != nil {
		return ferr
	}
	dig := s.digest("peer-a", 0, time.Now())
	s.res.add("federation.handle_digest_us", s.perOp("federation.handle_digest", sp, nil, func() int {
		dig.Seq++
		fed.HandleDigest(dig, time.Now())
		return 1
	})/1e3, "us", 1)
	s.res.add("federation.cluster_info_us", s.perOp("federation.cluster_info", sp, nil, func() int {
		if info := fed.ClusterInfo(); info.Self != "perfbench" {
			ferr = fmt.Errorf("cluster info names %q", info.Self)
		}
		return 1
	})/1e3, "us", 1)
	return ferr
}

// listener stages transport.Listen with its defaults on loopback inside
// the runner, on the workload's wire and window. The figure is CPU time,
// like beat_cpu_us: what the whole process used minus what the sending
// thread used, per beat delivered.
func (s *stage) listener(root int) error {
	sp := s.tr.begin("listener", root)
	defer s.tr.end(sp)
	w := s.r.w
	kind := w.detector
	mon := accrual.NewMonitor(accrual.WallClock(),
		func(_ string, start time.Time) accrual.Detector { return newDetector(kind, start) })
	ln, err := transport.Listen("127.0.0.1:0", mon)
	if err != nil {
		return err
	}
	defer ln.Close()
	conn, err := net.DialUDP("udp4", nil, ln.Addr().(*net.UDPAddr))
	if err != nil {
		return err
	}
	defer conn.Close()

	// The sending goroutine keeps its thread, so that thread's CPU clock
	// is the generator's share.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var snd sender
	delivered := func() error {
		for ln.Stats().Delivered < snd.sent {
			pause(20 * time.Microsecond)
		}
		return nil
	}
	snd = newSender(w, s.p, conn, delivered)
	round := func() error {
		if err := snd.round(); err != nil {
			return err
		}
		snd.inWindow = 0
		return delivered()
	}
	for range 3 { // register, then warm
		if err := round(); err != nil {
			return err
		}
	}
	runtime.GC()
	replay := s.tr.begin("listener.replay", sp)
	proc0, thread0, sent0 := selfCPU(syscall.RUSAGE_SELF), selfCPU(rusageThread), snd.sent
	for start := time.Now(); time.Since(start) < listenerTime; {
		if err := round(); err != nil {
			return err
		}
	}
	used := (selfCPU(syscall.RUSAGE_SELF) - proc0) - (selfCPU(rusageThread) - thread0)
	s.tr.end(replay)
	if st := ln.Stats(); st.Delivered != snd.sent || st.PacketsShed != 0 {
		return fmt.Errorf("staged listener: sent %d beats, delivered %d, shed %d", snd.sent, st.Delivered, st.PacketsShed)
	}
	s.listenerAll = float64(used.Nanoseconds()) / float64(snd.sent-sent0)
	s.res.add("listener.ns_per_beat", s.listenerAll, "ns", int(snd.sent-sent0))
	return nil
}
