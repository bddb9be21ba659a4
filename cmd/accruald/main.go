// Command accruald is the failure-detection service daemon the paper
// advocates (§1, §7): it listens for UDP heartbeats from monitored
// processes and serves their raw suspicion levels over HTTP/JSON, leaving
// all interpretation to the querying applications.
//
// Usage:
//
//	accruald [-udp :7946] [-http :8080] [-detector phi] [-interval 1s]
//	         [-read-batch 16]
//	         [-profile default] [-intern-max 1048576]
//	         [-state-file accrual.state] [-state-interval 30s]
//	         [-qos-high 2] [-qos-low 1] [-pprof-addr localhost:6060]
//	         [-group east -peers host2:7946,host3:7946]
//	         [-federation-interval 1s] [-fanout 2] [-digest-topk 64]
//	         [-autotune -target-td 2s] [-target-tmr 5m] [-target-pa 0.99]
//	         [-autotune-interval 10s] [-autotune-step 0.25]
//
// With -target-td the daemon builds the online QoS autotuner
// (internal/autotune): GET /v1/tune serves a dry-run tuning plan and
// POST /v1/tune applies one controller round (`accrualctl tune
// plan|apply`). Adding -autotune runs the controller periodically,
// steering the reference-interpreter thresholds and the detectors'
// estimator windows toward the -target-* QoS bounds under the measured
// loss and jitter; every knob move is limited to ±autotune-step per
// round and every estimator retune preserves accrued suspicion
// (core.Detector.Retune). Progress is observable via the accrual_autotune_*
// series on /v1/metrics.
//
// With -peers the daemon federates: every -federation-interval it
// digests its own slice of the fleet (the -digest-topk most suspected
// processes plus a per-group accrual rollup) into one AFG1 frame and
// gossips it to -fanout random peers on their heartbeat ports, relaying
// the freshest digest it holds from every other peer. -group names this
// daemon in the gossip (required with -peers) and tags every locally
// monitored process. The merged fleet view is served on GET /v1/cluster
// (see `accrualctl cluster`) and the gossip plane is observable through
// the accrual_federation_* series on /v1/metrics.
//
// At large memberships, -profile compact trades estimator-window depth
// for a smaller per-process footprint (see docs/TUNING.md). A process id
// is stored once, by the registry, when its first heartbeat binds it;
// the listener's id intern table canonicalises only the ids AFG1 peer
// digests carry. -intern-max caps that table; past the cap, a digest id
// is still decoded but not remembered (counted by
// accrual_intern_overflow_total).
//
// Ingest runs on the UDP read loop: each datagram is decoded and every
// beat resolved against its registry slot and reported in place, with no
// queue in between. Under overload the socket's receive buffer is the
// queue and the kernel's drops are the loss (see docs/TUNING.md).
// -ingest-queue still parses for old command lines and is ignored.
//
// Every -interval one background round (service.Runner) takes one clock
// reading, walks the registry once and hands each process's level to
// every per-process consumer: the online QoS estimators, the -history
// level rings behind GET /v1/history, and — with -log-transitions — an
// internal Algorithm-1 view that logs each S-/T-transition. The first
// round runs one -interval after boot. That round, the gossip round, the
// autotune round and the state save are the daemon's only time-driven
// work; each runs on its own period via clock.Every, decided here and
// nowhere else, and a non-positive period for any loop the flags enable
// is a boot error. Shutdown stops and joins every loop before the final
// state save.
//
// The daemon is observable while it runs: GET /v1/metrics serves
// hot-path counters, UDP packet dispositions and online QoS estimates
// (mistake rate λ_M, query accuracy P_A, mean mistake recurrence
// T_MR, …) in the Prometheus text format, with -qos-high/-qos-low
// setting the reference interpreter's two thresholds. -pprof-addr
// additionally serves net/http/pprof on its own listener (keep it on
// localhost). See docs/OBSERVABILITY.md.
//
// With -state-file the daemon persists its detectors' learned state
// (estimator windows, arrival cursors) periodically and on shutdown, and
// warm-boots from the file on startup: a restarted daemon resumes with
// calibrated estimators instead of re-learning the network from scratch.
//
// Monitored processes send heartbeats with `accrualctl beat` (or any
// client speaking the packet format of internal/transport). Applications
// query:
//
//	GET /v1/processes                  ranked suspicion levels
//	GET /v1/suspicion?id=node-1        one process's level
//	GET /v1/status?id=node-1&threshold=3   client-chosen interpretation
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registered on its own mux, served only via -pprof-addr
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"accrual/internal/autotune"
	"accrual/internal/chen"
	"accrual/internal/clock"
	"accrual/internal/core"
	"accrual/internal/detectors"
	"accrual/internal/federation"
	"accrual/internal/service"
	"accrual/internal/telemetry"
	"accrual/internal/transport"
	"accrual/internal/transport/statecodec"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], nil); err != nil {
		log.Fatalf("accruald: %v", err)
	}
}

// run starts the daemon and blocks until ctx is cancelled or a component
// fails. When ready is non-nil it receives the bound UDP and HTTP
// addresses once both listeners are up (used by tests).
func run(ctx context.Context, args []string, ready chan<- [2]string) error {
	fs := flag.NewFlagSet("accruald", flag.ContinueOnError)
	var (
		udpAddr   = fs.String("udp", ":7946", "UDP address for incoming heartbeats")
		httpAddr  = fs.String("http", ":8080", "HTTP address for the query API")
		detName   = fs.String("detector", "phi", "detector per process: phi, chen, kappa, simple")
		interval  = fs.Duration("interval", time.Second, "expected heartbeat interval")
		logTrans  = fs.Bool("log-transitions", true, "log S-/T-transitions observed by an internal Algorithm 1 view")
		history   = fs.Int("history", 600, "level samples kept per process for /v1/history (0 disables)")
		shards    = fs.Int("shards", 0, "monitor registry shard count, rounded up to a power of two (0 = default 64)")
		readBatch = fs.Int("read-batch", 16, "datagrams drained per read syscall via recvmmsg where available (1 = plain reads)")
		profName  = fs.String("profile", "default", "estimator-window profile: default, or compact (windows capped at 64 samples) for very large memberships")
		internMax = fs.Int("intern-max", 0, "max distinct digest ids interned by the listener's id table (0 = default 1048576)")
		stateFile = fs.String("state-file", "", "persist detector state here for warm restarts (empty disables)")
		stateIntv = fs.Duration("state-interval", 30*time.Second, "period between state-file saves")
		qosHigh   = fs.Float64("qos-high", float64(telemetry.DefaultQoSHigh), "online QoS reference threshold: suspect above this level")
		qosLow    = fs.Float64("qos-low", float64(telemetry.DefaultQoSLow), "online QoS reference threshold: trust again at or below this level")
		autoTune  = fs.Bool("autotune", false, "run the online QoS autotuner (requires -target-td)")
		tuneIntv  = fs.Duration("autotune-interval", 10*time.Second, "period between autotune controller rounds")
		targetTD  = fs.Duration("target-td", 0, "QoS target: max detection time T_D^U the autotuner steers toward")
		targetTMR = fs.Duration("target-tmr", 0, "QoS target: min mistake recurrence T_MR^L (0 = 100x -target-td)")
		targetPA  = fs.Float64("target-pa", 0, "QoS target: min query accuracy P_A; below it the autotuner widens the lateness budget (0 disables)")
		tuneStep  = fs.Float64("autotune-step", 0.25, "max relative knob change per autotune round (0 < step < 1)")
		pprofAddr = fs.String("pprof-addr", "", "serve net/http/pprof on this address (empty disables; keep it on localhost)")
		peers     = fs.String("peers", "", "comma-separated heartbeat addresses of peer daemons to federate with (requires -group)")
		fedIntv   = fs.Duration("federation-interval", federation.DefaultInterval, "gossip period between suspicion digests")
		fanout    = fs.Int("fanout", federation.DefaultFanout, "peers each gossip round sends digests to")
		digestTop = fs.Int("digest-topk", federation.DefaultTopK, "most-suspected processes carried per gossiped digest")
		group     = fs.String("group", "", "group tag for locally monitored processes; doubles as this daemon's federation identity")
	)
	fs.Int("ingest-queue", 0, "ignored: heartbeats are ingested on the read loop with no queue (kept so existing command lines parse)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Every period a background loop would run on must be positive: a
	// boot failure, not a silent default or a ticker panic.
	for _, p := range []struct {
		flag string
		d    time.Duration
		used bool
	}{
		{"-interval", *interval, true},
		{"-autotune-interval", *tuneIntv, *autoTune},
		{"-federation-interval", *fedIntv, *peers != ""},
		{"-state-interval", *stateIntv, *stateFile != ""},
	} {
		if p.used && p.d <= 0 {
			return fmt.Errorf("%s must be positive, got %v", p.flag, p.d)
		}
	}
	factory, err := detectors.Factory(*detName, *interval, *profName)
	if err != nil {
		return err
	}
	// An invalid -qos-high/-qos-low pair is a boot failure, not a silent
	// fallback to the defaults.
	hub := telemetry.NewHub()
	if err := hub.QoS().SetThresholds(core.Level(*qosHigh), core.Level(*qosLow)); err != nil {
		return fmt.Errorf("-qos-high/-qos-low: %w", err)
	}
	monOpts := []service.MonitorOption{service.WithTelemetry(hub)}
	if *shards > 0 {
		monOpts = append(monOpts, service.WithShardCount(*shards))
	}
	if *peers != "" && *group == "" {
		return errors.New("-peers requires -group (the federation identity)")
	}
	if *group != "" {
		groupName := *group
		monOpts = append(monOpts, service.WithGroupFn(func(string) string { return groupName }))
	}
	mon := service.NewMonitor(clock.Wall{}, factory, monOpts...)

	var fed *federation.Federation
	if *peers != "" {
		fed, err = federation.New(federation.Config{
			Self:     *group,
			Peers:    strings.Split(*peers, ","),
			Monitor:  mon,
			Interval: *fedIntv,
			Fanout:   *fanout,
			TopK:     *digestTop,
			Hub:      hub,
		})
		if err != nil {
			return err
		}
		// Deferred before joinLoops, so it runs after every loop has
		// exited: no gossip round is sending when the sockets close.
		defer fed.Close()
	}

	// Online QoS autotuning: close the loop between the estimators above
	// and the detector/threshold knobs. The controller is constructed
	// whenever a detection-time target is given (so `accrualctl tune
	// plan` works as a dry run); the background loop only runs with
	// -autotune.
	var tuner *autotune.Controller
	if *autoTune && *targetTD <= 0 {
		return errors.New("-autotune requires -target-td (the detection-time target)")
	}
	if *targetTD > 0 {
		tuner, err = autotune.New(autotune.Config{
			Monitor:  mon,
			QoS:      hub.QoS(),
			Counters: &hub.Autotune,
			Targets:  chen.QoS{MaxDetectionTime: *targetTD, MinMistakeRecurrence: *targetTMR},
			TargetPA: *targetPA,
			Detector: *detName,
			MaxStep:  *tuneStep,
		})
		if err != nil {
			return err
		}
	}

	// Warm boot: restore any persisted detector state before the
	// listeners open, so the first heartbeats land on calibrated
	// estimators. A missing file is a cold start, not an error.
	if *stateFile != "" {
		switch n, err := loadState(mon, *stateFile); {
		case errors.Is(err, os.ErrNotExist):
			log.Printf("state file %s absent: cold start", *stateFile)
		case err != nil:
			// A corrupt or mismatched state file must not keep the
			// detector down; log and run cold.
			log.Printf("warm boot from %s failed (running cold): %v", *stateFile, err)
		default:
			log.Printf("warm boot: restored %d processes from %s", n, *stateFile)
		}
	}

	lnOpts := []transport.ListenerOption{
		transport.WithTelemetry(hub),
		transport.WithInternCapacity(*internMax),
	}
	if fed != nil {
		lnOpts = append(lnOpts, transport.WithDigestHandler(fed.HandleDigest))
	}
	if *readBatch > 0 {
		lnOpts = append(lnOpts, transport.WithReadBatch(*readBatch))
	}
	listener, err := transport.Listen(*udpAddr, mon, lnOpts...)
	if err != nil {
		return err
	}
	defer listener.Close()
	log.Printf("heartbeat listener on %s (detector=%s interval=%v profile=%s)",
		listener.Addr(), *detName, *interval, *profName)

	// The daemon's background work — the registry round, gossip,
	// autotune and state saves — runs on clock.Every under one child
	// context; joinLoops cancels it and waits for every loop to exit.
	loopCtx, stopLoops := context.WithCancel(ctx)
	var loops []<-chan struct{}
	every := func(d time.Duration, fn func()) {
		loops = append(loops, clock.Every(loopCtx, d, fn))
	}
	joinLoops := func() {
		stopLoops()
		for _, done := range loops {
			<-done
		}
	}
	defer joinLoops()

	apiOpts := []transport.APIOption{transport.WithAPITelemetry(hub)}
	if tuner != nil {
		apiOpts = append(apiOpts, transport.WithTuner(tuner))
		if *autoTune {
			every(*tuneIntv, func() { tuner.Round() })
			log.Printf("autotune: target T_D=%v T_MR=%v P_A=%.3g, every %v, max step %.0f%%",
				*targetTD, *targetTMR, *targetPA, *tuneIntv, *tuneStep*100)
		}
	}
	if fed != nil {
		fed.Round()
		every(*fedIntv, fed.Round)
		apiOpts = append(apiOpts, transport.WithClusterView(fed))
		log.Printf("federation as %q: %d peers, fanout %d, interval %v, top-k %d",
			*group, strings.Count(*peers, ",")+1, *fanout, *fedIntv, *digestTop)
	}
	// One background round per -interval feeds every per-process
	// consumer from one registry walk: the online QoS estimators, the
	// level history and the transition log.
	consumers := service.Consumers{QoS: hub.QoS()}
	var tlog *transitionLog
	if *logTrans {
		// An internal observer application using the paper's
		// parameter-free Algorithm 1; purely informational — client
		// interpretations are independent of it.
		tlog = newTransitionLog(log.Writer(), log.Prefix(), log.Flags())
		consumers.Apps = []*service.App{mon.NewApp("accruald-log", service.AdaptivePolicy(),
			service.WithTransitionHandler(tlog.record))}
	}
	if *history > 0 {
		consumers.History = service.NewRecorder(mon, *history)
	}
	runner := service.NewRunner(mon, consumers)
	every(*interval, func() {
		runner.Round()
		tlog.flush()
	})
	apiOpts = append(apiOpts, transport.WithRunner(runner))

	if *pprofAddr != "" {
		// net/http/pprof registers on the default mux; serve that mux on
		// its own listener so profiling never shares a port with the
		// query API.
		pprofLn, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listen %s: %w", *pprofAddr, err)
		}
		pprofSrv := &http.Server{Handler: http.DefaultServeMux, ReadHeaderTimeout: 5 * time.Second}
		defer pprofSrv.Close()
		go func() { _ = pprofSrv.Serve(pprofLn) }()
		log.Printf("pprof on http://%s/debug/pprof/", pprofLn.Addr())
	}

	httpLn, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", *httpAddr, err)
	}
	srv := &http.Server{
		Handler:           transport.NewAPI(mon, apiOpts...),
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(httpLn) }()
	log.Printf("query API on %s", httpLn.Addr())
	if ready != nil {
		ready <- [2]string{listener.Addr().String(), httpLn.Addr().String()}
	}

	// Periodic state persistence, so even a hard kill loses at most one
	// save interval of learning.
	if *stateFile != "" {
		every(*stateIntv, func() {
			if err := saveState(mon, *stateFile); err != nil {
				log.Printf("state save: %v", err)
			}
		})
	}

	select {
	case <-ctx.Done():
		log.Print("shutting down")
		joinLoops()
		if *stateFile != "" {
			if err := saveState(mon, *stateFile); err != nil {
				log.Printf("final state save: %v", err)
			} else {
				log.Printf("state saved to %s", *stateFile)
			}
		}
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return srv.Shutdown(shutCtx)
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}

// transitionLog is the -log-transitions output. Its handler runs inside
// Runner.Round, under the round's history, QoS and App locks, so it only
// records each transition in a reused slice; flush, called once the
// round has returned, formats them as the standard logger would —
// "transition: <id> -> <status>" behind the logger's prefix and flags —
// and writes them all in one write.
type transitionLog struct {
	out io.Writer

	mu      sync.Mutex
	pending []loggedTransition // recorded since the last flush
	buf     bytes.Buffer
	lines   *log.Logger // formats into buf
}

type loggedTransition struct {
	proc string
	st   core.Status
}

func newTransitionLog(out io.Writer, prefix string, flags int) *transitionLog {
	l := &transitionLog{out: out}
	l.lines = log.New(&l.buf, prefix, flags)
	return l
}

// record is the App's transition handler.
func (l *transitionLog) record(proc string, _ core.Transition, st core.Status) {
	l.mu.Lock()
	l.pending = append(l.pending, loggedTransition{proc, st})
	l.mu.Unlock()
}

// flush writes the transitions recorded since the last flush. It must
// not run concurrently with itself. A nil log (-log-transitions=false)
// writes nothing.
func (l *transitionLog) flush() {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.buf.Reset()
	for _, t := range l.pending {
		l.lines.Printf("transition: %s -> %s", t.proc, t.st)
	}
	clear(l.pending) // drop the ids of departed processes
	l.pending = l.pending[:0]
	l.mu.Unlock()
	if l.buf.Len() == 0 {
		return
	}
	if _, err := l.out.Write(l.buf.Bytes()); err != nil {
		log.Printf("transition log: %v", err)
	}
}

// saveState writes the monitor's exported state atomically: encode to a
// temp file in the target directory, fsync, rename. A crash mid-save
// leaves the previous snapshot intact.
func saveState(mon *service.Monitor, path string) error {
	data := statecodec.Encode(mon.ExportState())
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// loadState restores persisted state into the monitor, returning how
// many processes were restored.
func loadState(mon *service.Monitor, path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	st, err := statecodec.Decode(data)
	if err != nil {
		return 0, err
	}
	return mon.ImportState(st)
}
