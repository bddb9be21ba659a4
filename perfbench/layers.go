package main

import (
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"time"
)

// quietTime is the length of the quiet phase of a traced run: nothing is
// sent and nothing asked, so the daemon's CPU is its background loops.
const quietTime = 2 * time.Second

// traced is the --trace 1 run: one set-up, the same cycle loop with a
// span around every call into the daemon, a quiet phase, and then the
// staged replay. It reports every per-layer metric and no end-to-end one.
func (r *run) traced() (*result, error) {
	tr := newTracer()
	b, _, err := r.coldStart(tr)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			b.retire()
		}
	}()
	drain0, barrier0 := b.drainTime, b.barrierTime
	ws, err := r.measure(b)
	if err != nil {
		return nil, err
	}
	drain, barrier := b.drainTime-drain0, b.barrierTime-barrier0

	sp := tr.begin("quiet", -1)
	q0, t0 := b.daemonCPU(), time.Now()
	time.Sleep(quietTime)
	idle := float64(b.daemonCPU()-q0) / 1e6 / time.Since(t0).Seconds()
	tr.end(sp)
	if b.cpuErr != nil {
		return nil, b.cpuErr
	}
	// The daemon goes before the staged replay, which wants the cores.
	b.retire()
	stopped = true

	res := newResult(b)
	// Measured like the end-to-end figures, but too unsteady on this
	// host to carry a bound (README, "Measured spreads").
	res.addCycleCPU(ws, "status_cpu_us")
	res.add("rss_mb", float64(ws.after.hwmKB)/1024, "MB", 1)
	res.clientLayer(ws, tr, drain, barrier)
	res.daemonLayer(ws, idle)
	// The staged replay compares against these two, in nanoseconds.
	beatCPU := median(cycleCPU(ws, r.w, "beat_cpu_us")) * 1e3
	statusCPU := median(cycleCPU(ws, r.w, "status_cpu_us")) * 1e3
	cycleSpans := len(tr.spans)
	if err := r.staged(tr, res, beatCPU, statusCPU); err != nil {
		return nil, fmt.Errorf("staged replay: %w", err)
	}
	// What recording the window's spans cost, as a share of the window.
	res.add("trace.span_overhead_share", float64(cycleSpans)*spanCost().Seconds()/ws.wall.Seconds(), "ratio", cycleSpans)
	if err := tr.write(filepath.Join(r.outDir, "trace-"+r.w.name+".jsonl")); err != nil {
		return nil, err
	}
	return res, nil
}

// durations returns, in the given unit, how long every span with this
// name took.
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	var out []float64
	for i := range t.spans {
		if t.spans[i].name == name {
			out = append(out, float64(t.spans[i].end-t.spans[i].start)/float64(unit))
		}
	}
	return out
}

// clientLayer adds client.*: the wall clock the generator saw. These
// move with the host as much as with the code, which is why none of them
// is an end-to-end metric.
func (res *result) clientLayer(ws *windowStats, tr *tracer, drain, barrier time.Duration) {
	res.addSamples("client.ingest_beats_per_s", "1/s", cycleValues(ws, func(cs *cycleSample) float64 {
		return float64(cs.beats) / cs.ingestWall.Seconds()
	}))
	res.addSamples("client.status_us", "us", tr.durations("status", time.Microsecond))
	res.addSamples("client.topk_ms", "ms", tr.durations("topk", time.Millisecond))
	res.addSamples("client.scrape_ms", "ms", tr.durations("scrape", time.Millisecond))
	res.addSamples("client.cycle_ms", "ms", tr.durations("cycle", time.Millisecond))
	res.addSamples("client.beat_visible_us", "us", res.b.visible)
	res.add("client.drain_wait_share", drain.Seconds()/ws.wall.Seconds(), "ratio", 1)
	res.add("client.barrier_share", barrier.Seconds()/ws.wall.Seconds(), "ratio", 1)
	res.add("client.cpu_share", ws.clientCPU.Seconds()/ws.wall.Seconds(), "ratio", 1)
	res.add("client.host_steal_share", ratio(ws.after.steal-ws.before.steal, ws.after.hostAll-ws.before.hostAll), "ratio", 1)
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// sumPrefix adds up every global series whose key starts with prefix.
func (ex *exposition) sumPrefix(prefix string) float64 {
	var sum float64
	for k, v := range ex.global {
		if strings.HasPrefix(k, prefix) {
			sum += v
		}
	}
	return sum
}

// daemonLayer adds daemon.*: the daemon's own counters and /proc, as
// deltas over the window.
func (res *result) daemonLayer(ws *windowStats, idleMsPerS float64) {
	b := res.b
	delta := func(prefix string) float64 { return ws.last.sumPrefix(prefix) - ws.first.sumPrefix(prefix) }
	var beats uint64
	for i := range ws.cycles {
		beats += ws.cycles[i].beats
	}
	user, sys := ws.after.utime-ws.before.utime, ws.after.stime-ws.before.stime
	res.add("daemon.cpu_sys_share", ratio(sys, user+sys), "ratio", 1)
	res.add("daemon.idle_cpu_ms_per_s", idleMsPerS, "ms/s", 1)
	res.add("daemon.ctxsw_per_kbeat", float64(ws.after.ctxsw-ws.before.ctxsw)/(float64(beats)/1e3), "count", 1)
	res.add("daemon.threads", float64(ws.after.threads), "count", 1)
	res.add("daemon.udp.datagrams_per_read", delta("accrual_udp_socket_packets_total")/delta("accrual_udp_socket_batches_total"), "count", 1)
	res.add("daemon.udp.beats_per_datagram", delta(keyDelivered)/delta("accrual_udp_packets_received_total"), "count", 1)
	res.add("daemon.udp.queue_high_water", ws.last.global["accrual_udp_ingest_queue_high_water"], "count", 1)
	res.add("daemon.udp.shed", delta("accrual_udp_packets_shed_total"), "count", 1)
	kernel := 0.0
	if sock, ok := b.socketRow(); ok {
		kernel = float64(sock.drops)
	}
	res.add("daemon.udp.dropped", delta("accrual_udp_packets_dropped_total")+kernel, "count", 1)
	res.add("daemon.monitor.stale", delta("accrual_heartbeats_stale_total"), "count", 1)
	res.add("daemon.walk.runs", delta("accrual_walk_runs_total"), "count", 1)
	res.add("daemon.walk.coalesced", delta("accrual_walk_coalesced_total"), "count", 1)
	res.add("daemon.intern.overflow", delta("accrual_intern_overflow_total"), "count", 1)
	res.add("daemon.scrape_bytes_per_proc", float64(b.scrapeBytes)/float64(b.w.n), "B", 1)
}

// finite keeps a result line valid JSON: a per-layer figure with no
// sample behind it (no probe resumed in a very short window) reads 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
