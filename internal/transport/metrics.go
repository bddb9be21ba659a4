package transport

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"accrual/internal/service"
	"accrual/internal/telemetry"
)

// metricsContentType is the Prometheus text exposition media type.
const metricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// MetricsCursorHeader is the continuation header of a paginated
// /v1/metrics scrape: when present, its value is the shard cursor of the
// next page (`GET /v1/metrics?cursor=<value>&limit=<n>`); when absent,
// the scrape is complete. The body stays plain text exposition either
// way, so any page — and the byte concatenation of all pages — parses as
// a normal scrape.
const MetricsCursorHeader = "Accrual-Metrics-Cursor"

// metricsChunkSize is the flush threshold of a streaming (non-cursor)
// scrape: the exposition drains to the client every ~64 KiB instead of
// materialising the whole render, so scrape memory is O(chunk) no
// matter how many processes are registered.
const metricsChunkSize = telemetry.DefaultChunkSize

// metricsScratch is the pooled per-scrape working set: one shard's rows,
// reused across shards and scrapes so a steady-state scrape allocates
// nothing.
type metricsScratch struct {
	rows []telemetry.ProcRow
}

var metricsScratchPool = sync.Pool{New: func() any { return new(metricsScratch) }}

// handleMetrics serves GET /v1/metrics: the hub's hot-path counters,
// transport dispositions, online QoS estimates and the liveness
// timestamps of the background loops, all in the text format every
// Prometheus-compatible scraper understands. The exposition is written
// with the hand-rolled telemetry.MetricWriter — no client library —
// through a pooled chunk buffer, streamed shard by shard.
//
// Two modes:
//
//   - GET /v1/metrics — the whole exposition, streamed with O(chunk)
//     memory.
//   - GET /v1/metrics?cursor=<shard>&limit=<n> — one page: the global
//     sections and per-process headers on the first page (cursor 0),
//     then per-process series shard by shard until at least n processes
//     have been emitted, stopping at a shard boundary. The
//     Accrual-Metrics-Cursor response header carries the next cursor;
//     its absence means the scrape is complete. Concatenating the pages
//     of a quiesced monitor yields byte-identical output to the
//     single-shot scrape.
func (a *API) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if a.hub == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "telemetry not enabled"})
		return
	}
	cursor, limit, err := parseMetricsQuery(r.URL.RawQuery)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", metricsContentType)
	if limit <= 0 {
		// Single-shot (possibly from a non-zero cursor): stream.
		mw := telemetry.AcquireMetricWriter(w, metricsChunkSize)
		a.writeMetricsBody(mw, cursor, 0)
		mw.Flush()
		mw.Release()
		return
	}
	// Cursor mode: the continuation header must be decided before the
	// first body byte reaches the wire, so the page — bounded by limit
	// plus one shard — is buffered in the pooled writer and flushed
	// after the header is set.
	mw := telemetry.AcquireMetricWriter(w, 0)
	next := a.writeMetricsBody(mw, cursor, limit)
	if next >= 0 {
		w.Header().Set(MetricsCursorHeader, strconv.Itoa(next))
	}
	mw.Flush()
	mw.Release()
}

// WriteMetrics renders the full exposition to w through a pooled chunk
// buffer — the programmatic face of GET /v1/metrics, used by fdbench and
// the zero-alloc gate. The steady-state render performs no allocations.
func (a *API) WriteMetrics(w io.Writer) error {
	if a.hub == nil {
		return fmt.Errorf("transport: telemetry not enabled")
	}
	mw := telemetry.AcquireMetricWriter(w, metricsChunkSize)
	a.writeMetricsBody(mw, 0, 0)
	mw.Flush()
	err := mw.Err()
	mw.Release()
	return err
}

// WriteMetricsPage renders one cursor page to w and returns the next
// cursor (-1 when the scrape is complete). Page semantics match
// GET /v1/metrics?cursor=&limit= exactly.
func (a *API) WriteMetricsPage(w io.Writer, cursor, limit int) (next int, err error) {
	if a.hub == nil {
		return -1, fmt.Errorf("transport: telemetry not enabled")
	}
	mw := telemetry.AcquireMetricWriter(w, 0)
	next = a.writeMetricsBody(mw, cursor, limit)
	mw.Flush()
	err = mw.Err()
	mw.Release()
	return next, err
}

// parseMetricsQuery extracts cursor and limit from a raw query string
// without allocating (r.URL.Query would build a map per scrape). Absent
// parameters default to 0; limit 0 means "no pagination".
func parseMetricsQuery(raw string) (cursor, limit int, err error) {
	for raw != "" {
		var kv string
		if i := strings.IndexByte(raw, '&'); i >= 0 {
			kv, raw = raw[:i], raw[i+1:]
		} else {
			kv, raw = raw, ""
		}
		k, v := kv, ""
		if i := strings.IndexByte(kv, '='); i >= 0 {
			k, v = kv[:i], kv[i+1:]
		}
		switch k {
		case "cursor":
			cursor, err = strconv.Atoi(v)
			if err != nil || cursor < 0 {
				return 0, 0, fmt.Errorf("invalid cursor %q", v)
			}
		case "limit":
			limit, err = strconv.Atoi(v)
			if err != nil || limit < 1 {
				return 0, 0, fmt.Errorf("invalid limit %q", v)
			}
		}
	}
	return cursor, limit, nil
}

// writeMetricsBody renders one page: global sections and per-process
// headers when cursor is 0, then per-process series from shard cursor
// on. limit (>0) bounds the page to at least that many processes,
// stopping at the next shard boundary; the return value is the next
// cursor, or -1 when the last shard has been rendered.
func (a *API) writeMetricsBody(mw *telemetry.MetricWriter, cursor, limit int) (next int) {
	if cursor <= 0 {
		cursor = 0
		a.writeGlobalMetrics(mw)
		writePerProcessHeaders(mw)
	}
	return a.writePerProcessSamples(mw, cursor, limit)
}

// writeGlobalMetrics emits every section whose cardinality does not grow
// with the membership: monitor gauges, hot-path counters, transport
// dispositions, aggregate QoS, and background-loop liveness.
func (a *API) writeGlobalMetrics(mw *telemetry.MetricWriter) {
	mw.Header("accrual_monitor_processes", "Processes currently monitored", "gauge")
	mw.Sample("accrual_monitor_processes", float64(a.mon.Len()))

	tot := a.hub.Counters.Totals()
	counter := func(name, help string, v uint64) {
		mw.Header(name, help, "counter")
		mw.Sample(name, float64(v))
	}
	counter("accrual_heartbeats_ingested_total",
		"Heartbeats accepted by the monitor hot path", tot.HeartbeatsIngested)
	counter("accrual_heartbeats_stale_total",
		"Heartbeats with a duplicate or out-of-order sequence number", tot.HeartbeatsStale)
	counter("accrual_queries_total",
		"Suspicion queries served (direct and through application views)", tot.Queries)
	counter("accrual_registrations_total",
		"Process registrations, explicit and automatic", tot.Registrations)
	counter("accrual_deregistrations_total",
		"Process deregistrations", tot.Deregistrations)

	ts := a.hub.Transport.Snapshot()
	counter("accrual_udp_packets_received_total",
		"UDP datagrams read from the heartbeat socket", ts.PacketsReceived)
	counter("accrual_udp_heartbeats_delivered_total",
		"Decoded heartbeats accepted by the monitor", ts.Delivered)
	mw.Header("accrual_udp_packets_dropped_total",
		"Datagrams that never reached a detector, by disposition", "counter")
	for _, d := range [...]struct {
		reason string
		v      uint64
	}{
		{"short", ts.PacketsShort},
		{"bad_magic", ts.PacketsBadMagic},
		{"bad_version", ts.PacketsBadVersion},
		{"malformed", ts.PacketsMalformed},
		{"rejected", ts.Rejected},
	} {
		mw.Sample("accrual_udp_packets_dropped_total", float64(d.v),
			telemetry.Label{Name: "reason", Value: d.reason})
	}
	mw.Header("accrual_udp_packets_shed_total",
		"Always 0: beats are reported on the read loop with no queue to shed from; overload drops show in the kernel's UDP receive-buffer errors", "counter")
	mw.Sample("accrual_udp_packets_shed_total", 0,
		telemetry.Label{Name: "reason", Value: "queue_full"})
	counter("accrual_udp_batches_received_total",
		"AFB1 batch frames decoded from the heartbeat socket", ts.BatchesReceived)
	counter("accrual_udp_batch_beats_total",
		"Heartbeats carried inside decoded AFB1 batch frames", ts.BatchBeats)
	mw.Header("accrual_udp_batch_beats_high_water",
		"Largest decoded batch observed since start, in beats", "gauge")
	mw.Sample("accrual_udp_batch_beats_high_water", float64(ts.BatchHighWater))
	mw.Header("accrual_udp_ingest_queue_high_water",
		"Always 0: no ingest queue sits between the socket and the registry", "gauge")
	mw.Sample("accrual_udp_ingest_queue_high_water", 0)
	counter("accrual_intern_overflow_total",
		"Heartbeat ids decoded without interning because the id table was at capacity", ts.InternOverflow)
	if a.hub.Transport.SocketCount() > 0 {
		mw.Header("accrual_udp_socket_packets_total",
			"UDP datagrams read, by listener socket", "counter")
		a.hub.Transport.EachSocket(func(label string, packets, _ uint64) {
			mw.Sample("accrual_udp_socket_packets_total", float64(packets),
				telemetry.Label{Name: "socket", Value: label})
		})
		mw.Header("accrual_udp_socket_batches_total",
			"Socket read batches completed, by listener socket", "counter")
		a.hub.Transport.EachSocket(func(label string, _, batches uint64) {
			mw.Sample("accrual_udp_socket_batches_total", float64(batches),
				telemetry.Label{Name: "socket", Value: label})
		})
	}
	counter("accrual_sender_send_failures_total",
		"Heartbeats a local sender failed to put on the wire (write errors and backoff skips)", ts.SendFailures)
	counter("accrual_sender_redials_total",
		"Local sender reconnection attempts after a torn-down socket", ts.Redials)

	fed := a.hub.Federation.Snapshot()
	counter("accrual_federation_digests_sent_total",
		"AFG1 suspicion digests put on the wire (own rounds plus relays)", fed.DigestsSent)
	counter("accrual_federation_digests_received_total",
		"AFG1 suspicion digests accepted into the remote view", fed.DigestsReceived)
	counter("accrual_federation_digest_beats_total",
		"Suspect records carried by accepted digests", fed.DigestBeats)
	mw.Header("accrual_federation_digests_dropped_total",
		"Decoded digests dropped before merging, by reason", "counter")
	mw.Sample("accrual_federation_digests_dropped_total", float64(fed.DigestsStale),
		telemetry.Label{Name: "reason", Value: "stale_seq"})
	if a.cluster != nil {
		mw.Header("accrual_federation_peer_staleness_seconds",
			"Seconds since the last accepted digest from each federated peer", "gauge")
		a.cluster.EachPeerStaleness(func(peer string, staleness float64) {
			mw.Sample("accrual_federation_peer_staleness_seconds", staleness,
				telemetry.Label{Name: "peer", Value: peer})
		})
	}

	tune := a.hub.Autotune.Snapshot()
	counter("accrual_autotune_rounds_total",
		"QoS autotuner controller rounds (planned, whether or not applied)", tune.Rounds)
	counter("accrual_autotune_applied_total",
		"Autotuner rounds that applied a threshold or estimator update", tune.Applied)
	counter("accrual_autotune_clamped_total",
		"Autotuner rounds whose proposal was limited by the per-round step bound", tune.Clamped)
	counter("accrual_autotune_rejected_total",
		"Autotuner rounds rejected: degenerate measurements, infeasible targets or refused updates", tune.Rejected)
	tuneHigh, tuneLow, tuneWindow, tuneInterval := a.hub.Autotune.Knobs()
	mw.Header("accrual_autotune_threshold_high",
		"Last applied reference-interpreter high threshold, in detector level units", "gauge")
	mw.Sample("accrual_autotune_threshold_high", tuneHigh)
	mw.Header("accrual_autotune_threshold_low",
		"Last applied reference-interpreter low threshold, in detector level units", "gauge")
	mw.Sample("accrual_autotune_threshold_low", tuneLow)
	mw.Header("accrual_autotune_window_size",
		"Last applied estimator window capacity", "gauge")
	mw.Sample("accrual_autotune_window_size", tuneWindow)
	mw.Header("accrual_autotune_interval_seconds",
		"Last applied detector nominal-interval knob", "gauge")
	mw.Sample("accrual_autotune_interval_seconds", tuneInterval)

	walks := a.hub.Walks.Snapshot()
	counter("accrual_walk_runs_total",
		"Full-registry evaluation walks executed (sequential, parallel and coalesced batch passes)", walks.Runs)
	counter("accrual_walk_coalesced_total",
		"Full-fleet readers served by joining another consumer's walk instead of running their own", walks.Coalesced)

	count, mean, max := a.hub.QoS().DetectionStats()
	mw.Header("accrual_qos_detections_total",
		"Crashes detected (crash-marked processes deregistered while suspected)", "counter")
	mw.Sample("accrual_qos_detections_total", float64(count))
	mw.Header("accrual_qos_detection_time_seconds",
		"Detection time T_D over recorded crashes", "gauge")
	mw.Sample("accrual_qos_detection_time_seconds", mean.Seconds(),
		telemetry.Label{Name: "stat", Value: "mean"})
	mw.Sample("accrual_qos_detection_time_seconds", max.Seconds(),
		telemetry.Label{Name: "stat", Value: "max"})

	mw.Header("accrual_watcher_last_poll_timestamp_seconds",
		"Monitor-clock time of the watcher's latest poll round (0 when never or not wired)", "gauge")
	mw.Sample("accrual_watcher_last_poll_timestamp_seconds", timestampSeconds(lastPoll(a.watcher)))
	mw.Header("accrual_recorder_last_tick_timestamp_seconds",
		"Monitor-clock time of the recorder's latest sampling round (0 when never or not wired)", "gauge")
	mw.Sample("accrual_recorder_last_tick_timestamp_seconds", timestampSeconds(lastTick(a.rec)))
	mw.Header("accrual_sampler_last_sample_timestamp_seconds",
		"Monitor-clock time of the QoS sampler's latest round (0 when never or not wired)", "gauge")
	mw.Sample("accrual_sampler_last_sample_timestamp_seconds", timestampSeconds(lastSample(a.sampler)))
}

// writePerProcessHeaders emits the HELP/TYPE block of the six
// per-process families once, before the first process. The per-process
// section interleaves families per process (grouped by shard, then id)
// rather than per family, so it can be cut at shard boundaries; the
// package's parser and Prometheus' text parser both accept the
// interleaving, and the ordering contract is documented in
// docs/OBSERVABILITY.md §2.
func writePerProcessHeaders(mw *telemetry.MetricWriter) {
	mw.Header(telemetry.MetricSuspicionLevel,
		"Suspicion level evaluated at scrape time from the published eval snapshot", "gauge")
	mw.Header(telemetry.MetricQoSLambdaM,
		"Online estimate of the mistake rate lambda_M, S-transitions per second", "gauge")
	mw.Header(telemetry.MetricQoSPA,
		"Online estimate of the query accuracy probability P_A", "gauge")
	mw.Header(telemetry.MetricQoSTMR,
		"Online estimate of the mean mistake recurrence time T_MR", "gauge")
	mw.Header(telemetry.MetricQoSTM,
		"Online estimate of the mean mistake duration T_M", "gauge")
	mw.Header(telemetry.MetricQoSTG,
		"Online estimate of the mean good period T_G", "gauge")
}

// writePerProcessSamples walks registry shards from fromShard on,
// emitting the six per-process series for every monitored process (ids
// sorted within each shard; NaN for the QoS estimates of processes the
// estimators have not observed yet). The suspicion level is evaluated
// live from each process's published eval snapshot at scrape time — the
// scrape reads the registry's lock-free evaluation plane directly
// (service.Monitor.AppendShardSeries) rather than re-reporting the QoS
// sampler's last observation. Each shard is three steps: stage its rows
// in id order, gather their estimates under one hold of the QoS lock,
// then — with no lock held, since a flush is a network write — render.
// With limit > 0 it stops at the first shard boundary at or past limit
// emitted processes and returns the next shard index; otherwise (and on
// the final shard) it returns -1. Once a write to the client has failed
// the remaining shards are not walked at all.
func (a *API) writePerProcessSamples(mw *telemetry.MetricWriter, fromShard, limit int) (next int) {
	q := a.hub.QoS()
	sc := metricsScratchPool.Get().(*metricsScratch)
	next = -1
	emitted, staged := 0, 0
	now := a.mon.Now()
	shards := a.mon.ShardCount()
	for s := fromShard; s < shards && mw.Err() == nil; s++ {
		if a.onScrapeShard != nil {
			a.onScrapeShard(s)
		}
		sc.rows = a.mon.AppendShardSeries(s, now, sc.rows[:0])
		staged = max(staged, len(sc.rows))
		q.GatherEstimates(sc.rows)
		for i := range sc.rows {
			writeProcessSamples(mw, &sc.rows[i])
		}
		emitted += len(sc.rows)
		if limit > 0 && emitted >= limit && s+1 < shards {
			next = s + 1
			break
		}
	}
	// The pool must not keep departed processes' bindings reachable;
	// rows past the widest shard staged here were cleared by whoever
	// staged them.
	clear(sc.rows[:staged])
	metricsScratchPool.Put(sc)
	return next
}

// writeProcessSamples emits one process's six series.
func writeProcessSamples(mw *telemetry.MetricWriter, r *telemetry.ProcRow) {
	proc := r.Series.Labels()
	mw.SampleRendered(telemetry.MetricSuspicionLevel, proc, float64(r.Level))
	mw.SampleRendered(telemetry.MetricQoSLambdaM, proc, r.LambdaM)
	mw.SampleRendered(telemetry.MetricQoSPA, proc, r.PA)
	mw.SampleRendered(telemetry.MetricQoSTMR, proc, r.TMR)
	mw.SampleRendered(telemetry.MetricQoSTM, proc, r.TM)
	mw.SampleRendered(telemetry.MetricQoSTG, proc, r.TG)
}

// lastPoll, lastTick and lastSample tolerate nil sources so the scrape
// shape is stable regardless of which loops the daemon runs.
func lastPoll(w *service.Watcher) time.Time {
	if w == nil {
		return time.Time{}
	}
	return w.LastPoll()
}

func lastTick(r *service.Recorder) time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.LastTick()
}

func lastSample(s *telemetry.Sampler) time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.LastSample()
}

// timestampSeconds renders a loop-liveness timestamp the Prometheus way:
// Unix seconds as a float, 0 when the loop has never completed a round.
func timestampSeconds(t time.Time) float64 {
	if t.IsZero() {
		return 0
	}
	return float64(t.UnixNano()) / float64(time.Second)
}
