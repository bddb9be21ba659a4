// Package telemetry is the live observability layer of the failure
// detection service: the streaming counterpart to internal/qos plus the
// lock-free counters and Prometheus-text exposition that make a running
// daemon inspectable.
//
// The paper's architecture (§1.5, Figure 2) keeps the monitoring service
// application-agnostic: it emits raw suspicion levels and leaves
// interpretation to each application. That same decoupling applies to
// quality measurement. The QoS metrics of Chen, Toueg and Aguilera —
// detection time T_D, mistake recurrence time T_MR, mistake duration
// T_M, good period T_G, mistake rate λ_M and query accuracy P_A (§2) —
// are what Theorems 1 and 4 rank detectors by, and internal/qos computes
// them offline from recorded traces. This package computes the accuracy
// metrics *online*: a per-process reference interpreter (the Algorithm 3
// two-threshold detector D'_T from internal/transform) is driven by
// periodic suspicion-level samples, and its S-/T-transitions feed
// streaming accumulators whose estimates converge to the offline
// computation over the same sampled trace.
//
// Three layers:
//
//   - QoS: the online estimators, one per registry binding and carried
//     on it (ProcSeries), fed each interval by the daemon's background
//     round (service.Runner), or by Sample polling a LevelSource (a
//     service.Monitor).
//   - Counters / TransportCounters: cache-line-striped and plain atomic
//     counters wired into the heartbeat ingest and query hot paths; an
//     instrumented ingest stays zero-alloc and contention-free.
//   - MetricWriter / ParseText: hand-rolled Prometheus text exposition
//     (no external dependencies) and the minimal parser used by
//     `accrualctl top` and the round-trip tests.
//
// A Hub bundles one of each so the daemon can hand a single handle to
// the monitor, the UDP listener and the HTTP API.
package telemetry

import "accrual/internal/core"

// Default reference thresholds for the per-process QoS interpreter.
// The high threshold matches the conservative end of the per-detector
// threshold tables in docs/TUNING.md; the hysteresis gap keeps the
// reference interpreter from chattering on estimator noise.
const (
	DefaultQoSHigh core.Level = 2
	DefaultQoSLow  core.Level = 1
)

// Hub bundles the telemetry of one daemon: the monitor hot-path
// counters, the transport counters and the online QoS estimators. A Hub
// is created once at startup and shared by the service.Monitor
// (service.WithTelemetry), the UDP listener (transport.WithTelemetry)
// and the HTTP API, which exposes all of it on GET /v1/metrics.
type Hub struct {
	// Counters aggregates the monitor hot path (heartbeats, queries,
	// registrations) across cache-line-padded stripes.
	Counters Counters
	// Transport counts UDP packet dispositions, decoded batch frames and
	// sender failures.
	Transport TransportCounters
	// Federation counts the gossip plane's digest traffic
	// (internal/federation); zero and inert on a non-federated daemon.
	Federation FederationCounters
	// Autotune counts the QoS autotuner's controller rounds and knob
	// movements (internal/autotune); zero and inert when autotuning is
	// off.
	Autotune AutotuneCounters
	// Walks counts the evaluation plane's full-registry passes.
	Walks WalkCounters

	qos *QoS
}

// NewHub returns a telemetry hub whose QoS estimators use the default
// reference thresholds; Hub.QoS().SetThresholds changes them.
func NewHub() *Hub {
	qos, err := NewQoS(DefaultQoSHigh, DefaultQoSLow)
	if err != nil {
		panic(err) // the defaults are constants; unreachable
	}
	return &Hub{qos: qos}
}

// QoS returns the online QoS estimators.
func (h *Hub) QoS() *QoS { return h.qos }
