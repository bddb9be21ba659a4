package transport

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"accrual/internal/autotune"
	"accrual/internal/core"
	"accrual/internal/service"
	"accrual/internal/telemetry"
	"accrual/internal/transport/statecodec"
)

// API serves a monitor's suspicion levels over HTTP/JSON. Interpretation
// stays client-side, faithful to the paper's architecture: the service
// returns raw levels, and the optional threshold parameter of /v1/status
// is evaluated per request (the client owns the threshold, not the
// service).
//
// Routes:
//
//	GET /v1/processes            all processes, ranked least→most suspected
//	GET /v1/processes?top=K      only the K most suspected, worst first
//	GET /v1/suspicion?id=X       one process's current suspicion level
//	GET /v1/status?id=X&threshold=T   D_T interpretation of the level
//	GET /v1/state                binary snapshot of all detector state
//	PUT /v1/state                restore detector state from a snapshot
//	GET /v1/healthz              liveness probe
//	GET /v1/metrics              Prometheus text exposition (WithAPITelemetry);
//	                             ?cursor=&limit= pages shard-by-shard
//	GET /v1/tune                 autotuner dry-run plan (WithTuner)
//	POST /v1/tune                run one autotune round now (WithTuner)
//
// /v1/state carries the statecodec binary format (see
// internal/transport/statecodec) and is the live state handoff path: a
// replacement monitor GETs the old daemon's state and PUTs it into the
// new one, so detectors resume with their learned estimators instead of
// re-learning the network from scratch.
type API struct {
	mon     *service.Monitor
	run     *service.Runner
	rec     *service.Recorder
	hub     *telemetry.Hub
	cluster ClusterView
	tuner   *autotune.Controller
	mux     *http.ServeMux

	// onScrapeShard, when non-nil, observes every shard a /v1/metrics
	// render walks. Tests use it to verify that a render whose client is
	// gone stops walking; production handlers leave it nil.
	onScrapeShard func(shard int)
}

// APIOption configures the HTTP handler.
type APIOption func(*API)

// WithRunner wires the monitor's background round into the API: its
// recorder, if any, serves /v1/history, and /v1/metrics reports the
// round's liveness for each consumer attached to it.
func WithRunner(r *service.Runner) APIOption {
	return func(a *API) {
		a.run = r
		a.rec = r.Consumers().History
	}
}

// WithAPITelemetry enables GET /v1/metrics, serving the hub's counters
// and online QoS estimates in the Prometheus text format.
func WithAPITelemetry(hub *telemetry.Hub) APIOption {
	return func(a *API) { a.hub = hub }
}

// WithClusterView enables GET /v1/cluster, serving the federation
// plane's merged fleet view, and the per-peer staleness gauge on
// /v1/metrics.
func WithClusterView(v ClusterView) APIOption {
	return func(a *API) { a.cluster = v }
}

// NewAPI returns the HTTP handler for a monitor.
func NewAPI(mon *service.Monitor, opts ...APIOption) *API {
	a := &API{mon: mon, mux: http.NewServeMux()}
	for _, opt := range opts {
		opt(a)
	}
	a.mux.HandleFunc("GET /v1/processes", a.handleProcesses)
	a.mux.HandleFunc("GET /v1/suspicion", a.handleSuspicion)
	a.mux.HandleFunc("GET /v1/status", a.handleStatus)
	a.mux.HandleFunc("GET /v1/history", a.handleHistory)
	a.mux.HandleFunc("GET /v1/state", a.handleStateDump)
	a.mux.HandleFunc("PUT /v1/state", a.handleStateRestore)
	a.mux.HandleFunc("GET /v1/healthz", a.handleHealthz)
	a.mux.HandleFunc("GET /v1/metrics", a.handleMetrics)
	a.mux.HandleFunc("GET /v1/cluster", a.handleCluster)
	a.mux.HandleFunc("GET /v1/tune", a.handleTunePlan)
	a.mux.HandleFunc("POST /v1/tune", a.handleTuneApply)
	return a
}

// ServeHTTP implements http.Handler.
func (a *API) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	a.mux.ServeHTTP(w, r)
}

// ProcessLevel is the JSON shape of one ranked process.
type ProcessLevel struct {
	ID    string  `json:"id"`
	Level float64 `json:"level"`
}

// ProcessesResponse is the JSON shape of /v1/processes.
type ProcessesResponse struct {
	Processes []ProcessLevel `json:"processes"`
}

// StatusResponse is the JSON shape of /v1/status.
type StatusResponse struct {
	ID        string  `json:"id"`
	Level     float64 `json:"level"`
	Threshold float64 `json:"threshold"`
	Status    string  `json:"status"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func (a *API) handleProcesses(w http.ResponseWriter, r *http.Request) {
	var ranked []service.RankedProcess
	if tq := r.URL.Query().Get("top"); tq != "" {
		k, err := strconv.Atoi(tq)
		if err != nil || k < 1 {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("invalid top %q", tq)})
			return
		}
		// Bounded selection: most suspected first, O(k) space instead of
		// materialising the full sorted membership.
		ranked = a.mon.TopK(k, nil)
	} else {
		ranked = a.mon.Ranked()
	}
	resp := ProcessesResponse{Processes: make([]ProcessLevel, len(ranked))}
	for i, rp := range ranked {
		resp.Processes[i] = ProcessLevel{ID: rp.ID, Level: jsonLevel(rp.Level)}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (a *API) handleSuspicion(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "missing id parameter"})
		return
	}
	level, err := a.mon.Suspicion(id)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, service.ErrUnknownProcess) {
			status = http.StatusNotFound
		}
		writeJSON(w, status, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, ProcessLevel{ID: id, Level: jsonLevel(level)})
}

func (a *API) handleStatus(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	id := q.Get("id")
	if id == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "missing id parameter"})
		return
	}
	threshold, err := strconv.ParseFloat(q.Get("threshold"), 64)
	if err != nil || math.IsNaN(threshold) || threshold < 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "missing or invalid threshold parameter"})
		return
	}
	level, err := a.mon.Suspicion(id)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, service.ErrUnknownProcess) {
			status = http.StatusNotFound
		}
		writeJSON(w, status, errorResponse{Error: err.Error()})
		return
	}
	st := core.Trusted
	if level > core.Level(threshold) {
		st = core.Suspected
	}
	writeJSON(w, http.StatusOK, StatusResponse{
		ID:        id,
		Level:     jsonLevel(level),
		Threshold: threshold,
		Status:    st.String(),
	})
}

// HistorySample is one recorded level sample in /v1/history.
type HistorySample struct {
	At    time.Time `json:"at"`
	Level float64   `json:"level"`
}

// HistoryResponse is the JSON shape of /v1/history.
type HistoryResponse struct {
	ID      string          `json:"id"`
	Samples []HistorySample `json:"samples"`
}

func (a *API) handleHistory(w http.ResponseWriter, r *http.Request) {
	if a.rec == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "history recording not enabled"})
		return
	}
	id := r.URL.Query().Get("id")
	if id == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "missing id parameter"})
		return
	}
	records, ok := a.rec.History(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "no history for " + id})
		return
	}
	resp := HistoryResponse{ID: id, Samples: make([]HistorySample, len(records))}
	for i, rec := range records {
		resp.Samples[i] = HistorySample{At: rec.At, Level: jsonLevel(rec.Level)}
	}
	writeJSON(w, http.StatusOK, resp)
}

// maxStateBody bounds PUT /v1/state request bodies (16 MiB is ~10⁵
// processes with full estimator windows — far beyond one monitor).
const maxStateBody = 16 << 20

// StateRestoreResponse is the JSON shape of PUT /v1/state.
type StateRestoreResponse struct {
	Restored int `json:"restored"`
}

func (a *API) handleStateDump(w http.ResponseWriter, _ *http.Request) {
	data := statecodec.Encode(a.mon.ExportState())
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	_, _ = w.Write(data)
}

func (a *API) handleStateRestore(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxStateBody+1))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "reading body: " + err.Error()})
		return
	}
	if len(body) > maxStateBody {
		writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{Error: "state payload too large"})
		return
	}
	st, err := statecodec.Decode(body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	n, err := a.mon.ImportState(st)
	if err != nil {
		// Partial restores (kind mismatches) are reported but what did
		// restore stays restored; the client sees both facts.
		writeJSON(w, http.StatusConflict, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, StateRestoreResponse{Restored: n})
}

func (a *API) handleCluster(w http.ResponseWriter, _ *http.Request) {
	if a.cluster == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "federation not enabled"})
		return
	}
	writeJSON(w, http.StatusOK, a.cluster.ClusterInfo())
}

func (a *API) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{
		"status":    "ok",
		"processes": strconv.Itoa(a.mon.Len()),
	})
}

// jsonLevel clamps non-finite levels to the largest finite float64 so the
// response stays valid JSON.
func jsonLevel(l core.Level) float64 {
	f := float64(l)
	if math.IsInf(f, 1) || math.IsNaN(f) {
		return math.MaxFloat64
	}
	return f
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
