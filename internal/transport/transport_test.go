package transport

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"accrual/internal/clock"
	"accrual/internal/core"
	"accrual/internal/service"
	"accrual/internal/simple"
)

func waitUntil(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached before timeout")
}

func netDial(addr string) (net.Conn, error) {
	return net.Dial("udp", addr)
}

func newMonitor() *service.Monitor {
	return service.NewMonitor(clock.Wall{}, func(_ string, start time.Time) core.Detector {
		return simple.New(start)
	})
}

func TestSenderListenerEndToEnd(t *testing.T) {
	mon := newMonitor()
	l, err := Listen("127.0.0.1:0", mon)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	s, err := NewSender("w1", l.Addr().String(), 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	waitUntil(t, 3*time.Second, func() bool {
		return l.Stats().Delivered >= 3
	})
	lvl, err := mon.Suspicion("w1")
	if err != nil {
		t.Fatalf("process not registered by heartbeats: %v", err)
	}
	if lvl > 1 {
		t.Errorf("suspicion = %v, want small while heartbeats flow", lvl)
	}
	if s.Sent() == 0 {
		t.Error("Sent counter not advancing")
	}
}

// TestListenerIngestWorkers runs many senders into the one read loop:
// every process registers, per-process sequence ordering survives (the
// monitor's detectors reject out-of-order sequences, so a full
// registration with fresh levels proves order was preserved), and the
// socket's counters account for every datagram.
func TestListenerIngestWorkers(t *testing.T) {
	mon := newMonitor()
	l, err := Listen("127.0.0.1:0", mon)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	const senders = 8
	var started []*Sender
	for i := 0; i < senders; i++ {
		s, err := NewSender("w"+string(rune('a'+i)), l.Addr().String(), 10*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		defer s.Stop()
		started = append(started, s)
	}

	waitUntil(t, 3*time.Second, func() bool {
		return l.Stats().Delivered >= uint64(senders*3) && mon.Len() == senders
	})
	for _, id := range mon.Processes() {
		lvl, err := mon.Suspicion(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if lvl > 1 {
			t.Errorf("%s: suspicion = %v, want small while heartbeats flow", id, lvl)
		}
	}
	if dropped := l.Stats().Dropped(); dropped != 0 {
		t.Errorf("dropped = %d, want 0", dropped)
	}

	// The socket's read-loop counters account for every datagram the
	// listener handled, once the senders have stopped.
	for _, s := range started {
		s.Stop()
	}
	if got := l.tel.SocketCount(); got != 1 {
		t.Fatalf("SocketCount() = %d, want 1", got)
	}
	perSocket := func() (n uint64) {
		l.tel.EachSocket(func(_ string, packets, _ uint64) { n += packets })
		return n
	}
	waitUntil(t, 3*time.Second, func() bool { return perSocket() == l.Stats().PacketsReceived })
}

func TestSenderStopIdempotent(t *testing.T) {
	mon := newMonitor()
	l, err := Listen("127.0.0.1:0", mon)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	s, err := NewSender("w", l.Addr().String(), 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	s.Stop()
	s.Stop() // must not panic or block
}

func TestSenderDoubleStart(t *testing.T) {
	mon := newMonitor()
	l, err := Listen("127.0.0.1:0", mon)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	s, err := NewSender("w", l.Addr().String(), 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	if err := s.Start(); err == nil {
		t.Error("second Start should fail")
	}
}

func TestNewSenderValidation(t *testing.T) {
	if _, err := NewSender("", "127.0.0.1:1", time.Second); err == nil {
		t.Error("empty id should fail")
	}
	if _, err := NewSender("x", "127.0.0.1:1", 0); err == nil {
		t.Error("zero interval should fail")
	}
}

func TestListenerRejectsGarbage(t *testing.T) {
	mon := newMonitor()
	l, err := Listen("127.0.0.1:0", mon)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	conn, err := netDial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("not a heartbeat")); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 3*time.Second, func() bool {
		return l.Stats().Dropped() == 1
	})
	if st := l.Stats(); st.PacketsShort != 1 || st.PacketsReceived != 1 {
		t.Errorf("stats = %+v, want the garbage datagram counted as short", st)
	}
	if got := mon.Processes(); len(got) != 0 {
		t.Errorf("garbage registered a process: %v", got)
	}
}

func TestAPIProcessesAndSuspicion(t *testing.T) {
	clk := clock.NewManual(time.Date(2005, 3, 22, 0, 0, 0, 0, time.UTC))
	mon := service.NewMonitor(clk, func(_ string, start time.Time) core.Detector {
		return simple.New(start)
	})
	_ = mon.Heartbeat(core.Heartbeat{From: "b", Seq: 1, Arrived: clk.Now()})
	clk.Advance(2 * time.Second)
	_ = mon.Heartbeat(core.Heartbeat{From: "a", Seq: 1, Arrived: clk.Now()})
	clk.Advance(time.Second)

	srv := httptest.NewServer(NewAPI(mon))
	defer srv.Close()

	var resp ProcessesResponse
	getJSON(t, srv.URL+"/v1/processes", http.StatusOK, &resp)
	if len(resp.Processes) != 2 {
		t.Fatalf("processes = %+v", resp)
	}
	if resp.Processes[0].ID != "a" || resp.Processes[1].ID != "b" {
		t.Errorf("ranking order = %+v", resp.Processes)
	}
	if resp.Processes[0].Level != 1 || resp.Processes[1].Level != 3 {
		t.Errorf("levels = %+v", resp.Processes)
	}

	// ?top=k returns the k most suspected, worst first.
	var top ProcessesResponse
	getJSON(t, srv.URL+"/v1/processes?top=1", http.StatusOK, &top)
	if len(top.Processes) != 1 || top.Processes[0].ID != "b" || top.Processes[0].Level != 3 {
		t.Errorf("top=1 = %+v", top.Processes)
	}
	getJSON(t, srv.URL+"/v1/processes?top=10", http.StatusOK, &top)
	if len(top.Processes) != 2 || top.Processes[0].ID != "b" || top.Processes[1].ID != "a" {
		t.Errorf("top=10 = %+v", top.Processes)
	}
	var badTop map[string]string
	getJSON(t, srv.URL+"/v1/processes?top=0", http.StatusBadRequest, &badTop)
	getJSON(t, srv.URL+"/v1/processes?top=x", http.StatusBadRequest, &badTop)

	var one ProcessLevel
	getJSON(t, srv.URL+"/v1/suspicion?id=b", http.StatusOK, &one)
	if one.ID != "b" || one.Level != 3 {
		t.Errorf("suspicion = %+v", one)
	}

	var errResp map[string]string
	getJSON(t, srv.URL+"/v1/suspicion?id=ghost", http.StatusNotFound, &errResp)
	getJSON(t, srv.URL+"/v1/suspicion", http.StatusBadRequest, &errResp)
}

func TestAPIStatus(t *testing.T) {
	clk := clock.NewManual(time.Date(2005, 3, 22, 0, 0, 0, 0, time.UTC))
	mon := service.NewMonitor(clk, func(_ string, start time.Time) core.Detector {
		return simple.New(start)
	})
	_ = mon.Heartbeat(core.Heartbeat{From: "p", Seq: 1, Arrived: clk.Now()})
	clk.Advance(5 * time.Second)

	srv := httptest.NewServer(NewAPI(mon))
	defer srv.Close()

	var st StatusResponse
	getJSON(t, srv.URL+"/v1/status?id=p&threshold=3", http.StatusOK, &st)
	if st.Status != "suspected" || st.Level != 5 || st.Threshold != 3 {
		t.Errorf("status = %+v", st)
	}
	getJSON(t, srv.URL+"/v1/status?id=p&threshold=10", http.StatusOK, &st)
	if st.Status != "trusted" {
		t.Errorf("status = %+v", st)
	}

	var errResp map[string]string
	getJSON(t, srv.URL+"/v1/status?id=p", http.StatusBadRequest, &errResp)
	getJSON(t, srv.URL+"/v1/status?id=p&threshold=-1", http.StatusBadRequest, &errResp)
	getJSON(t, srv.URL+"/v1/status?threshold=1", http.StatusBadRequest, &errResp)
	getJSON(t, srv.URL+"/v1/status?id=ghost&threshold=1", http.StatusNotFound, &errResp)
}

func TestAPIHealthz(t *testing.T) {
	srv := httptest.NewServer(NewAPI(newMonitor()))
	defer srv.Close()
	var resp map[string]string
	getJSON(t, srv.URL+"/v1/healthz", http.StatusOK, &resp)
	if resp["status"] != "ok" {
		t.Errorf("healthz = %v", resp)
	}
}

func getJSON(t *testing.T, url string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
}

func TestAPIHistory(t *testing.T) {
	clk := clock.NewManual(time.Date(2005, 3, 22, 0, 0, 0, 0, time.UTC))
	mon := service.NewMonitor(clk, func(_ string, start time.Time) core.Detector {
		return simple.New(start)
	})
	_ = mon.Heartbeat(core.Heartbeat{From: "p", Seq: 1, Arrived: clk.Now()})
	run := service.NewRunner(mon, time.Second, service.Consumers{History: service.NewRecorder(mon, 16)})
	for i := 0; i < 3; i++ {
		clk.Advance(time.Second)
		run.Round()
	}
	srv := httptest.NewServer(NewAPI(mon, WithRunner(run)))
	defer srv.Close()

	var resp HistoryResponse
	getJSON(t, srv.URL+"/v1/history?id=p", http.StatusOK, &resp)
	if resp.ID != "p" || len(resp.Samples) != 3 {
		t.Fatalf("history = %+v", resp)
	}
	if resp.Samples[0].Level != 1 || resp.Samples[2].Level != 3 {
		t.Errorf("sample levels = %+v", resp.Samples)
	}

	var errResp map[string]string
	getJSON(t, srv.URL+"/v1/history?id=ghost", http.StatusNotFound, &errResp)
	getJSON(t, srv.URL+"/v1/history", http.StatusBadRequest, &errResp)
}

func TestAPIHistoryDisabled(t *testing.T) {
	srv := httptest.NewServer(NewAPI(newMonitor()))
	defer srv.Close()
	var errResp map[string]string
	getJSON(t, srv.URL+"/v1/history?id=p", http.StatusNotFound, &errResp)
	if errResp["error"] == "" {
		t.Error("expected an explanatory error")
	}
}

func TestAPIStateDumpRestore(t *testing.T) {
	clk := clock.NewManual(time.Date(2005, 3, 22, 0, 0, 0, 0, time.UTC))
	factory := func(_ string, start time.Time) core.Detector {
		return simple.New(start)
	}
	mon := service.NewMonitor(clk, factory)
	for seq := 1; seq <= 20; seq++ {
		at := clk.Advance(time.Second)
		_ = mon.Heartbeat(core.Heartbeat{From: "a", Seq: uint64(seq), Arrived: at})
		_ = mon.Heartbeat(core.Heartbeat{From: "b", Seq: uint64(seq), Arrived: at})
	}
	srv := httptest.NewServer(NewAPI(mon))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/state")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/state: status %d, %v", resp.StatusCode, err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("Content-Type = %q", ct)
	}

	// A fresh monitor behind a fresh API accepts the dump.
	mon2 := service.NewMonitor(clock.NewManual(clk.Now()), factory)
	srv2 := httptest.NewServer(NewAPI(mon2))
	defer srv2.Close()
	var restored StateRestoreResponse
	putState(t, srv2.URL+"/v1/state", body, http.StatusOK, &restored)
	if restored.Restored != 2 {
		t.Errorf("restored = %d, want 2", restored.Restored)
	}
	lvlA, _ := mon.Suspicion("a")
	lvlB, _ := mon2.Suspicion("a")
	if lvlA != lvlB {
		t.Errorf("restored suspicion %v, live %v", lvlB, lvlA)
	}

	// Garbage payloads are rejected without side effects.
	mon3 := service.NewMonitor(clock.NewManual(clk.Now()), factory)
	srv3 := httptest.NewServer(NewAPI(mon3))
	defer srv3.Close()
	var errResp map[string]string
	putState(t, srv3.URL+"/v1/state", []byte("junk"), http.StatusBadRequest, &errResp)
	if mon3.Len() != 0 {
		t.Errorf("rejected payload registered %d processes", mon3.Len())
	}
}

func putState(t *testing.T, url string, body []byte, wantStatus int, out any) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("PUT %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
}

func TestMultiSenderHeartbeatsAllTargets(t *testing.T) {
	monA, monB := newMonitor(), newMonitor()
	la, err := Listen("127.0.0.1:0", monA)
	if err != nil {
		t.Fatal(err)
	}
	defer la.Close()
	lb, err := Listen("127.0.0.1:0", monB)
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()

	ms, err := NewMultiSender("node", []string{la.Addr().String(), lb.Addr().String()}, 15*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.Start(); err != nil {
		t.Fatal(err)
	}
	defer ms.Stop()

	waitUntil(t, 3*time.Second, func() bool {
		return la.Stats().Delivered >= 2 && lb.Stats().Delivered >= 2
	})
	for _, mon := range []*service.Monitor{monA, monB} {
		if _, err := mon.Suspicion("node"); err != nil {
			t.Errorf("monitor missing the node: %v", err)
		}
	}
	sent := ms.Sent()
	if len(sent) != 2 || sent[0] == 0 || sent[1] == 0 {
		t.Errorf("Sent = %v", sent)
	}
}

func TestMultiSenderValidation(t *testing.T) {
	if _, err := NewMultiSender("n", nil, time.Second); err == nil {
		t.Error("no targets should fail")
	}
	if _, err := NewMultiSender("", []string{"127.0.0.1:1"}, time.Second); err == nil {
		t.Error("empty id should fail")
	}
}

func TestMultiSenderStopIdempotent(t *testing.T) {
	mon := newMonitor()
	l, err := Listen("127.0.0.1:0", mon)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ms, err := NewMultiSender("n", []string{l.Addr().String()}, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.Start(); err != nil {
		t.Fatal(err)
	}
	ms.Stop()
	ms.Stop()
}
