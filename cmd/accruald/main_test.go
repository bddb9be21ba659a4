package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"accrual/internal/clock"
	"accrual/internal/core"
	"accrual/internal/service"
	"accrual/internal/transport"
	"accrual/internal/transport/statecodec"
)

func TestDetectorFactory(t *testing.T) {
	for _, name := range []string{"phi", "chen", "kappa", "simple"} {
		f, err := detectorFactory(name, time.Second, service.ProfileDefault)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		det := f("p", time.Now())
		if det == nil {
			t.Fatalf("%s: nil detector", name)
		}
	}
	if _, err := detectorFactory("bogus", time.Second, service.ProfileDefault); err == nil {
		t.Error("unknown detector name should fail")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	ctx := context.Background()
	if err := run(ctx, []string{"-detector", "bogus", "-udp", "127.0.0.1:0", "-http", "127.0.0.1:0"}, nil); err == nil {
		t.Error("bad detector should fail")
	}
	if err := run(ctx, []string{"-udp", "256.0.0.1:bad"}, nil); err == nil {
		t.Error("bad UDP address should fail")
	}
}

// TestDaemonEndToEnd boots the daemon on ephemeral ports, heartbeats it
// over real UDP, queries the HTTP API, and shuts it down cleanly.
func TestDaemonEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time daemon test skipped in -short mode")
	}
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan [2]string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-udp", "127.0.0.1:0", "-http", "127.0.0.1:0",
			"-interval", "20ms", "-log-transitions=false",
			"-ingest-queue", "4096", // ignored, but existing command lines must still parse
		}, ready)
	}()
	var addrs [2]string
	select {
	case addrs = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("daemon never became ready")
	}
	udpAddr, httpAddr := addrs[0], addrs[1]

	sender, err := transport.NewSender("node-1", udpAddr, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := sender.Start(); err != nil {
		t.Fatal(err)
	}
	defer sender.Stop()

	base := "http://" + httpAddr
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("node-1 never appeared in /v1/processes")
		}
		resp, err := http.Get(base + "/v1/processes")
		if err != nil {
			t.Fatal(err)
		}
		var pr transport.ProcessesResponse
		err = json.NewDecoder(resp.Body).Decode(&pr)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(pr.Processes) == 1 && pr.Processes[0].ID == "node-1" {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	resp, err := http.Get(base + "/v1/status?id=node-1&threshold=8")
	if err != nil {
		t.Fatal(err)
	}
	var st transport.StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Status != "trusted" {
		t.Errorf("heartbeating node reported %q", st.Status)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("shutdown error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// TestDaemonWarmRestart boots a daemon with -state-file, feeds it
// heartbeats, shuts it down (saving state), then boots a replacement
// from the same file and checks the processes come back warm — plus
// exercises GET /v1/state on the live daemon.
func TestDaemonWarmRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time daemon test skipped in -short mode")
	}
	stateFile := filepath.Join(t.TempDir(), "accrual.state")

	boot := func() (context.CancelFunc, [2]string, chan error) {
		ctx, cancel := context.WithCancel(context.Background())
		ready := make(chan [2]string, 1)
		done := make(chan error, 1)
		go func() {
			done <- run(ctx, []string{
				"-udp", "127.0.0.1:0", "-http", "127.0.0.1:0",
				"-interval", "20ms", "-log-transitions=false",
				"-state-file", stateFile, "-state-interval", "50ms",
			}, ready)
		}()
		select {
		case addrs := <-ready:
			return cancel, addrs, done
		case err := <-done:
			t.Fatalf("daemon exited early: %v", err)
		case <-time.After(5 * time.Second):
			t.Fatal("daemon never became ready")
		}
		panic("unreachable")
	}

	cancel, addrs, done := boot()
	sender, err := transport.NewSender("node-1", addrs[0], 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := sender.Start(); err != nil {
		t.Fatal(err)
	}

	base := "http://" + addrs[1]
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("node-1 never appeared")
		}
		resp, err := http.Get(base + "/v1/suspicion?id=node-1")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The live state endpoint serves a decodable snapshot.
	resp, err := http.Get(base + "/v1/state")
	if err != nil {
		t.Fatal(err)
	}
	dump, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/state: %d, %v", resp.StatusCode, err)
	}
	if st, err := statecodec.Decode(dump); err != nil || st.Len() != 1 {
		t.Fatalf("state dump: %d procs, %v", st.Len(), err)
	}

	sender.Stop()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	if _, err := os.Stat(stateFile); err != nil {
		t.Fatalf("state file not saved: %v", err)
	}

	// The replacement warm-boots: node-1 is known before any new
	// heartbeat arrives.
	cancel2, addrs2, done2 := boot()
	defer func() {
		cancel2()
		<-done2
	}()
	resp, err = http.Get("http://" + addrs2[1] + "/v1/suspicion?id=node-1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("warm-booted daemon does not know node-1: status %d", resp.StatusCode)
	}
}

// TestSaveLoadStateRoundTrip exercises the atomic save and warm load
// directly, including the corrupt-file path.
func TestSaveLoadStateRoundTrip(t *testing.T) {
	clk := clock.NewManual(time.Date(2005, 3, 22, 0, 0, 0, 0, time.UTC))
	factory, err := detectorFactory("phi", 100*time.Millisecond, service.ProfileDefault)
	if err != nil {
		t.Fatal(err)
	}
	mon := service.NewMonitor(clk, factory)
	for seq := 1; seq <= 30; seq++ {
		at := clk.Advance(100 * time.Millisecond)
		_ = mon.Heartbeat(core.Heartbeat{From: "a", Seq: uint64(seq), Arrived: at})
	}

	path := filepath.Join(t.TempDir(), "s.state")
	if err := saveState(mon, path); err != nil {
		t.Fatalf("saveState: %v", err)
	}
	mon2 := service.NewMonitor(clock.NewManual(clk.Now()), factory)
	n, err := loadState(mon2, path)
	if err != nil || n != 1 {
		t.Fatalf("loadState = %d, %v", n, err)
	}
	a, _ := mon.Suspicion("a")
	b, _ := mon2.Suspicion("a")
	if a != b {
		t.Errorf("restored suspicion %v, live %v", b, a)
	}

	if _, err := loadState(mon2, filepath.Join(t.TempDir(), "absent")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("absent file: err = %v, want ErrNotExist", err)
	}
	bad := filepath.Join(t.TempDir(), "bad.state")
	if err := os.WriteFile(bad, []byte("garbage"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := loadState(mon2, bad); err == nil {
		t.Error("corrupt file should fail to load")
	}
}

// TestDaemonHistoryEndpoint boots the daemon with history recording and
// reads back a level trajectory over HTTP.
func TestDaemonHistoryEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time daemon test skipped in -short mode")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan [2]string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-udp", "127.0.0.1:0", "-http", "127.0.0.1:0",
			"-interval", "15ms", "-history", "64", "-log-transitions=false",
		}, ready)
	}()
	var addrs [2]string
	select {
	case addrs = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("daemon never became ready")
	}
	sender, err := transport.NewSender("n1", addrs[0], 15*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := sender.Start(); err != nil {
		t.Fatal(err)
	}
	defer sender.Stop()

	base := "http://" + addrs[1]
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("history never accumulated")
		}
		resp, err := http.Get(base + "/v1/history?id=n1")
		if err != nil {
			t.Fatal(err)
		}
		var hr transport.HistoryResponse
		err = json.NewDecoder(resp.Body).Decode(&hr)
		resp.Body.Close()
		if err == nil && resp.StatusCode == http.StatusOK && len(hr.Samples) >= 2 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// TestPhiFactoryKeepsBootstrap checks the daemon's φ factory, which
// sizes the window from the profile, still seeds the bootstrap: a
// process that beats once and dies must accrue suspicion.
func TestPhiFactoryKeepsBootstrap(t *testing.T) {
	for _, profile := range []service.Profile{service.ProfileDefault, service.ProfileCompact} {
		f, err := detectorFactory("phi", 100*time.Millisecond, profile)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Date(2005, 3, 22, 0, 0, 0, 0, time.UTC)
		det := f("p", start)
		det.Report(core.Heartbeat{From: "p", Seq: 1, Arrived: start.Add(100 * time.Millisecond)})
		if lvl := det.Suspicion(start.Add(time.Hour)); lvl < 1000 {
			t.Errorf("profile %v: level an hour after the only beat = %v, want it accrued", profile, lvl)
		}
	}
}
