package main

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"accrual/internal/transport"
)

// TestDaemonAutotuneFlags covers the flag seam: -autotune without a
// detection-time target is a boot error, and so are inverted QoS
// thresholds, an -autotune-step outside (0, 1) and a -target-pa outside
// [0, 1) (not silent fallbacks).
func TestDaemonAutotuneFlags(t *testing.T) {
	ctx := context.Background()
	if err := run(ctx, []string{"-autotune", "-udp", "127.0.0.1:0", "-http", "127.0.0.1:0"}, nil); err == nil {
		t.Error("-autotune without -target-td should fail")
	}
	if err := run(ctx, []string{"-qos-high", "1", "-qos-low", "2", "-udp", "127.0.0.1:0", "-http", "127.0.0.1:0"}, nil); err == nil {
		t.Error("inverted -qos-high/-qos-low should fail")
	}
	for _, tc := range []struct {
		flags []string
		want  string
	}{
		{[]string{"-autotune", "-target-td", "2s", "-autotune-step", "1.5"}, "MaxStep"},
		{[]string{"-autotune", "-target-td", "2s", "-autotune-step", "-0.1"}, "MaxStep"},
		{[]string{"-target-td", "2s", "-target-pa", "1.2"}, "TargetPA"},
	} {
		// A daemon that wrongly boots exits at the deadline instead of
		// hanging the test.
		bootCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
		err := run(bootCtx, append(tc.flags, "-udp", "127.0.0.1:0", "-http", "127.0.0.1:0", "-log-transitions=false"), nil)
		cancel()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want %s refused", tc.flags, err, tc.want)
		}
	}
}

// TestDaemonTuneEndpoint boots a daemon with a detection-time target
// (autotuner constructed, loop off), heartbeats it, and drives both
// tune verbs over HTTP.
func TestDaemonTuneEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time daemon test skipped in -short mode")
	}
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan [2]string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-udp", "127.0.0.1:0", "-http", "127.0.0.1:0",
			"-detector", "chen", "-interval", "20ms",
			"-target-td", "200ms", "-log-transitions=false",
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
	var plan transport.TunePlanResponse
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("tune plan never became feasible")
		}
		resp, err := http.Get(base + "/v1/tune")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			t.Fatalf("GET /v1/tune = %d", resp.StatusCode)
		}
		err = json.NewDecoder(resp.Body).Decode(&plan)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if plan.Feasible {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if plan.Measured.Procs != 1 {
		t.Errorf("measured procs = %d, want 1", plan.Measured.Procs)
	}

	resp, err := http.Post(base+"/v1/tune", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var applied transport.TunePlanResponse
	if err := json.NewDecoder(resp.Body).Decode(&applied); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if applied.Round == 0 {
		t.Error("POST /v1/tune did not run a round")
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
