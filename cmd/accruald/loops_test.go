package main

import (
	"context"
	"net"
	"net/http"
	"testing"
	"time"

	"accrual/internal/telemetry"
)

// TestDaemonLoopsRun checks the background schedule's wiring at the
// daemon's surface: the autotune loop advances its round counter on
// -autotune-interval, the gossip loop advances its digest counter on
// -federation-interval, and the first gossip round runs at boot, before
// any interval has passed.
func TestDaemonLoopsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time daemon test skipped in -short mode")
	}
	sink, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	go func() {
		buf := make([]byte, 64<<10)
		for {
			if _, _, err := sink.ReadFrom(buf); err != nil {
				return
			}
		}
	}()
	peer := []string{"-group", "a", "-peers", sink.LocalAddr().String()}

	t.Run("periodic", func(t *testing.T) {
		metrics, stop := bootDaemon(t, append([]string{
			"-detector", "chen", "-interval", "20ms", "-log-transitions=false",
			"-autotune", "-target-td", "200ms", "-autotune-interval", "20ms",
			"-federation-interval", "20ms",
		}, peer...))
		defer stop()
		deadline := time.Now().Add(5 * time.Second)
		for {
			s := metrics()
			tuned := metricValue(s, "accrual_autotune_rounds_total", "", "")
			sent := metricValue(s, "accrual_federation_digests_sent_total", "", "")
			if tuned >= 3 && sent >= 3 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("after 5s: %v autotune rounds, %v digests sent; want both >= 3", tuned, sent)
			}
			time.Sleep(20 * time.Millisecond)
		}
	})

	t.Run("first gossip round at boot", func(t *testing.T) {
		metrics, stop := bootDaemon(t, append([]string{"-federation-interval", "1h"}, peer...))
		defer stop()
		if sent := metricValue(metrics(), "accrual_federation_digests_sent_total", "", ""); sent != 1 {
			t.Errorf("digests sent at boot = %v, want 1 (one round, one peer)", sent)
		}
	})
}

// bootDaemon runs the daemon on ephemeral ports with args and returns a
// /v1/metrics scraper and a stop function that shuts the daemon down
// and checks it exits cleanly.
func bootDaemon(t *testing.T, args []string) (metrics func() []telemetry.Sample, stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan [2]string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, append([]string{"-udp", "127.0.0.1:0", "-http", "127.0.0.1:0"}, args...), ready)
	}()
	var addrs [2]string
	select {
	case addrs = <-ready:
	case err := <-done:
		cancel()
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(5 * time.Second):
		cancel()
		t.Fatal("daemon never became ready")
	}
	url := "http://" + addrs[1] + "/v1/metrics"
	metrics = func() []telemetry.Sample {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		samples, err := telemetry.ParseText(resp.Body)
		if err != nil {
			t.Fatalf("exposition does not parse: %v", err)
		}
		return samples
	}
	stop = func() {
		t.Helper()
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
	return metrics, stop
}
