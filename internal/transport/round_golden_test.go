package transport

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"accrual/internal/clock"
	"accrual/internal/core"
	"accrual/internal/phi"
	"accrual/internal/service"
	"accrual/internal/telemetry"
)

// TestRoundOutputsGolden pins what the three per-interval consumers of
// the level stream produce on a fixed trace: the /v1/history JSON, every
// QoS series of /v1/metrics, and the transition log of an Algorithm-1
// App. The trace runs on a manual clock over φ detectors and covers a
// late join, two silences that recover, a crash that is deregistered
// while suspected, and a plain deregistration. The goldens were
// produced by driving each consumer through its own round (Recorder
// tick, QoS sample, App poll) at the same instants; one Runner round
// per instant must reproduce them byte for byte.
func TestRoundOutputsGolden(t *testing.T) {
	epoch := time.Date(2005, 3, 22, 0, 0, 0, 0, time.UTC)
	clk := clock.NewManual(epoch)
	hub := telemetry.NewHub()
	mon := service.NewMonitor(clk, func(_ string, start time.Time) core.Detector {
		return phi.New(start, phi.WithBootstrap(time.Second, time.Second/4))
	}, service.WithTelemetry(hub))

	var transitions strings.Builder
	app := mon.NewApp("golden", service.AdaptivePolicy(),
		service.WithTransitionHandler(func(proc string, tr core.Transition, st core.Status) {
			fmt.Fprintf(&transitions, "%v %s %v %v\n", tr.At.Sub(epoch), proc, tr.Kind, st)
		}))
	run := service.NewRunner(mon, time.Second, service.Consumers{
		History: service.NewRecorder(mon, 16),
		QoS:     hub.QoS(),
		Apps:    []*service.App{app},
	})
	round := run.Round
	srv := httptest.NewServer(NewAPI(mon, WithRunner(run), WithAPITelemetry(hub)))
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("GET %s %d\n%s", path, resp.StatusCode, body)
	}
	var history strings.Builder
	captureHistory := func(ids ...string) {
		for _, id := range ids {
			history.WriteString(get("/v1/history?id=" + id))
		}
	}

	// silent reports whether process p sends no heartbeat at time at.
	silent := func(p int, at time.Duration) bool {
		switch p {
		case 1: // crashes at 20s
			return at >= 20*time.Second
		case 2: // long pause, recovers
			return at >= 15*time.Second && at < 25*time.Second
		case 3: // short pause, recovers
			return at >= 30*time.Second && at < 34*time.Second
		case 4: // joins late
			return at < 10*time.Second
		}
		return false
	}
	const procs = 6
	var seq [procs]uint64
	var gone [procs]bool
	const step = 100 * time.Millisecond
	for at := step; at <= 60*time.Second; at += step {
		now := clk.Advance(step)
		for p := 0; p < procs; p++ {
			// One beat a second per process, phase-shifted by p·100ms plus
			// a fixed jitter, so arrivals and rounds interleave.
			jitter := time.Duration((p*37+int(at/time.Second)*13)%3) * step
			if gone[p] || silent(p, at) || (at-time.Duration(p)*step-jitter)%time.Second != 0 {
				continue
			}
			seq[p]++
			id := fmt.Sprintf("p%d", p)
			if err := mon.Heartbeat(core.Heartbeat{From: id, Seq: seq[p], Arrived: now}); err != nil {
				t.Fatal(err)
			}
		}
		switch at {
		case 20 * time.Second:
			hub.QoS().MarkCrashed("p1", now)
		case 40 * time.Second:
			gone[1] = mon.Deregister("p1")
		case 45 * time.Second:
			gone[5] = mon.Deregister("p5")
		}
		if at%(500*time.Millisecond) == 0 {
			round()
		}
		if at == 30*time.Second {
			captureHistory("p0", "p1", "p2", "p3", "p4", "p5")
		}
	}
	if !gone[1] || !gone[5] {
		t.Fatal("scripted deregistrations did not happen")
	}
	captureHistory("p0", "p2", "p3", "p4")

	var qos strings.Builder
	sc := bufio.NewScanner(strings.NewReader(get("/v1/metrics")))
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, "accrual_qos_") {
			qos.WriteString(line + "\n")
		}
	}

	for _, g := range []struct{ file, got string }{
		{"testdata/round_history.golden", history.String()},
		{"testdata/round_qos.golden", qos.String()},
		{"testdata/round_transitions.golden", transitions.String()},
	} {
		if *updateGolden {
			if err := os.WriteFile(g.file, []byte(g.got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(g.file)
		if err != nil {
			t.Fatal(err)
		}
		if g.got != string(want) {
			t.Errorf("%s mismatch\n--- got ---\n%s\n--- want ---\n%s", g.file, g.got, want)
		}
	}
}
