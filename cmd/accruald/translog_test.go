package main

import (
	"fmt"
	"log"
	"regexp"
	"strings"
	"testing"
	"time"

	"accrual/internal/clock"
	"accrual/internal/core"
	"accrual/internal/service"
	"accrual/internal/simple"
)

// lockProbe is the transition log's writer in TestTransitionLogWritesAfterRound.
// On every write it asks for the round's App and history locks from
// another goroutine: a write made while Runner.Round holds them would
// wait out the timeout.
type lockProbe struct {
	t      *testing.T
	app    *service.App
	rec    *service.Recorder
	writes []string
}

func (p *lockProbe) Write(b []byte) (int, error) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = p.app.Status("p-0")
		_, _ = p.rec.History("p-0")
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		p.t.Error("transitions written while the round holds the App or history lock")
	}
	p.writes = append(p.writes, string(b))
	return len(b), nil
}

// TestTransitionLogWritesAfterRound drives the daemon's round body —
// Runner.Round, then the transition log's flush — and checks that the
// round's transitions are written once it has returned its locks, in
// one write per round, one standard log line per transition.
func TestTransitionLogWritesAfterRound(t *testing.T) {
	start := time.Date(2005, 3, 22, 0, 0, 0, 0, time.UTC)
	clk := clock.NewManual(start)
	mon := service.NewMonitor(clk, func(_ string, at time.Time) core.Detector { return simple.New(at) })
	probe := &lockProbe{t: t}
	tlog := newTransitionLog(probe, "", log.LstdFlags)
	probe.app = mon.NewApp("accruald-log", service.AdaptivePolicy(), service.WithTransitionHandler(tlog.record))
	probe.rec = service.NewRecorder(mon, 8)
	runner := service.NewRunner(mon, service.Consumers{History: probe.rec, Apps: []*service.App{probe.app}})
	round := func() {
		runner.Round()
		tlog.flush()
	}

	const n = 3
	seq := uint64(0)
	beat := func() {
		seq++
		for i := 0; i < n; i++ {
			if err := mon.Heartbeat(core.Heartbeat{From: fmt.Sprintf("p-%d", i), Seq: seq, Arrived: clk.Now()}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Algorithm 1 suspects a process whose level rises past its
	// threshold and trusts it again when a heartbeat resets the level.
	for cycle := 0; cycle < 4; cycle++ {
		beat()
		round()
		clk.Advance(time.Duration(cycle+2) * time.Second)
		round()
	}
	if len(probe.writes) == 0 {
		t.Fatal("no transitions written")
	}
	line := regexp.MustCompile(`^\d{4}/\d\d/\d\d \d\d:\d\d:\d\d transition: p-\d -> (suspected|trusted)$`)
	total := 0
	for _, w := range probe.writes {
		lines := strings.Split(strings.TrimSuffix(w, "\n"), "\n")
		if len(lines) != n {
			t.Errorf("one write of %d lines, want the round's %d transitions:\n%s", len(lines), n, w)
		}
		for _, l := range lines {
			if !line.MatchString(l) {
				t.Errorf("line %q is not a standard transition log line", l)
			}
		}
		total += len(lines)
	}
	t.Logf("%d transitions in %d writes", total, len(probe.writes))

	// A round without transitions writes nothing; a nil log is a no-op.
	writes := len(probe.writes)
	round()
	if len(probe.writes) != writes {
		t.Errorf("a round without transitions wrote %q", probe.writes[writes:])
	}
	(*transitionLog)(nil).flush()
}
