package core_test

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"accrual/internal/bertier"
	"accrual/internal/chen"
	"accrual/internal/core"
	"accrual/internal/kappa"
	"accrual/internal/phi"
	"accrual/internal/simple"
)

// The golden level table pins every detector's level function against
// values recorded from an independent source: testdata/levels.golden was
// first written at the last commit whose detectors still computed
// Suspicion from live state (time.Time arithmetic, a boxed stats.Dist)
// rather than through core.EvalSnapshot.Level, so it is the reference
// the old snapshot-vs-live property test provided, kept as data.
//
// Rows for a new detector kind are added by listing it in goldenKinds
// and running
//
//	go test ./internal/core -run TestGoldenLevels -update
//
// which rewrites the whole file; the diff must then show only added
// rows — a changed existing row is a changed level function.
var update = flag.Bool("update", false, "rewrite testdata/levels.golden from the current implementation")

const (
	goldenPath     = "testdata/levels.golden"
	goldenInterval = 100 * time.Millisecond
	goldenBeats    = 200
	goldenEps      = 0.25
)

var goldenStart = time.Date(2005, 3, 22, 0, 0, 0, 0, time.UTC)

// goldenKinds lists every level function the module ships, each built
// with resolution eps.
var goldenKinds = []struct {
	name string
	mk   func(eps core.Level) core.Detector
}{
	{"simple", func(eps core.Level) core.Detector {
		return simple.New(goldenStart, simple.WithResolution(eps))
	}},
	{"chen", func(eps core.Level) core.Detector {
		return chen.New(goldenStart, goldenInterval, chen.WithResolution(eps))
	}},
	{"phi-normal", func(eps core.Level) core.Detector {
		return phi.New(goldenStart, phi.WithResolution(eps))
	}},
	{"phi-normal-pause", func(eps core.Level) core.Detector {
		return phi.New(goldenStart, phi.WithResolution(eps),
			phi.WithBootstrap(goldenInterval, goldenInterval/4), phi.WithAcceptablePause(goldenInterval/2))
	}},
	{"phi-exponential", func(eps core.Level) core.Detector {
		return phi.New(goldenStart, phi.WithResolution(eps), phi.WithModel(phi.ModelExponential))
	}},
	{"phi-erlang", func(eps core.Level) core.Detector {
		return phi.New(goldenStart, phi.WithResolution(eps), phi.WithModel(phi.ModelErlang))
	}},
	{"kappa-fixed", func(eps core.Level) core.Detector {
		return kappa.New(goldenStart, kappa.PLater{}, kappa.WithResolution(eps), kappa.WithFixedInterval(goldenInterval))
	}},
	{"kappa-learned", func(eps core.Level) core.Detector {
		return kappa.New(goldenStart, kappa.PLater{}, kappa.WithResolution(eps))
	}},
	{"bertier", func(eps core.Level) core.Detector {
		return bertier.New(goldenStart, goldenInterval, bertier.WithResolution(eps))
	}},
}

// goldenOffsets are the query instants after the trace's last arrival,
// in heartbeat intervals: dense where a level first leaves zero, sparse
// out to deep silence.
var goldenOffsets = []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1, 1.1, 1.25, 1.5, 2, 2.5, 3, 4, 5, 7.5, 10, 20, 35, 50}

// goldenTrace is the one arrival trace every kind is fed: a seeded
// sender at the nominal interval with ±20% jitter whose heartbeats are
// lost with probability 0.10 (the sequence number is spent, the arrival
// never happens). It returns the beats and the last arrival instant.
func goldenTrace() ([]core.Heartbeat, time.Time) {
	rng := rand.New(rand.NewSource(0x5EED))
	var beats []core.Heartbeat
	at := goldenStart
	for seq := uint64(1); seq <= goldenBeats; seq++ {
		jitter := time.Duration((rng.Float64()*0.4 - 0.2) * float64(goldenInterval))
		at = at.Add(goldenInterval + jitter)
		if rng.Float64() < 0.10 {
			continue
		}
		beats = append(beats, core.Heartbeat{From: "p", Seq: seq, Arrived: at})
	}
	return beats, beats[len(beats)-1].Arrived
}

type goldenRow struct {
	kind   string
	eps    core.Level
	offset time.Duration
	level  core.Level
}

// goldenLevels evaluates every (kind, ε, offset) cell with the current
// implementation.
func goldenLevels() []goldenRow {
	beats, last := goldenTrace()
	var rows []goldenRow
	for _, k := range goldenKinds {
		for _, eps := range []core.Level{0, goldenEps} {
			det := k.mk(eps)
			for _, hb := range beats {
				det.Report(hb)
			}
			for _, off := range goldenOffsets {
				d := time.Duration(off * float64(goldenInterval))
				rows = append(rows, goldenRow{k.name, eps, d, det.Suspicion(last.Add(d))})
			}
		}
	}
	return rows
}

func TestGoldenLevels(t *testing.T) {
	rows := goldenLevels()
	if *update {
		var b strings.Builder
		b.WriteString("# kind eps offset_ns level — see golden_test.go; rows are append-only.\n")
		for _, r := range rows {
			fmt.Fprintf(&b, "%s %v %d %s\n", r.kind, float64(r.eps), int64(r.offset),
				strconv.FormatFloat(float64(r.level), 'g', 17, 64))
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]float64)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			t.Fatalf("malformed golden row %q", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			t.Fatalf("malformed golden row %q: %v", line, err)
		}
		want[line[:cut]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(rows) {
		t.Errorf("golden table has %d rows, implementation yields %d", len(want), len(rows))
	}
	for _, r := range rows {
		key := fmt.Sprintf("%s %v %d", r.kind, float64(r.eps), int64(r.offset))
		w, ok := want[key]
		if !ok {
			t.Errorf("no golden row for %q", key)
			continue
		}
		got := float64(r.level)
		if got != w && !(math.Abs(got-w) <= 1e-9) {
			t.Errorf("%s: level = %v, golden %v (diff %g)", key, got, w, got-w)
		}
	}
}
