package experiments

import (
	"strings"
	"testing"
	"time"

	"accrual/internal/core"
	"accrual/internal/simple"
)

// TestEveryExperimentPasses runs the full reproduction suite: every
// experiment must produce rows and every claim check must pass at the
// default seed. This is the repository's "the paper's results hold" test.
func TestEveryExperimentPasses(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite skipped in -short mode")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			table := Registry()[id](42)
			if table.ID != id {
				t.Errorf("table ID = %q", table.ID)
			}
			if len(table.Rows) == 0 {
				t.Fatal("experiment produced no rows")
			}
			if len(table.Checks) == 0 {
				t.Fatal("experiment has no claim checks")
			}
			for _, c := range table.Checks {
				if !c.Pass {
					t.Errorf("check %s failed: %s", c.Name, c.Detail)
				}
			}
		})
	}
}

// TestExperimentsDeterministic re-runs two representative experiments and
// compares the rendered tables: same seed, same bytes (E12 is excluded by
// design, being wall-clock based).
func TestExperimentsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism re-run skipped in -short mode")
	}
	for _, id := range []string{"E1", "E6", "E10", "E11"} {
		id := id
		t.Run(id, func(t *testing.T) {
			render := func() string {
				var sb strings.Builder
				if err := Registry()[id](7).Render(&sb); err != nil {
					t.Fatal(err)
				}
				return sb.String()
			}
			if a, b := render(), render(); a != b {
				t.Errorf("two runs with the same seed rendered differently:\n%s\n---\n%s", a, b)
			}
		})
	}
}

func TestIDsMatchRegistry(t *testing.T) {
	reg := Registry()
	ids := IDs()
	if len(ids) != len(reg) {
		t.Fatalf("IDs() has %d entries, registry %d", len(ids), len(reg))
	}
	for _, id := range ids {
		if reg[id] == nil {
			t.Errorf("id %s missing from registry", id)
		}
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		ID:      "EX",
		Title:   "demo",
		Anchor:  "§0",
		Columns: []string{"a", "long-column"},
	}
	tab.AddRow("1", "2")
	tab.AddRow("333333", "4")
	tab.AddNote("note %d", 7)
	tab.AddCheck("ok", true, "fine")
	tab.AddCheck("bad", false, "broken")
	var sb strings.Builder
	if err := tab.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"EX — demo", "reproduces: §0", "long-column", "333333", "note: note 7", "[PASS] ok", "[FAIL] bad"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if tab.Passed() {
		t.Error("table with a failing check cannot pass")
	}
}

func TestRunPairRecordsCrash(t *testing.T) {
	run := RunPair(1, func(start time.Time) core.Detector {
		return simple.New(start)
	}, PairWorkload{
		Interval:   100 * time.Millisecond,
		CrashAfter: 2 * time.Second,
		Horizon:    4 * time.Second,
		QueryEvery: 100 * time.Millisecond,
	})
	if run.CrashAt.IsZero() {
		t.Fatal("crash time not recorded")
	}
	if len(run.History) == 0 {
		t.Fatal("no history recorded")
	}
	last := run.History[len(run.History)-1]
	if last.Level < 1.5 {
		t.Errorf("final level %v, want ~2s of silence", last.Level)
	}
}

func TestApplyHelpers(t *testing.T) {
	start := time.Date(2005, 3, 22, 0, 0, 0, 0, time.UTC)
	var h []core.QueryRecord
	for i, l := range []float64{0, 1, 3, 1, 0, 4} {
		h = append(h, core.QueryRecord{At: start.Add(time.Duration(i) * time.Second), Level: core.Level(l)})
	}
	trs := ApplyThreshold(h, 2)
	if len(trs) != 3 { // S at 3, T at 1, S at 4
		t.Errorf("threshold transitions = %d, want 3", len(trs))
	}
	trsH := ApplyHysteresis(h, 2, 0.5)
	if len(trsH) != 3 { // S at 3, T at 0, S at 4
		t.Errorf("hysteresis transitions = %d, want 3", len(trsH))
	}
	trsA, final := ApplyAlgorithm1(h)
	if len(trsA) == 0 || !final.Valid() {
		t.Errorf("algorithm 1: %d transitions, final %v", len(trsA), final)
	}
}

func TestTableWriteCSV(t *testing.T) {
	tab := &Table{Columns: []string{"a", "b"}}
	tab.AddRow("1", "2")
	tab.AddRow("x,y", "z")
	var sb strings.Builder
	if err := tab.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,2\n\"x,y\",z\n"
	if sb.String() != want {
		t.Errorf("csv = %q, want %q", sb.String(), want)
	}
}

func TestTableWriteMarkdown(t *testing.T) {
	tab := &Table{ID: "EX", Title: "demo", Anchor: "§1", Columns: []string{"col|a", "b"}}
	tab.AddRow("v|1", "2")
	tab.AddNote("a note")
	tab.AddCheck("good", true, "fine")
	tab.AddCheck("bad", false, "broken")
	var sb strings.Builder
	if err := tab.WriteMarkdown(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"## EX — demo", "*Reproduces: §1*", "col\\|a", "v\\|1",
		"> a note", "✅ **good**", "❌ **bad**",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}

// TestExperimentsAlternateSeed guards the benchmark path: BenchmarkE*
// iterate seeds 42, 43, ... so the claim checks must be robust to the
// seed, not tuned to one lucky draw.
func TestExperimentsAlternateSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("alternate-seed sweep skipped in -short mode")
	}
	for _, id := range IDs() {
		if id == "E12" {
			continue // wall-clock micro-costs; nothing seed-dependent
		}
		id := id
		t.Run(id, func(t *testing.T) {
			if id == "E13" && raceEnabled {
				// E13 at seed 42 still runs under -race in
				// TestEveryExperimentPasses; seed 43 adds no new
				// code path, only another ≈ 95 s.
				t.Skip("E13's second seed runs without the race detector")
			}
			table := Registry()[id](43)
			for _, c := range table.Checks {
				if !c.Pass {
					t.Errorf("seed 43: check %s failed: %s", c.Name, c.Detail)
				}
			}
		})
	}
}
