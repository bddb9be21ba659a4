package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestBenchUnknownName(t *testing.T) {
	if code := run([]string{"-bench", "frobnicate"}); code != 2 {
		t.Errorf("unknown bench exit = %d, want 2", code)
	}
}

// TestBenchScrapeSweep runs the scrape benchmark through the CLI path
// over two -procs sizes and validates the BENCH_<name>.json contract CI
// relies on: the canonical 100-proc point lands in BENCH_scrape.json,
// other sizes in BENCH_scrape_<n>.json, all with zero allocations and an
// exposition_bytes extra that grows with the registry.
func TestBenchScrapeSweep(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested") // -bench-out may not exist yet
	if code := run([]string{"-bench", "scrape", "-procs", "100,500", "-bench-out", dir}); code != 0 {
		t.Fatalf("bench exit = %d", code)
	}
	load := func(name string) benchResult {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		var res benchResult
		if err := json.Unmarshal(data, &res); err != nil {
			t.Fatalf("%s is not valid JSON: %v", name, err)
		}
		return res
	}
	small := load("BENCH_scrape.json")
	big := load("BENCH_scrape_500.json")
	if small.Name != "scrape" || big.Name != "scrape_500" {
		t.Errorf("artifact names = %q, %q", small.Name, big.Name)
	}
	for _, res := range []benchResult{small, big} {
		if res.N <= 0 || res.NsPerOp <= 0 || res.OpsPerSec <= 0 {
			t.Errorf("implausible result: %+v", res)
		}
		// Under race sync.Pool deliberately bypasses its caches, so the
		// pooled scrape render's allocation budget is not meaningful
		// there; the non-race CI gate still enforces it.
		if !raceEnabled && res.AllocsPerOp != 0 {
			t.Errorf("%s: scrape render allocates: %d allocs/op", res.Name, res.AllocsPerOp)
		}
	}
	if small.Extra["procs"] != 100 || big.Extra["procs"] != 500 {
		t.Errorf("procs extras = %v / %v", small.Extra, big.Extra)
	}
	if small.Extra["exposition_bytes"] <= 0 ||
		big.Extra["exposition_bytes"] <= small.Extra["exposition_bytes"] {
		t.Errorf("exposition_bytes did not grow: %v -> %v",
			small.Extra["exposition_bytes"], big.Extra["exposition_bytes"])
	}
}

func TestParseProcs(t *testing.T) {
	if got, err := parseProcs("-procs", "100, 10000,100000"); err != nil ||
		len(got) != 3 || got[0] != 100 || got[1] != 10000 || got[2] != 100000 {
		t.Errorf("parseProcs = %v, %v", got, err)
	}
	for _, bad := range []string{"", "0", "-5", "x", "100,,"} {
		if _, err := parseProcs("-procs", bad); (bad == "100,,") != (err == nil) {
			// "100,," parses (empty fields skipped); the rest must fail.
			t.Errorf("parseProcs(%q) err = %v", bad, err)
		}
	}
	// Errors name the flag the bad value came from.
	for _, c := range []struct{ flag, value, want string }{
		{"-procs", "x", `invalid -procs entry "x"`},
		{"-manyprocs-sizes", "10000,0", `invalid -manyprocs-sizes entry "0"`},
		{"-walk-sizes", " , ", "-walk-sizes is empty"},
	} {
		if _, err := parseProcs(c.flag, c.value); err == nil || err.Error() != c.want {
			t.Errorf("parseProcs(%q, %q) err = %v, want %q", c.flag, c.value, err, c.want)
		}
	}
	if code := run([]string{"-bench", "walk", "-walk-sizes", "x"}); code != 2 {
		t.Errorf("bad -walk-sizes exit = %d, want 2", code)
	}
}
