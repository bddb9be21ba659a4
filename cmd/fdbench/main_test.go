package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestRunUnknownSweep(t *testing.T) {
	if code := run([]string{"-sweep", "bogus"}); code != 2 {
		t.Errorf("unknown sweep exit code = %d, want 2", code)
	}
}

func TestRunBadFlag(t *testing.T) {
	if code := run([]string{"-nope"}); code != 2 {
		t.Errorf("bad flag exit code = %d, want 2", code)
	}
}

// TestSweepGoldens holds every sweep's CSV at seed 7 byte-identical to
// testdata/<sweep>.csv, so a change to the pair runner, the workload or
// the QoS evaluator that moves a single printed digit shows here.
func TestSweepGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps skipped in -short mode")
	}
	for name, sweep := range sweeps {
		t.Run(name, func(t *testing.T) {
			var got bytes.Buffer
			if err := sweep(&got, 7); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", name+".csv"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("sweep %s at seed 7 differs from its golden:\ngot:\n%s\nwant:\n%s", name, got.Bytes(), want)
			}
		})
	}
}
