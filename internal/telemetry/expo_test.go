package telemetry_test

import (
	"bytes"
	"errors"
	"math"
	"os"
	"strings"
	"testing"

	"accrual/internal/telemetry"
)

// writeGoldenExposition emits the fixture scrape covering the tricky
// corners of the text format: HELP escaping, label-value escaping, and
// the three non-finite renderings the QoS estimators rely on.
func writeGoldenExposition(mw *telemetry.MetricWriter) {
	writeGolden(mw, func(name string, v float64, proc string) {
		mw.Sample(name, v, telemetry.Label{Name: "proc", Value: proc})
	})
}

// writeGoldenExpositionRendered is the same fixture with the per-process
// rows going through a ProcSeries — the label block rendered once, the
// way the registry does at bind — so the golden file pins both paths to
// the same bytes, the escaped id included.
func writeGoldenExpositionRendered(mw *telemetry.MetricWriter) {
	writeGolden(mw, func(name string, v float64, proc string) {
		var series telemetry.ProcSeries
		series.Init(proc)
		mw.SampleRendered(name, series.Labels(), v)
	})
}

func writeGolden(mw *telemetry.MetricWriter, procSample func(name string, v float64, proc string)) {
	mw.Header(telemetry.MetricQoSPA,
		"Query accuracy P_A in [0,1]; see \\S 2 of the paper\nNaN until the first query window closes",
		"gauge")
	procSample(telemetry.MetricQoSPA, math.NaN(), "we\"ird\\proc\nname")
	procSample(telemetry.MetricQoSPA, math.Inf(1), "fast")
	procSample(telemetry.MetricQoSPA, math.Inf(-1), "slow")
	procSample(telemetry.MetricQoSPA, 0.9975, "steady")
	mw.Header("accrual_heartbeats_ingested_total",
		"Heartbeats accepted by the monitor hot path", "counter")
	mw.Sample("accrual_heartbeats_ingested_total", 42)
	mw.Sample(telemetry.MetricSuspicionLevel, 0.125,
		telemetry.Label{Name: "proc", Value: "steady"},
		telemetry.Label{Name: "shard", Value: "3"})
}

// TestMetricWriterGolden compares the writer's output byte-for-byte
// against testdata/expo.golden.
func TestMetricWriterGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/expo.golden")
	if err != nil {
		t.Fatal(err)
	}
	for name, write := range map[string]func(*telemetry.MetricWriter){
		"labels":   writeGoldenExposition,
		"rendered": writeGoldenExpositionRendered,
	} {
		var buf bytes.Buffer
		mw := telemetry.NewMetricWriter(&buf)
		write(mw)
		mw.Flush()
		if err := mw.Err(); err != nil {
			t.Fatal(err)
		}
		if got := buf.Bytes(); !bytes.Equal(got, want) {
			t.Errorf("%s: exposition mismatch\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
		}
	}
}

// TestExpositionRoundTrip parses the golden output back and checks that
// escaping survives: the label value with quote, backslash and newline
// must come back verbatim, NaN/±Inf must parse as such.
func TestExpositionRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	mw := telemetry.NewMetricWriter(&buf)
	writeGoldenExposition(mw)
	mw.Flush()
	samples, err := telemetry.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 6 {
		t.Fatalf("parsed %d samples, want 6: %+v", len(samples), samples)
	}
	if got := samples[0].Label("proc"); got != "we\"ird\\proc\nname" {
		t.Errorf("escaped label round-trip = %q", got)
	}
	if !math.IsNaN(samples[0].Value) {
		t.Errorf("sample 0 value = %v, want NaN", samples[0].Value)
	}
	if !math.IsInf(samples[1].Value, 1) || !math.IsInf(samples[2].Value, -1) {
		t.Errorf("non-finite values = %v, %v, want +Inf, -Inf", samples[1].Value, samples[2].Value)
	}
	if samples[3].Value != 0.9975 || samples[3].Label("proc") != "steady" {
		t.Errorf("sample 3 = %+v", samples[3])
	}
	if samples[4].Name != "accrual_heartbeats_ingested_total" || samples[4].Value != 42 {
		t.Errorf("unlabelled sample = %+v", samples[4])
	}
	if samples[5].Label("shard") != "3" || samples[5].Label("proc") != "steady" {
		t.Errorf("multi-label sample = %+v", samples[5])
	}
}

// TestParseTextErrors rejects malformed lines with ErrBadExposition.
func TestParseTextErrors(t *testing.T) {
	for _, bad := range []string{
		"no_value\n",
		`m{x=unquoted} 1` + "\n",
		`m{x="dangling} 1` + "\n",
		`m{x="bad\q"} 1` + "\n",
		"m 1 2 3\n",
		"m notafloat\n",
	} {
		if _, err := telemetry.ParseText(strings.NewReader(bad)); !errors.Is(err, telemetry.ErrBadExposition) {
			t.Errorf("ParseText(%q) err = %v, want ErrBadExposition", bad, err)
		}
	}
	// Trailing timestamps are legal and ignored.
	samples, err := telemetry.ParseText(strings.NewReader("m 1 1234567890\n"))
	if err != nil || len(samples) != 1 || samples[0].Value != 1 {
		t.Errorf("timestamped line: samples=%+v err=%v", samples, err)
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.n++
	return 0, errors.New("sink closed")
}

// TestMetricWriterStickyError: after the first failed write the writer
// goes quiet instead of hammering the broken sink. The 1-byte chunk size
// forces a flush attempt after every emitted line.
func TestMetricWriterStickyError(t *testing.T) {
	fw := &failWriter{}
	mw := telemetry.NewMetricWriterChunked(fw, 1)
	mw.Header("m", "h", "gauge")
	mw.Sample("m", 1)
	mw.Sample("m", 2)
	mw.Flush()
	if mw.Err() == nil {
		t.Fatal("no error from failing sink")
	}
	if fw.n != 1 {
		t.Errorf("writes after first failure: %d calls, want 1", fw.n)
	}
	if mw.Buffered() != 0 {
		t.Errorf("buffer retained after failure: %d bytes", mw.Buffered())
	}
}

// TestMetricWriterChunking: with a small chunk size the exposition
// reaches the sink in multiple writes whose concatenation is identical
// to the unchunked render.
func TestMetricWriterChunking(t *testing.T) {
	var whole bytes.Buffer
	mw := telemetry.NewMetricWriter(&whole)
	writeGoldenExposition(mw)
	mw.Flush()

	cw := &countingWriter{}
	mc := telemetry.NewMetricWriterChunked(cw, 64)
	writeGoldenExposition(mc)
	mc.Flush()
	if mc.Err() != nil {
		t.Fatal(mc.Err())
	}
	if cw.writes < 2 {
		t.Errorf("chunked render used %d writes, want several", cw.writes)
	}
	if !bytes.Equal(cw.buf.Bytes(), whole.Bytes()) {
		t.Errorf("chunked output differs from single-shot render")
	}
}

type countingWriter struct {
	buf    bytes.Buffer
	writes int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	return c.buf.Write(p)
}

// TestAcquireRelease: a pooled writer behaves like a fresh one and a
// steady-state render through the pool performs no allocations.
func TestAcquireRelease(t *testing.T) {
	var buf bytes.Buffer
	mw := telemetry.NewMetricWriter(&buf)
	writeGoldenExposition(mw)
	mw.Flush()

	var got bytes.Buffer
	pw := telemetry.AcquireMetricWriter(&got, telemetry.DefaultChunkSize)
	writeGoldenExposition(pw)
	pw.Flush()
	if pw.Err() != nil {
		t.Fatal(pw.Err())
	}
	pw.Release()
	if !bytes.Equal(got.Bytes(), buf.Bytes()) {
		t.Errorf("pooled writer output differs from fresh writer")
	}

	if raceEnabled {
		return // race detector defeats sync.Pool reuse; skip the budget
	}
	// Warm the pool and the header cache, then measure.
	sink := &discardWriter{}
	allocs := testing.AllocsPerRun(100, func() {
		w := telemetry.AcquireMetricWriter(sink, 0)
		w.Header("accrual_heartbeats_ingested_total",
			"Heartbeats accepted by the monitor hot path", "counter")
		w.Sample("accrual_heartbeats_ingested_total", 42)
		w.Sample(telemetry.MetricSuspicionLevel, 0.25,
			telemetry.Label{Name: "proc", Value: "steady"})
		w.Flush()
		w.Release()
	})
	if allocs > 0 {
		t.Errorf("pooled steady-state render: %v allocs/op, want 0", allocs)
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }
