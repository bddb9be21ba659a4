package telemetry

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// The escape helpers carry a fast path that returns the input unchanged
// (zero allocations) when no escapable byte is present; these tests pin
// both paths against each other and against the expected renderings.

func TestEscapeFastPathNoAlloc(t *testing.T) {
	const clean = "worker-17.rack-b.example.com"
	if got := escapeLabelValue(clean); got != clean {
		t.Errorf("escapeLabelValue(%q) = %q", clean, got)
	}
	if got := escapeHelp(clean); got != clean {
		t.Errorf("escapeHelp(%q) = %q", clean, got)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		_ = escapeLabelValue(clean)
		_ = escapeHelp(clean)
	}); allocs > 0 {
		t.Errorf("clean escape path: %v allocs/op, want 0", allocs)
	}
	dst := make([]byte, 0, 128)
	if allocs := testing.AllocsPerRun(100, func() {
		dst = appendEscapedLabelValue(dst[:0], clean)
		dst = appendEscapedHelp(dst, clean)
	}); allocs > 0 {
		t.Errorf("clean append-escape path: %v allocs/op, want 0", allocs)
	}
}

func TestEscapeSlowPath(t *testing.T) {
	cases := []struct {
		in, wantLabel, wantHelp string
	}{
		{`plain`, `plain`, `plain`},
		{"line\nbreak", `line\nbreak`, `line\nbreak`},
		{`back\slash`, `back\\slash`, `back\\slash`},
		// Double quotes are escaped in label values but legal verbatim
		// in HELP text.
		{`quo"te`, `quo\"te`, `quo"te`},
		{"all\\three\"\n", `all\\three\"\n`, "all\\\\three\"\\n"},
	}
	for _, c := range cases {
		if got := escapeLabelValue(c.in); got != c.wantLabel {
			t.Errorf("escapeLabelValue(%q) = %q, want %q", c.in, got, c.wantLabel)
		}
		if got := escapeHelp(c.in); got != c.wantHelp {
			t.Errorf("escapeHelp(%q) = %q, want %q", c.in, got, c.wantHelp)
		}
		// The append variants must agree with the string variants.
		if got := appendEscapedLabelValue(nil, c.in); string(got) != c.wantLabel {
			t.Errorf("appendEscapedLabelValue(%q) = %q, want %q", c.in, got, c.wantLabel)
		}
		if got := appendEscapedHelp(nil, c.in); string(got) != c.wantHelp {
			t.Errorf("appendEscapedHelp(%q) = %q, want %q", c.in, got, c.wantHelp)
		}
	}
}

func TestAppendEscapePreservesPrefix(t *testing.T) {
	dst := []byte("prefix ")
	dst = appendEscapedLabelValue(dst, "a\"b")
	if want := []byte(`prefix a\"b`); !bytes.Equal(dst, want) {
		t.Errorf("append with prefix = %q, want %q", dst, want)
	}
}

// TestAppendValueLineMatchesStrconv pins the value fast paths (NaN, +0,
// 1) to the general rendering they shortcut: every float64 must render
// exactly as strconv.AppendFloat(v, 'g', -1, 64) does — a table of the
// edges (the NaN payloads and -0 in particular) plus seeded random bit
// patterns, which land on NaNs, infinities' neighbours and subnormals
// far more often than random values would.
func TestAppendValueLineMatchesStrconv(t *testing.T) {
	check := func(v float64) {
		t.Helper()
		want := string(strconv.AppendFloat(nil, v, 'g', -1, 64)) + "\n"
		if got := string(appendValueLine(nil, v)); got != want {
			t.Errorf("appendValueLine(bits %#016x) = %q, want %q", math.Float64bits(v), got, want)
		}
	}
	for _, v := range []float64{
		0, math.Copysign(0, -1), 1, -1, 2, 0.5, 0.9975, 42, 1e21, 1e-7,
		math.Nextafter(1, 2), math.Nextafter(1, 0),
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), // largest subnormal
		math.Float64frombits(0x0010000000000000), // smallest normal
		math.Float64frombits(0x7ff0000000000001), // signalling NaN, minimal payload
		math.Float64frombits(0x7ff8000000000000), // quiet NaN
		math.Float64frombits(0xfff8000000000000), // negative quiet NaN
		math.Float64frombits(0x7fffffffffffffff), // NaN, full payload
		math.Float64frombits(0xfff0000000000001), // negative signalling NaN
	} {
		check(v)
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 20000; i++ {
		bits := rng.Uint64()
		switch i % 4 {
		case 1: // force the exponent to all-ones: NaN payloads and ±Inf
			bits |= 0x7ff0000000000000
		case 2: // force it to zero: subnormals and ±0
			bits &^= 0x7ff0000000000000
		case 3: // few mantissa bits: short decimal renderings, ±1 among them
			bits &= 0xfff8000000000000
		}
		check(math.Float64frombits(bits))
	}
}

// TestRenderLabelsMatchesSample: a line assembled from a pre-rendered
// label block is the line Sample renders from the labels themselves,
// for no label, several labels and every escapable byte.
func TestRenderLabelsMatchesSample(t *testing.T) {
	for _, labels := range [][]Label{
		nil,
		{{Name: "proc", Value: "worker-17"}},
		{{Name: "proc", Value: "we\"ird\\proc\nname"}},
		{{Name: "proc", Value: "steady"}, {Name: "shard", Value: "3"}},
	} {
		var want, got bytes.Buffer
		mw := NewMetricWriter(&want)
		mw.Sample("m", 0.25, labels...)
		mw.Flush()
		mr := NewMetricWriter(&got)
		mr.SampleRendered("m", RenderLabels(labels...), 0.25)
		mr.Flush()
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("labels %v: rendered line %q, Sample line %q", labels, got.Bytes(), want.Bytes())
		}
	}
}
