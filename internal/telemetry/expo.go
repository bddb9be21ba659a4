package telemetry

import (
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
)

// Names of the per-process metrics served on /v1/metrics, shared between
// the HTTP exposition and the `accrualctl top` consumer.
const (
	MetricSuspicionLevel = "accrual_suspicion_level"
	MetricQoSLambdaM     = "accrual_qos_lambda_m"
	MetricQoSPA          = "accrual_qos_pa"
	MetricQoSTMR         = "accrual_qos_mean_mistake_recurrence_seconds"
	MetricQoSTM          = "accrual_qos_mean_mistake_duration_seconds"
	MetricQoSTG          = "accrual_qos_mean_good_period_seconds"
)

// Label is one name="value" pair of a metric sample.
type Label struct {
	Name, Value string
}

// DefaultChunkSize is the flush threshold of NewMetricWriter: once the
// internal buffer crosses it, the buffered bytes are written out. It is
// small enough that a scrape over a huge registry never materialises the
// whole exposition, and large enough that the underlying writer sees a
// few big writes instead of one per sample line: through net/http every
// flush is one chunk header and one socket write, which at 16 KiB was a
// fifth of the scrape's CPU.
const DefaultChunkSize = 64 * 1024

// MetricWriter emits the Prometheus text exposition format (version
// 0.0.4) by hand — no client library. Lines are appended to an internal
// byte buffer (strconv.Append*, no fmt, no intermediate strings) which
// drains to the underlying writer whenever it crosses the chunk size;
// call Flush at the end to drain the remainder. The first write error
// sticks and turns the remaining calls into no-ops; check Err once
// after flushing.
//
// Header lines are rendered once per metric name and memoized
// process-wide, and samples whose label values contain no escapable
// bytes take an allocation-free fast path, so a steady-state scrape
// costs zero allocations (AcquireMetricWriter pools the buffer too).
// Series whose label set never changes — one per monitored process —
// skip label rendering altogether: RenderLabels renders the block once
// and SampleRendered copies it.
//
// Non-finite values are legal in the format and rendered as NaN, +Inf
// and -Inf — the QoS estimators lean on this for not-yet-estimable
// metrics.
type MetricWriter struct {
	w       io.Writer
	buf     []byte
	flushAt int // <= 0: never auto-flush (caller drains explicitly)
	err     error
}

// NewMetricWriter returns a writer emitting to w, auto-flushing every
// DefaultChunkSize bytes.
func NewMetricWriter(w io.Writer) *MetricWriter {
	return &MetricWriter{w: w, flushAt: DefaultChunkSize}
}

// NewMetricWriterChunked returns a writer emitting to w that flushes
// whenever the buffer reaches chunkBytes. chunkBytes <= 0 disables
// auto-flushing entirely: everything accumulates until Flush, which
// lets a caller buffer a whole response page before deciding on
// headers or trailers.
func NewMetricWriterChunked(w io.Writer, chunkBytes int) *MetricWriter {
	return &MetricWriter{w: w, flushAt: chunkBytes}
}

// writerPool recycles MetricWriters together with their encode buffers,
// so steady-state scrape traffic allocates nothing.
var writerPool = sync.Pool{New: func() any { return new(MetricWriter) }}

// maxRetainedBuf bounds the encode buffer a released writer keeps for
// reuse; a pathological one-off giant page does not pin its arena in the
// pool forever.
const maxRetainedBuf = 1 << 20

// AcquireMetricWriter returns a pooled writer emitting to w with the
// given chunk size (see NewMetricWriterChunked for the semantics).
// Release it when done; the writer and its buffer are reused.
func AcquireMetricWriter(w io.Writer, chunkBytes int) *MetricWriter {
	mw := writerPool.Get().(*MetricWriter)
	mw.w = w
	mw.buf = mw.buf[:0]
	mw.flushAt = chunkBytes
	mw.err = nil
	return mw
}

// Release returns a writer obtained from AcquireMetricWriter to the
// pool. It does not flush; the writer must not be used afterwards.
func (mw *MetricWriter) Release() {
	mw.w = nil
	mw.err = nil
	if cap(mw.buf) > maxRetainedBuf {
		mw.buf = nil
	}
	writerPool.Put(mw)
}

// Err returns the first write error, if any.
func (mw *MetricWriter) Err() error { return mw.err }

// Buffered returns the number of bytes accumulated and not yet flushed.
func (mw *MetricWriter) Buffered() int { return len(mw.buf) }

// Flush drains the buffered bytes to the underlying writer.
func (mw *MetricWriter) Flush() {
	if mw.err != nil || len(mw.buf) == 0 {
		return
	}
	_, mw.err = mw.w.Write(mw.buf)
	mw.buf = mw.buf[:0]
}

func (mw *MetricWriter) maybeFlush() {
	if mw.flushAt > 0 && len(mw.buf) >= mw.flushAt {
		mw.Flush()
	}
}

// headerEntry memoizes the rendered # HELP/# TYPE block of one metric
// family. Metric names, help strings and types are compile-time
// constants in practice, so the cache is bounded by the number of
// distinct families the process exposes.
type headerEntry struct {
	help, typ string
	blob      []byte
}

var headerCache sync.Map // metric name -> *headerEntry

func appendHeader(dst []byte, name, help, typ string) []byte {
	dst = append(dst, "# HELP "...)
	dst = append(dst, name...)
	dst = append(dst, ' ')
	dst = appendEscapedHelp(dst, help)
	dst = append(dst, "\n# TYPE "...)
	dst = append(dst, name...)
	dst = append(dst, ' ')
	dst = append(dst, typ...)
	dst = append(dst, '\n')
	return dst
}

// Header emits the # HELP and # TYPE lines for a metric family. typ is
// "counter", "gauge", "untyped", etc. The rendered block is memoized per
// metric name, so repeated scrapes append a cached byte slice instead of
// re-escaping the help text.
func (mw *MetricWriter) Header(name, help, typ string) {
	if mw.err != nil {
		return
	}
	if v, ok := headerCache.Load(name); ok {
		if h := v.(*headerEntry); h.help == help && h.typ == typ {
			mw.buf = append(mw.buf, h.blob...)
			mw.maybeFlush()
			return
		}
		// Same name with different metadata: render fresh, keep the
		// existing cache entry (first writer wins; this path is cold).
		mw.buf = appendHeader(mw.buf, name, help, typ)
		mw.maybeFlush()
		return
	}
	blob := appendHeader(nil, name, help, typ)
	headerCache.Store(name, &headerEntry{help: help, typ: typ, blob: blob})
	mw.buf = append(mw.buf, blob...)
	mw.maybeFlush()
}

// Sample emits one sample line: name{labels} value.
func (mw *MetricWriter) Sample(name string, value float64, labels ...Label) {
	if mw.err != nil {
		return
	}
	b := append(mw.buf, name...)
	b = appendLabels(b, labels)
	mw.buf = appendValueLine(b, value)
	mw.maybeFlush()
}

// SampleRendered emits one sample line whose label block was rendered
// ahead of time by RenderLabels: three copies and a value, with no
// escape scan. The output is byte-identical to Sample with the labels
// the block was rendered from.
func (mw *MetricWriter) SampleRendered(name, labels string, value float64) {
	if mw.err != nil {
		return
	}
	b := append(mw.buf, name...)
	b = append(b, labels...)
	mw.buf = appendValueLine(b, value)
	mw.maybeFlush()
}

// RenderLabels renders a sample line's label block — `{a="x",b="y"} `,
// escaping and the separating space included, or the bare space for no
// labels — for SampleRendered.
func RenderLabels(labels ...Label) string {
	var buf [64]byte
	return string(appendLabels(buf[:0], labels))
}

// appendLabels appends the label block and the space that separates it
// from the value: the one place the label syntax is rendered.
func appendLabels(b []byte, labels []Label) []byte {
	if len(labels) > 0 {
		b = append(b, '{')
		for i, l := range labels {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, l.Name...)
			b = append(b, '=', '"')
			b = appendEscapedLabelValue(b, l.Value)
			b = append(b, '"')
		}
		b = append(b, '}')
	}
	return append(b, ' ')
}

// appendValueLine appends a sample value and the line terminator. The
// value is the shortest round-trip representation with NaN/+Inf/-Inf
// spelled out — byte-identical to strconv.FormatFloat(v, 'g', -1, 64).
// NaN, +0 and 1 are five of the six values a healthy process renders
// (not-yet-estimable means, λ_M = 0, P_A = 1), so they skip the
// shortest-digits search; -0 renders "-0" and takes the general path.
func appendValueLine(b []byte, v float64) []byte {
	switch {
	case v != v:
		b = append(b, "NaN"...)
	case math.Float64bits(v) == 0:
		b = append(b, '0')
	case v == 1:
		b = append(b, '1')
	default:
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, '\n')
}

// labelEscapeSet and helpEscapeSet are the byte sets whose presence
// forces the slow escape path; everything else is copied verbatim.
const (
	labelEscapeSet = "\\\"\n"
	helpEscapeSet  = "\\\n"
)

// escapeHelp escapes backslashes and newlines in HELP text, returning
// the input unchanged (no allocation) when nothing needs escaping.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, helpEscapeSet) {
		return s
	}
	return string(appendEscapedHelpSlow(nil, s))
}

func appendEscapedHelp(dst []byte, s string) []byte {
	if !strings.ContainsAny(s, helpEscapeSet) {
		return append(dst, s...)
	}
	return appendEscapedHelpSlow(dst, s)
}

func appendEscapedHelpSlow(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			dst = append(dst, '\\', '\\')
		case '\n':
			dst = append(dst, '\\', 'n')
		default:
			dst = append(dst, s[i])
		}
	}
	return dst
}

// escapeLabelValue escapes backslashes, double quotes and newlines in a
// label value, per the text format specification. Values without
// escapable bytes — the overwhelmingly common case — are returned
// unchanged, with no allocation.
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, labelEscapeSet) {
		return s
	}
	return string(appendEscapedLabelSlow(nil, s))
}

func appendEscapedLabelValue(dst []byte, s string) []byte {
	if !strings.ContainsAny(s, labelEscapeSet) {
		return append(dst, s...)
	}
	return appendEscapedLabelSlow(dst, s)
}

func appendEscapedLabelSlow(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			dst = append(dst, '\\', '\\')
		case '"':
			dst = append(dst, '\\', '"')
		case '\n':
			dst = append(dst, '\\', 'n')
		default:
			dst = append(dst, s[i])
		}
	}
	return dst
}
