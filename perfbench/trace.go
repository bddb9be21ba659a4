package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer. Spans are kept in memory and
// written out when the run ends; parent is an index into the same slice
// (-1 for a root), and the spans of one cycle share its number.
type span struct {
	name       string
	parent     int
	cycle      int
	start, end time.Duration // since tracer.epoch
}

// tracer records spans. A nil tracer records nothing, so the untraced
// run executes the same loop without the bookkeeping.
type tracer struct {
	epoch time.Time
	spans []span
	cycle int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its index, to pass to end and to
// children as their parent.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, cycle: t.cycle, start: time.Since(t.epoch)})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].end = time.Since(t.epoch)
}

// spanCost measures what recording one span costs, on a scratch tracer.
func spanCost() time.Duration {
	const n = 200000
	t := &tracer{epoch: time.Now(), spans: make([]span, 0, n)}
	start := time.Now()
	for range n {
		t.end(t.begin("calibrate", -1))
	}
	return time.Since(start) / n
}

// write dumps the spans as JSON lines: id, parent, cycle, name, start
// and end in nanoseconds since the tracer was made.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	for i, s := range t.spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"cycle":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			i, s.parent, s.cycle, s.name, s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
