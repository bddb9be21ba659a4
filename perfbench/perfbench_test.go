package main

import (
	"math"
	"os"
	"slices"
	"testing"
)

func TestParseExpositionFirstPage(t *testing.T) {
	body, err := os.ReadFile("testdata/metrics_first_page.txt")
	if err != nil {
		t.Fatal(err)
	}
	ex, err := parseExposition(body)
	if err != nil {
		t.Fatal(err)
	}
	// The page was captured from accruald after 200 ids had each beaten
	// three times: the globals, then the first shard's processes.
	if got := ex.global[keyProcesses]; got != 200 {
		t.Errorf("%s = %v, want 200", keyProcesses, got)
	}
	if got, err := ex.counter(keyDelivered); err != nil || got != 600 {
		t.Errorf("%s = %v, %v, want 600", keyDelivered, got, err)
	}
	if got, ok := ex.global[keyShed]; !ok || got != 0 {
		t.Errorf("%s = %v, present %v, want 0", keyShed, got, ok)
	}
	for _, r := range dropReasons {
		if _, ok := ex.global[`accrual_udp_packets_dropped_total{reason="`+r+`"}`]; !ok {
			t.Errorf("drop reason %q missing from the page", r)
		}
	}
	if got := ex.perProc[levelFamily]; got != 5 {
		t.Errorf("%d %s series, want 5", got, levelFamily)
	}
	if ex.samples != 74 || len(ex.perProc) != 6 {
		t.Errorf("%d samples in %d per-process families, want 74 in 6", ex.samples, len(ex.perProc))
	}
	if got := ex.sumPrefix("accrual_udp_socket_packets_total"); got != 600 {
		t.Errorf("socket packets sum to %v, want 600", got)
	}
	if _, err := ex.counter("accrual_no_such_series"); err == nil {
		t.Error("a missing series read as a counter")
	}
}

func TestParseExpositionRejects(t *testing.T) {
	for _, body := range []string{
		"accrual_x\n",                 // no value
		"accrual_x{a=\"b\" 1\n",       // label block never closes
		"accrual_x{a=\"b\"}1\n",       // no space before the value
		"accrual_x one\n",             // value is not a number
		"{a=\"b\"} 1\n",               // no name
		"accrual_x{proc=\"a\\\"} 1\n", // escaped quote swallows the close
	} {
		if _, err := parseExposition([]byte(body)); err == nil {
			t.Errorf("parsed %q", body)
		}
	}
	ex, err := parseExposition([]byte("# HELP x y\n\nx{a=\"}\\\"\"} NaN\nx{proc=\"p-1\"} +Inf"))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := ex.global[`x{a="}\""}`]; !ok || !math.IsNaN(v) {
		t.Errorf("quoted brace: %v %v", v, ok)
	}
	if ex.perProc["x"] != 1 {
		t.Errorf("per-process series without trailing newline not counted: %v", ex.perProc)
	}
}

func TestProcParsers(t *testing.T) {
	if ns, err := parseSchedstat([]byte("786114 1681946 2\n")); err != nil || ns != 786114 {
		t.Errorf("schedstat: %v, %v", ns, err)
	}
	if _, err := parseSchedstat([]byte("786114\n")); err == nil {
		t.Error("short schedstat accepted")
	}

	const udp = `   sl  local_address rem_address   st tx_queue rx_queue tr tm->when retrnsmt   uid  timeout inode ref pointer drops
  412: 0100007F:461A 00000000:0000 07 00000000:00001B00 00:00000000 00000000     0        0 53211 2 0000000000000000 7
  977: 0100007F:E0B3 0100007F:461A 01 00000000:00000000 00:00000000 00000000     0        0 53219 2 0000000000000000 0
`
	sock, ok := parseNetUDP([]byte(udp), 0x461A)
	if !ok || sock.rxQueue != 0x1B00 || sock.drops != 7 {
		t.Errorf("daemon socket: %+v, found %v", sock, ok)
	}
	// The generator's own connected socket names the port as its peer
	// only; it must not be taken for the daemon's.
	if sock, ok := parseNetUDP([]byte(udp), 0xE0B3); !ok || sock.rxQueue != 0 || sock.drops != 0 {
		t.Errorf("client socket: %+v, found %v", sock, ok)
	}
	if _, ok := parseNetUDP([]byte(udp), 9); ok {
		t.Error("found a socket that is not listed")
	}

	const status = "Name:\taccruald\nVmHWM:\t   39748 kB\nThreads:\t8\nvoluntary_ctxt_switches:\t120\nnonvoluntary_ctxt_switches:\t7\n"
	for name, want := range map[string]uint64{"VmHWM:": 39748, "Threads:": 8, "voluntary_ctxt_switches:": 120, "nonvoluntary_ctxt_switches:": 7} {
		if got, ok := statusField([]byte(status), name); !ok || got != want {
			t.Errorf("%s %v, found %v, want %v", name, got, ok, want)
		}
	}
	if _, ok := statusField([]byte(status), "VmPeak:"); ok {
		t.Error("found a status field that is not there")
	}

	ut, st, err := parsePidStat([]byte("4242 (accru ald) x) S 1 4242 4242 0 -1 4194560 900 0 0 0 311 207 0 0 20 0 8 0 1234 5 6\n"))
	if err != nil || ut != 311 || st != 207 {
		t.Errorf("pid stat: utime %v stime %v, %v", ut, st, err)
	}
	steal, total, err := parseHostStat([]byte("cpu  100 1 50 800 9 0 10 30 0 0\ncpu0 1 2 3\n"))
	if err != nil || steal != 30 || total != 1000 {
		t.Errorf("host stat: steal %v of %v, %v", steal, total, err)
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is a number")
	}
	in := []float64{9, 1, 5}
	median(in)
	if !slices.Equal(in, []float64{9, 1, 5}) {
		t.Errorf("median reordered its input: %v", in)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10: %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles of powers: %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([3, 7], n=4) == [2.0, 5.0, 8.0]
	q1, q2, q3 = quartiles([]float64{3, 7})
	if q1 != 2 || q2 != 5 || q3 != 8 {
		t.Errorf("quartiles of two: %v %v %v", q1, q2, q3)
	}
}

func TestSeedDeterminism(t *testing.T) {
	for _, w := range workloads {
		a, b, other := newPlan(w, 7), newPlan(w, 7), newPlan(w, 8)
		if !slices.Equal(a.ids, b.ids) || !slices.Equal(a.probes, b.probes) {
			t.Errorf("%s: same seed, different ids or pause rotation", w.name)
		}
		if slices.Equal(a.ids, other.ids) || slices.Equal(a.probes, other.probes) {
			t.Errorf("%s: another seed, same ids or pause rotation", w.name)
		}
		if len(a.ids) != w.n || len(a.probes) != probeCount {
			t.Errorf("%s: %d ids and %d probes", w.name, len(a.ids), len(a.probes))
		}
		for r := 0; r < 3; r++ {
			if oa, ob := a.nextOrder(), b.nextOrder(); !slices.Equal(oa, ob) {
				t.Fatalf("%s: round %d beat order differs for one seed", w.name, r+1)
			}
		}
		if slices.Equal(a.nextOrder(), other.nextOrder()) {
			t.Errorf("%s: another seed, same beat order", w.name)
		}
		if qa, qb := a.nextQueries(nil), b.nextQueries(nil); !slices.Equal(qa, qb) || len(qa) != w.status {
			t.Errorf("%s: query list differs for one seed, or has %d entries", w.name, len(qa))
		}
		da, db, dother := newPlan(w, 7).digest(4, 6), newPlan(w, 7).digest(4, 6), newPlan(w, 8).digest(4, 6)
		if da != db {
			t.Errorf("%s: same seed, digests %x and %x", w.name, da, db)
		}
		if da == dother {
			t.Errorf("%s: seeds 7 and 8 share digest %x", w.name, da)
		}
	}
	// Workloads do not share streams either.
	if newPlan(workloads[1], 7).digest(1, 1) == newPlan(workloads[2], 7).digest(1, 1) {
		t.Error("two workloads share a digest")
	}
}

func TestWorkloadsStayUnderTheIngestQueue(t *testing.T) {
	for _, w := range workloads {
		if w.window*w.perBar > 2048 {
			t.Errorf("%s: %d datagrams between barriers, over half of -ingest-queue 4096", w.name, w.window*w.perBar)
		}
		if probeCount > topK || maxPaused > topK {
			t.Errorf("%s: more probes than the top %d can hold", w.name, topK)
		}
	}
}

func TestTracer(t *testing.T) {
	tr := newTracer()
	tr.cycle = 3
	root := tr.begin("cycle", -1)
	a := tr.begin("status", root)
	tr.end(a)
	tr.end(root)
	tr.spans[a].start, tr.spans[a].end = 10, 30
	if s := tr.spans[a]; s.parent != root || s.cycle != 3 {
		t.Errorf("child span %+v: want parent %d, cycle 3", s, root)
	}
	if got := tr.durations("status", 1); len(got) != 1 || got[0] != 20 {
		t.Errorf("durations of status: %v", got)
	}
	var none *tracer
	none.end(none.begin("x", -1)) // a nil tracer records nothing and does not panic
}
