package transport

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"accrual/internal/clock"
	"accrual/internal/core"
	"accrual/internal/service"
	"accrual/internal/simple"
	"accrual/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestMetricsGolden scrapes /v1/metrics from a deterministic daemon
// state — manual clock, scripted heartbeats, one crash — and compares
// the exposition byte-for-byte against testdata/metrics.golden.
func TestMetricsGolden(t *testing.T) {
	epoch := time.Date(2005, 3, 22, 0, 0, 0, 0, time.UTC)
	clk := clock.NewManual(epoch)
	hub := telemetry.NewHub()
	mon := service.NewMonitor(clk, func(_ string, start time.Time) core.Detector {
		return simple.New(start)
	}, service.WithTelemetry(hub))

	hb := func(id string, seq uint64, at time.Time) {
		t.Helper()
		if err := mon.Heartbeat(core.Heartbeat{From: id, Seq: seq, Arrived: at}); err != nil {
			t.Fatal(err)
		}
	}
	hb("a", 1, epoch.Add(1*time.Second))
	hb("b", 1, epoch.Add(1*time.Second))
	hb("a", 2, epoch.Add(2*time.Second))
	hb("b", 2, epoch.Add(2*time.Second))
	hb("a", 3, epoch.Add(3*time.Second))
	hb("a", 2, epoch.Add(3*time.Second)) // stale replay

	clk.Advance(4 * time.Second) // t=4s
	hub.QoS().Sample(mon)
	hub.QoS().MarkCrashed("b", epoch.Add(5*time.Second))
	hb("a", 4, epoch.Add(7*time.Second))
	clk.Advance(4 * time.Second) // t=8s: a fresh, b silent since t=2 → suspected
	hub.QoS().Sample(mon)
	if _, err := mon.Suspicion("a"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second) // t=9s
	if !mon.Deregister("b") {
		t.Fatal("Deregister(b) = false")
	}

	// Transport counters as a shared listener would have driven them.
	hub.Transport.PacketsReceived.Add(10)
	hub.Transport.PacketsShort.Add(1)
	hub.Transport.PacketsBadMagic.Add(2)
	hub.Transport.Delivered.Add(7)

	run := service.NewRunner(mon, time.Second, service.Consumers{History: service.NewRecorder(mon, 4)})
	run.Round()

	api := NewAPI(mon, WithRunner(run), WithAPITelemetry(hub))
	srv := httptest.NewServer(api)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metricsContentType {
		t.Errorf("Content-Type = %q, want %q", ct, metricsContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	const golden = "testdata/metrics.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != string(want) {
		t.Errorf("scrape mismatch\n--- got ---\n%s\n--- want ---\n%s", body, want)
	}

	// The scrape must also round-trip through the package's own parser.
	samples, err := telemetry.ParseText(strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	for _, s := range samples {
		if s.Label("proc") == "a" || len(s.Labels) == 0 {
			byName[s.Name] = s.Value
		}
	}
	if byName["accrual_heartbeats_ingested_total"] != 7 ||
		byName["accrual_heartbeats_stale_total"] != 1 {
		t.Errorf("heartbeat counters: %+v", byName)
	}
	if byName[telemetry.MetricQoSPA] != 1 {
		t.Errorf("P_A(a) = %v, want 1 while trusted throughout", byName[telemetry.MetricQoSPA])
	}
	if byName["accrual_qos_detections_total"] != 1 {
		t.Errorf("detections = %v, want 1", byName["accrual_qos_detections_total"])
	}
}

// TestMetricsCursorReassembly: the byte concatenation of all cursor
// pages of a quiesced monitor must be identical to the single-shot
// scrape, for a spread of page limits, and every intermediate page must
// be well-formed exposition on its own.
func TestMetricsCursorReassembly(t *testing.T) {
	epoch := time.Date(2005, 3, 22, 0, 0, 0, 0, time.UTC)
	clk := clock.NewManual(epoch)
	hub := telemetry.NewHub()
	mon := service.NewMonitor(clk, func(_ string, start time.Time) core.Detector {
		return simple.New(start)
	}, service.WithTelemetry(hub))
	const procs = 50
	for p := 0; p < procs; p++ {
		id := fmt.Sprintf("proc-%03d", p)
		for s := 1; s <= 3; s++ {
			if err := mon.Heartbeat(core.Heartbeat{
				From: id, Seq: uint64(s), Arrived: epoch.Add(time.Duration(s) * time.Second),
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	clk.Advance(4 * time.Second)
	hub.QoS().Sample(mon)

	api := NewAPI(mon, WithAPITelemetry(hub))
	srv := httptest.NewServer(api)
	defer srv.Close()

	get := func(url string) (string, http.Header) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", url, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header
	}

	whole, hdr := get(srv.URL + "/v1/metrics")
	if hdr.Get(MetricsCursorHeader) != "" {
		t.Errorf("single-shot scrape carries a continuation header")
	}

	for _, limit := range []int{1, 7, procs, 10 * procs} {
		var sb strings.Builder
		cursor, pages := 0, 0
		for {
			page, hdr := get(fmt.Sprintf("%s/v1/metrics?cursor=%d&limit=%d", srv.URL, cursor, limit))
			pages++
			if pages > procs+2 {
				t.Fatalf("limit %d: pagination did not terminate", limit)
			}
			// Every page must parse on its own (page 0 carries the
			// headers; later pages are bare sample lines, which the text
			// format also allows).
			if _, err := telemetry.ParseText(strings.NewReader(page)); err != nil {
				t.Fatalf("limit %d page %d does not parse: %v", limit, pages, err)
			}
			sb.WriteString(page)
			next := hdr.Get(MetricsCursorHeader)
			if next == "" {
				break
			}
			var err error
			if cursor, err = strconv.Atoi(next); err != nil {
				t.Fatalf("limit %d: bad continuation header %q", limit, next)
			}
		}
		if sb.String() != whole {
			t.Errorf("limit %d: %d reassembled pages differ from single-shot scrape", limit, pages)
		}
		if limit >= procs && pages != 1 {
			t.Errorf("limit %d covers all %d procs but took %d pages", limit, procs, pages)
		}
	}

	// Bad parameters are rejected, not misinterpreted.
	for _, q := range []string{"?cursor=-1", "?limit=0", "?limit=x", "?cursor=1.5&limit=3"} {
		resp, err := http.Get(srv.URL + "/v1/metrics" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestMetricsNotEnabled: without a hub the endpoint 404s instead of
// serving an empty exposition.
func TestMetricsNotEnabled(t *testing.T) {
	mon := newMonitor()
	srv := httptest.NewServer(NewAPI(mon))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d, want 404", resp.StatusCode)
	}
}

// TestMetricsScrapeUnderChurn hammers the instrumented hot paths —
// ingest, queries, registration churn — while scraping /v1/metrics and
// sampling QoS concurrently. Run under -race this is the data-race proof
// for the whole telemetry path; the final scrape must parse and account
// for every heartbeat.
func TestMetricsScrapeUnderChurn(t *testing.T) {
	hub := telemetry.NewHub()
	mon := service.NewMonitor(clock.Wall{}, func(_ string, start time.Time) core.Detector {
		return simple.New(start)
	}, service.WithTelemetry(hub))
	run := service.NewRunner(mon, time.Millisecond, service.Consumers{QoS: hub.QoS()})
	run.Start()
	defer run.Stop()
	srv := httptest.NewServer(NewAPI(mon, WithAPITelemetry(hub), WithRunner(run)))
	defer srv.Close()

	const (
		ingesters = 4
		perG      = 500
	)
	var wg sync.WaitGroup
	for g := 0; g < ingesters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := fmt.Sprintf("proc-%d", g)
			for i := 1; i <= perG; i++ {
				_ = mon.Heartbeat(core.Heartbeat{From: id, Seq: uint64(i), Arrived: time.Now()})
				if i%25 == 0 {
					_, _ = mon.Suspicion(id)
				}
			}
		}(g)
	}
	// Churn: register/deregister a revolving-door process, crash-marking
	// every other departure.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = mon.Heartbeat(core.Heartbeat{From: "churn", Seq: uint64(i + 1), Arrived: time.Now()})
			if i%2 == 0 {
				hub.QoS().MarkCrashed("churn", time.Now())
			}
			mon.Deregister("churn")
		}
	}()
	// Concurrent scrapers: single-shot and paginated, both must parse
	// while the membership churns underneath them.
	scrapeErr := make(chan error, 1)
	reportErr := func(err error) {
		select {
		case scrapeErr <- err:
		default:
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			resp, err := http.Get(srv.URL + "/v1/metrics")
			if err == nil {
				_, err = telemetry.ParseText(resp.Body)
				resp.Body.Close()
			}
			if err != nil {
				reportErr(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			cursor, pages := 0, 0
			for {
				resp, err := http.Get(fmt.Sprintf("%s/v1/metrics?cursor=%d&limit=2", srv.URL, cursor))
				if err != nil {
					reportErr(err)
					return
				}
				_, err = telemetry.ParseText(resp.Body)
				next := resp.Header.Get(MetricsCursorHeader)
				resp.Body.Close()
				if err != nil {
					reportErr(err)
					return
				}
				if pages++; pages > 256 || next == "" {
					break
				}
				if cursor, err = strconv.Atoi(next); err != nil {
					reportErr(fmt.Errorf("bad continuation header %q", next))
					return
				}
			}
		}
	}()
	wg.Wait()
	select {
	case err := <-scrapeErr:
		t.Fatalf("concurrent scrape: %v", err)
	default:
	}

	tot := hub.Counters.Totals()
	if want := uint64(ingesters*perG + 50); tot.HeartbeatsIngested != want {
		t.Errorf("ingested = %d, want %d", tot.HeartbeatsIngested, want)
	}
	if tot.Deregistrations != 50 {
		t.Errorf("deregistrations = %d, want 50", tot.Deregistrations)
	}
	samples, err := func() ([]telemetry.Sample, error) {
		resp, err := http.Get(srv.URL + "/v1/metrics")
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		return telemetry.ParseText(resp.Body)
	}()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if s.Name == "accrual_heartbeats_ingested_total" &&
			s.Value != float64(ingesters*perG+50) {
			t.Errorf("scraped ingested = %v, want %d", s.Value, ingesters*perG+50)
		}
	}

	// Quiesce: with the runner stopped and no more ingest the state is
	// frozen, so a paginated scrape must reassemble byte-identically to
	// the single-shot one even though the data came through churn.
	run.Stop()
	fetch := func(url string) (string, string) {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get(MetricsCursorHeader)
	}
	whole, _ := fetch(srv.URL + "/v1/metrics")
	var sb strings.Builder
	cursor := 0
	for {
		page, next := fetch(fmt.Sprintf("%s/v1/metrics?cursor=%d&limit=1", srv.URL, cursor))
		sb.WriteString(page)
		if next == "" {
			break
		}
		if cursor, err = strconv.Atoi(next); err != nil {
			t.Fatalf("bad continuation header %q", next)
		}
	}
	// The suspicion level is evaluated live from the eval snapshot at
	// each request's clock reading, so under the wall clock its value
	// moves between fetches; normalise that one series' values and
	// require everything else — membership, ordering, every other
	// sample — to reassemble byte-identically.
	normalize := func(s string) string {
		lines := strings.Split(s, "\n")
		for i, ln := range lines {
			if strings.HasPrefix(ln, "accrual_suspicion_level{") {
				if j := strings.LastIndexByte(ln, ' '); j >= 0 {
					lines[i] = ln[:j] + " <live>"
				}
			}
		}
		return strings.Join(lines, "\n")
	}
	if normalize(sb.String()) != normalize(whole) {
		t.Errorf("post-churn paginated scrape differs from single-shot scrape")
	}
}

// TestListenerDropClassification sends one datagram of every failure
// class plus a valid heartbeat for an unknown process (auto-registration
// off) and asserts each lands on its own counter — no sleeps, just the
// Stats accessor.
func TestListenerDropClassification(t *testing.T) {
	mon := service.NewMonitor(clock.Wall{}, func(_ string, start time.Time) core.Detector {
		return simple.New(start)
	}, service.WithoutAutoRegister())
	l, err := Listen("127.0.0.1:0", mon)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	conn, err := netDial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	good, err := MarshalHeartbeat(core.Heartbeat{From: "stranger", Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	badMagic := append([]byte(nil), good...)
	copy(badMagic[0:4], "NOPE")
	badVersion := append([]byte(nil), good...)
	badVersion[4] = 99
	truncated := append([]byte(nil), good...)
	truncated[5] = 200 // declared id length disagrees with packet size

	for _, pkt := range [][]byte{
		[]byte("tiny"), // short
		badMagic,
		badVersion,
		truncated, // malformed (length mismatch)
		good,      // decodes, but the monitor refuses the unknown sender
	} {
		if _, err := conn.Write(pkt); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, 3*time.Second, func() bool {
		return l.Stats().Dropped() == 5
	})
	st := l.Stats()
	if st.PacketsShort != 1 || st.PacketsBadMagic != 1 || st.PacketsBadVersion != 1 ||
		st.PacketsMalformed != 1 || st.Rejected != 1 {
		t.Errorf("stats = %+v, want one drop in each class", st)
	}
	if st.PacketsReceived != 5 || st.Delivered != 0 {
		t.Errorf("received=%d delivered=%d, want 5 and 0", st.PacketsReceived, st.Delivered)
	}
	if mon.Len() != 0 {
		t.Errorf("monitor registered %d processes from garbage", mon.Len())
	}
}
