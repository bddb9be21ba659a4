package service

import (
	"testing"
	"time"
	"unsafe"

	"accrual/internal/clock"
	"accrual/internal/core"
	"accrual/internal/simple"
)

// fromRecorder is a simple detector that records the From of every
// heartbeat it is handed.
type fromRecorder struct {
	*simple.Detector
	from []string
}

func (d *fromRecorder) Report(hb core.Heartbeat) bool {
	d.from = append(d.from, hb.From)
	return d.Detector.Report(hb)
}

// heartbeatID ingests one byte-keyed beat through HeartbeatIDs and
// reports whether it was accepted.
func heartbeatID(m *Monitor, id []byte, hb core.Heartbeat) bool {
	acc, _ := m.HeartbeatIDs([][]byte{id}, []core.Heartbeat{hb})
	return acc == 1
}

// TestReportFromIsCanonicalID pins the From contract: on every ingest
// entry point the detector sees From as the binding's canonical id —
// the same string data, not the caller's copy — and when a slot is
// reused by a different id, the next beat carries the new binding's id.
func TestReportFromIsCanonicalID(t *testing.T) {
	dets := map[string]*fromRecorder{}
	m := NewMonitor(clock.NewManual(start), func(id string, at time.Time) core.Detector {
		d := &fromRecorder{Detector: simple.New(at)}
		dets[id] = d
		return d
	}, WithShardCount(1)) // one shard: the second binding reuses the slot

	canonical := func(id string) string {
		t.Helper()
		e, _ := m.lookup(id)
		if e == nil {
			t.Fatalf("%q not registered", id)
		}
		return e.meta.Load().id
	}
	// check asserts that the newest beat id's detector saw carried the
	// canonical id's own string data.
	check := func(path, id string) {
		t.Helper()
		from := dets[id].from
		if len(from) == 0 {
			t.Fatalf("%s: %q's detector saw no beat", path, id)
		}
		got, want := from[len(from)-1], canonical(id)
		if got != want || unsafe.StringData(got) != unsafe.StringData(want) {
			t.Errorf("%s: From = %q at %p, want the binding's %q at %p",
				path, got, unsafe.StringData(got), want, unsafe.StringData(want))
		}
	}
	// copyOf returns id with fresh backing data, as a decoded datagram has.
	copyOf := func(id string) string { return string([]byte(id)) }

	if err := m.Register("node-a"); err != nil {
		t.Fatal(err)
	}
	at := start
	beat := func(id string, seq uint64) core.Heartbeat {
		at = at.Add(time.Second)
		return core.Heartbeat{From: copyOf(id), Seq: seq, Arrived: at}
	}

	if !heartbeatID(m, []byte("node-a"), beat("node-a", 1)) {
		t.Fatal("HeartbeatIDs: registered id reported unknown")
	}
	check("HeartbeatIDs", "node-a")
	if err := m.Heartbeat(beat("node-a", 2)); err != nil {
		t.Fatal(err)
	}
	check("Heartbeat", "node-a")
	if acc, rej := m.HeartbeatBatch([]core.Heartbeat{beat("node-a", 3)}); acc != 1 || rej != 0 {
		t.Fatalf("HeartbeatBatch = %d accepted, %d rejected", acc, rej)
	}
	check("HeartbeatBatch", "node-a")

	slot, _ := m.lookup("node-a")
	if !m.Deregister("node-a") {
		t.Fatal("Deregister: node-a not present")
	}
	if err := m.Register("node-b"); err != nil {
		t.Fatal(err)
	}
	if e, _ := m.lookup("node-b"); e != slot {
		t.Fatal("node-b did not reuse node-a's slot")
	}
	if !heartbeatID(m, []byte("node-b"), beat("node-b", 1)) {
		t.Fatal("HeartbeatIDs: node-b reported unknown")
	}
	check("HeartbeatIDs after rebind", "node-b")
	if !heartbeatID(m, []byte("node-c"), beat("node-c", 1)) {
		t.Fatal("HeartbeatIDs: first contact of node-c not accepted")
	}
	check("HeartbeatIDs first contact", "node-c")
	if n := len(dets["node-a"].from); n != 3 {
		t.Errorf("node-a's detector saw %d beats, want 3 (none after its deregistration)", n)
	}
}

// TestEntryFitsTwoCacheLines bounds the registry slot's size. Past its
// index line, a heartbeat of a known process touches the slot, its
// detector and one line of the detector's sample window, so the slot's
// size is the part of the write path's per-beat cache footprint the
// registry controls, and prefetchEntry covers a slot of up to 128 bytes. The bound is on size,
// not placement: at the 112-byte stride half the slots straddle three
// lines, and padding them to 128 bytes measured no gain.
func TestEntryFitsTwoCacheLines(t *testing.T) {
	if size := unsafe.Sizeof(entry{}); size > 128 {
		t.Errorf("entry is %d bytes, want <= 128", size)
	}
}
