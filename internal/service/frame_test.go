package service

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accrual/internal/clock"
	"accrual/internal/core"
	"accrual/internal/phi"
	"accrual/internal/telemetry"
	"accrual/internal/transport/intern"
)

// ingestFrame feeds one decoded frame to m the way the UDP read loop
// does: HeartbeatIDs for the whole frame, then HeartbeatBatch for the
// beats of ids the registry did not hold, converted to strings.
func ingestFrame(m *Monitor, ids [][]byte, beats []core.Heartbeat) (accepted, rejected int) {
	known := make([]bool, len(ids))
	accepted = m.HeartbeatIDs(ids, beats, known)
	var fresh []core.Heartbeat
	for i, ok := range known {
		if !ok {
			hb := beats[i]
			hb.From = string(ids[i])
			fresh = append(fresh, hb)
		}
	}
	acc, rej := m.HeartbeatBatch(fresh)
	return accepted + acc, rejected + rej
}

// TestFrameIngestMatchesPerBeat pins the staged frame ingest against the
// one-beat path: seeded frames go through HeartbeatIDs on one monitor
// and, one Heartbeat call at a time, to a twin on the same clock. The
// frames run past one group, repeat ids within a group (the repeat
// stale), mix unknown ids with known ones, and meet ids deregistered and
// re-registered between frames, over a fleet whose index chains leave
// their home word and line. Both monitors must end bit-identical: every
// level and last arrival, every slot a new id was bound to, and every
// count.
func TestFrameIngestMatchesPerBeat(t *testing.T) {
	// 16 shards order a group's shard locks by bitmap, 256 by insertion.
	for _, shards := range []int{16, 256} {
		for _, auto := range []bool{true, false} {
			t.Run(fmt.Sprintf("shards=%d/auto=%v", shards, auto), func(t *testing.T) { frameMatchesPerBeat(t, shards, auto) })
		}
	}
}

func frameMatchesPerBeat(t *testing.T, shards int, auto bool) {
	var fallbacks int
	findFallback = func() { fallbacks++ }
	t.Cleanup(func() { findFallback = nil })

	const (
		fleet    = 6000 // registered up front
		strays   = 600  // ids never registered up front
		frames   = 120
		maxFrame = 200
	)
	clk := clock.NewManual(start)
	newTwin := func() (*Monitor, *telemetry.Hub) {
		hub := telemetry.NewHub()
		opts := []MonitorOption{WithTelemetry(hub), WithShardCount(shards)}
		if !auto {
			opts = append(opts, WithoutAutoRegister())
		}
		return NewMonitor(clk, func(_ string, at time.Time) core.Detector {
			return phi.New(at, phi.WithBootstrap(100*time.Millisecond, 25*time.Millisecond))
		}, opts...), hub
	}
	staged, stagedHub := newTwin()
	single, singleHub := newTwin()

	ids := make([]string, fleet+strays)
	for i := range ids {
		ids[i] = fmt.Sprintf("node-%05d.rack-%02d", i, i%37)
	}
	for _, id := range ids[:fleet] {
		for _, m := range []*Monitor{staged, single} {
			if err := m.Register(id); err != nil {
				t.Fatal(err)
			}
		}
	}

	rng := rand.New(rand.NewSource(38))
	seq := make([]uint64, len(ids))
	var stagedAcc, stagedRej, singleAcc, singleRej int
	for f := 0; f < frames; f++ {
		at := clk.Advance(time.Duration(50+rng.Intn(100)) * time.Millisecond)

		// Membership churn between frames, applied to both.
		for k := rng.Intn(4); k > 0; k-- {
			id := ids[rng.Intn(len(ids))]
			if staged.Known(id) {
				if staged.Deregister(id) != single.Deregister(id) {
					t.Fatalf("frame %d: Deregister(%q) disagrees", f, id)
				}
			} else if (staged.Register(id) == nil) != (single.Register(id) == nil) {
				t.Fatalf("frame %d: Register(%q) disagrees", f, id)
			}
		}

		n := 1 + rng.Intn(maxFrame)
		frameIDs := make([][]byte, 0, n)
		beats := make([]core.Heartbeat, 0, n)
		for len(beats) < n {
			i := rng.Intn(len(ids))
			if rng.Intn(8) == 0 && len(beats) > 0 {
				// An id the group already carries: repeat its last beat,
				// which the detector's sequence guard refuses (stale).
				prev := len(beats) - 1 - rng.Intn(min(len(beats), 8))
				frameIDs = append(frameIDs, frameIDs[prev])
				beats = append(beats, beats[prev])
				continue
			}
			seq[i]++
			frameIDs = append(frameIDs, []byte(ids[i]))
			beats = append(beats, core.Heartbeat{Seq: seq[i], Arrived: at})
		}

		acc, rej := ingestFrame(staged, frameIDs, beats)
		stagedAcc += acc
		stagedRej += rej
		for i, hb := range beats {
			hb.From = string(frameIDs[i])
			if err := single.Heartbeat(hb); err == nil {
				singleAcc++
			} else if errors.Is(err, ErrUnknownProcess) {
				singleRej++
			} else {
				t.Fatal(err)
			}
		}
	}
	clk.Advance(time.Second)

	if stagedAcc != singleAcc || stagedRej != singleRej {
		t.Errorf("staged accepted/rejected %d/%d, per-beat %d/%d", stagedAcc, stagedRej, singleAcc, singleRej)
	}
	if auto == (stagedRej != 0) {
		t.Errorf("auto=%v: %d beats rejected", auto, stagedRej)
	}
	if st, sg := stagedHub.Counters.Totals(), singleHub.Counters.Totals(); st != sg {
		t.Errorf("counters: staged %+v, per-beat %+v", st, sg)
	} else if st.HeartbeatsStale == 0 || st.Deregistrations == 0 {
		t.Errorf("frames exercised no stale beat or no deregistration: %+v", st)
	}

	if got, want := staged.Len(), single.Len(); got != want {
		t.Fatalf("Len: staged %d, per-beat %d", got, want)
	}
	for _, id := range single.Processes() {
		s1, slot1, e1 := staged.slotOf(id)
		s2, slot2, e2 := single.slotOf(id)
		if e1 == nil || e2 == nil {
			t.Fatalf("%s: bound on one monitor only", id)
		}
		if s1 != s2 || slot1 != slot2 {
			t.Errorf("%s: staged slot %d/%d, per-beat %d/%d", id, s1, slot1, s2, slot2)
		}
		if l1, l2 := e1.evalLast.Load(), e2.evalLast.Load(); l1 != l2 {
			t.Errorf("%s: evalLast staged %d, per-beat %d", id, l1, l2)
		}
	}
	levels := single.Snapshot()
	for id, lvl := range staged.Snapshot() {
		if lvl != levels[id] {
			t.Errorf("%s: staged level %v, per-beat %v", id, lvl, levels[id])
		}
	}

	// The fleet must reach the paths a small one never does: ids bound
	// off their home word, and chains that leave their home line (find).
	offHome := 0
	for i := range staged.shards {
		sh := &staged.shards[i]
		for pos, w := range sh.index.words {
			if w != 0 && sh.index.home(wordTag(w)) != pos {
				offHome++
			}
		}
	}
	if offHome == 0 || fallbacks == 0 {
		t.Errorf("%d ids off their home word, %d find fallbacks: want both > 0", offHome, fallbacks)
	}
}

// TestFrameIngestUnderChurn runs two frame ingesters over every shard,
// as two Listeners on one Monitor would, beside registration churn on
// the same ids, state import, retuning and scrapes that rebuild the
// shards' sorted orders. Ingest holds several shard read locks at once;
// with writers queued on those shards, any slip from ascending lock
// order deadlocks, which the test's timeout turns into a failure. Run it
// under -race.
func TestFrameIngestUnderChurn(t *testing.T) {
	const (
		procs  = 512
		rounds = 300
	)
	clk := clock.NewManual(start)
	m := NewMonitor(clk, func(_ string, at time.Time) core.Detector {
		return phi.New(at, phi.WithBootstrap(100*time.Millisecond, 25*time.Millisecond))
	}, WithTelemetry(telemetry.NewHub()))
	ids := make([][]byte, procs)
	shards := map[uint32]bool{}
	for i := range ids {
		ids[i] = fmt.Appendf(nil, "proc-%04d", i)
		shards[intern.Hash(ids[i])&m.shardMask] = true
	}
	if len(shards) != m.ShardCount() {
		t.Fatalf("ids span %d of %d shards", len(shards), m.ShardCount())
	}

	var ingesters, churners sync.WaitGroup
	for w := 0; w < 2; w++ {
		ingesters.Add(1)
		go func(w int) {
			defer ingesters.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			frame := make([][]byte, 0, 150)
			beats := make([]core.Heartbeat, 0, 150)
			for r := 1; r <= rounds; r++ {
				frame, beats = frame[:0], beats[:0]
				for i := 0; i < 150; i++ {
					frame = append(frame, ids[rng.Intn(procs)])
					beats = append(beats, core.Heartbeat{Seq: uint64(r), Arrived: start.Add(time.Duration(r) * 100 * time.Millisecond)})
				}
				if acc, rej := ingestFrame(m, frame, beats); acc != len(frame) || rej != 0 {
					t.Errorf("ingester %d: accepted %d, rejected %d of %d", w, acc, rej, len(frame))
					return
				}
			}
		}(w)
	}
	var done atomic.Bool
	churn := func(fn func(i int)) {
		churners.Add(1)
		go func() {
			defer churners.Done()
			for i := 0; !done.Load(); i++ {
				fn(i)
			}
		}()
	}
	churn(func(i int) {
		id := string(ids[(i*7)%procs])
		if !m.Deregister(id) {
			_ = m.Register(id)
		}
	})
	churn(func(i int) {
		st := m.ExportState()
		if len(st.Procs) > 16 {
			st.Procs = st.Procs[:16]
		}
		if _, err := m.ImportState(st); err != nil {
			t.Error(err)
		}
		if _, _, err := m.Retune(core.Tuning{WindowSize: 64 + i%64}); err != nil {
			t.Error(err)
		}
	})
	churn(func(int) {
		var rows []telemetry.ProcRow
		for s := 0; s < m.ShardCount(); s++ {
			rows = m.AppendShardSeries(s, clk.Now(), rows[:0])
		}
	})
	ingesters.Wait()
	done.Store(true)
	churners.Wait()
	if m.ShardOrderRebuilds() == 0 {
		t.Error("scrapes rebuilt no sorted order under churn")
	}
}

// frameFleet is BenchmarkFrameIngest's registry, built once per test
// binary: registering and warming 30k windows takes seconds, and the
// benchmark function runs once per b.N probe.
var frameFleet frameFixture

type frameFixture struct {
	sync.Once
	m     *Monitor
	ids   [][]byte
	perms [][]int // shuffled fleet orders, one per round in turn
	round uint64  // the beat number of the round being sent
	pos   int     // the round's next process, an index into its order
}

// sendFrame sends the next len(frame) processes of the current round,
// fewer at the round's end, one beat each, as one frame through
// HeartbeatIDs, and returns how many beats it sent. Every process beats
// once a round, in the round's shuffled order, about a second after its
// previous beat.
func (f *frameFixture) sendFrame(frame [][]byte, beats []core.Heartbeat, known []bool) int {
	perm := f.perms[f.round%uint64(len(f.perms))]
	base := start.Add(time.Duration(f.round) * time.Second)
	n := min(len(frame), len(perm)-f.pos)
	for i, p := range perm[f.pos : f.pos+n] {
		frame[i] = f.ids[p]
		jitter := time.Duration((p*7919+int(f.round)*104729)%100) * time.Millisecond
		beats[i] = core.Heartbeat{Seq: f.round, Arrived: base.Add(jitter)}
	}
	f.m.HeartbeatIDs(frame[:n], beats[:n], known)
	if f.pos += n; f.pos == len(perm) {
		f.pos = 0
		f.round++
	}
	return n
}

// BenchmarkFrameIngest measures the staged frame path on a registry far
// beyond cache: 30k processes with accruald's φ detector (200-sample
// window, bootstrapped), their windows full after 250 warm-up rounds,
// fed 64-beat frames of shuffled ids through HeartbeatIDs as the UDP
// read loop feeds a decoded AFB1 frame. An op is one frame; ns/beat is
// the figure to read. It is a tool for locating per-beat costs, not a
// pinned figure: the daemon benchmark (perfbench) is the end-to-end
// measure.
func BenchmarkFrameIngest(b *testing.B) {
	const (
		procs  = 30000
		warmup = 250
		frameN = 64
	)
	f := &frameFleet
	frame := make([][]byte, frameN)
	beats := make([]core.Heartbeat, frameN)
	known := make([]bool, frameN)
	f.Do(func() {
		f.m = NewMonitor(clock.NewManual(start), func(_ string, at time.Time) core.Detector {
			return phi.New(at, phi.WithBootstrap(time.Second, time.Second/4), phi.WithWindowSize(200))
		}, WithTelemetry(telemetry.NewHub()))
		f.ids = make([][]byte, procs)
		for i := range f.ids {
			f.ids[i] = fmt.Appendf(nil, "node-%05d", i)
			if err := f.m.Register(string(f.ids[i])); err != nil {
				b.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(1))
		f.perms = make([][]int, 8)
		for i := range f.perms {
			f.perms[i] = rng.Perm(procs)
		}
		for f.round = 1; f.round <= warmup; {
			f.sendFrame(frame, beats, known)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	sent := 0
	for i := 0; i < b.N; i++ {
		sent += f.sendFrame(frame, beats, known)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(sent), "ns/beat")
}
