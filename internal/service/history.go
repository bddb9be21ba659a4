package service

import (
	"sync"
	"time"

	"accrual/internal/core"
)

// Recorder keeps the last capacity suspicion levels of every monitored
// process, one per round, giving operators a recent level history for
// dashboards and postmortems (served by the HTTP API as /v1/history).
// Create one with NewRecorder; it records on every round of a Runner it
// is attached to, or on Tick.
//
// Storage is laid out by slab slot, time-major: every slab chunk of
// every shard gets a ring of capacity rows, one per round, each row
// holding one float64 level per slot of the chunk. A round writes one
// contiguous row per chunk, and the round's time is stored once, not
// per sample. Each slot is tagged with the binding it records and the
// round that binding was first recorded in, so a slot rebound to another
// process starts an empty history and a departed process's samples are
// unreachable. Memory is bounded by the slab: 8 bytes × capacity per
// slot, pointer-free.
type Recorder struct {
	mon      *Monitor
	capacity int

	mu     sync.Mutex
	rounds int64       // rounds recorded; round r writes row r % capacity
	times  []time.Time // times[r % capacity] is round r's clock reading
	chunks [][]*histChunk
}

// histChunk is the history of one slab chunk. A chunk's rows are only
// as wide as the slots it had in use when last widened (rounded up to a
// power of two), so a sparsely used shard does not pay for 512 slots per
// row.
type histChunk struct {
	width  int
	levels []float64    // capacity rows of width levels
	tag    []*entryMeta // binding each slot records
	first  []int64      // round that binding was first recorded in
}

// NewRecorder returns a recorder over mon keeping the last capacity
// samples per process (capacity below 1 is raised to 1).
func NewRecorder(mon *Monitor, capacity int) *Recorder {
	if capacity < 1 {
		capacity = 1
	}
	return &Recorder{
		mon:      mon,
		capacity: capacity,
		times:    make([]time.Time, capacity),
		chunks:   make([][]*histChunk, len(mon.shards)),
	}
}

// Tick records one round of every monitored process: one round of this
// recorder alone (a Runner round feeds every attached consumer from the
// same walk).
func (r *Recorder) Tick() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.mon.feed(r.mon.Now(), &Consumers{History: r})
}

// begin opens round r.rounds at now. Caller holds r.mu.
func (r *Recorder) begin(now time.Time) {
	r.times[r.rounds%int64(r.capacity)] = now
}

// record stores lvl as the current round's sample of the binding meta in
// slot of shard s. Caller holds r.mu.
func (r *Recorder) record(s int, slot uint32, meta *entryMeta, lvl core.Level) {
	cs := r.chunks[s]
	c := int(slot >> slabChunkBits)
	for len(cs) <= c {
		cs = append(cs, &histChunk{})
		r.chunks[s] = cs
	}
	hc := cs[c]
	j := int(slot & slabChunkMask)
	if j >= hc.width {
		// Size the rows for every slot the chunk has in use now, not just
		// this one, so a first round allocates each chunk once.
		_, n := r.mon.shards[s].walkSpan()
		hc.widen(max(j+1, min(int(n)-c<<slabChunkBits, slabChunkSize)), r.capacity)
	}
	if hc.tag[j] != meta {
		hc.tag[j], hc.first[j] = meta, r.rounds
	}
	hc.levels[int(r.rounds%int64(r.capacity))*hc.width+j] = float64(lvl)
}

// widen grows the chunk's rows to at least used slots, keeping every
// recorded sample in place.
func (hc *histChunk) widen(used, capacity int) {
	w := max(hc.width, 8)
	for w < used {
		w *= 2
	}
	levels := make([]float64, capacity*w)
	for row := 0; hc.width > 0 && row < capacity; row++ {
		copy(levels[row*w:], hc.levels[row*hc.width:(row+1)*hc.width])
	}
	hc.levels = levels
	hc.tag = append(hc.tag, make([]*entryMeta, w-hc.width)...)
	hc.first = append(hc.first, make([]int64, w-hc.width)...)
	hc.width = w
}

// History returns the recorded samples of one registered process, oldest
// first. The second result is false when id is not registered or has not
// been recorded since it was.
func (r *Recorder) History(id string) ([]core.QueryRecord, bool) {
	s, slot, e := r.mon.slotOf(id)
	if e == nil {
		return nil, false
	}
	meta := e.meta.Load()
	if meta == nil || meta.id != id {
		return nil, false // deregistered since the lookup
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, j := int(slot>>slabChunkBits), int(slot&slabChunkMask)
	if c >= len(r.chunks[s]) {
		return nil, false
	}
	hc := r.chunks[s][c]
	if j >= hc.width || hc.tag[j] != meta {
		return nil, false
	}
	from := max(hc.first[j], r.rounds-int64(r.capacity))
	out := make([]core.QueryRecord, 0, r.rounds-from)
	for round := from; round < r.rounds; round++ {
		row := int(round % int64(r.capacity))
		out = append(out, core.QueryRecord{At: r.times[row], Level: core.Level(hc.levels[row*hc.width+j])})
	}
	return out, true
}

// Ticks returns how many rounds have been recorded.
func (r *Recorder) Ticks() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rounds
}
