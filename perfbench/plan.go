package main

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
)

// workload fixes the work of one cycle. Every workload runs the same
// cycle (ingest phase, then read phase); only these numbers differ.
type workload struct {
	name     string
	detector string // accruald -detector
	n        int    // monitored ids
	frame    int    // beats per datagram: 1 is AFD1, more is AFB1
	rounds   int    // R: ingest rounds per cycle
	window   int    // W: datagrams written between drain waits
	perBar   int    // K: windows between barriers
	status   int    // S: /v1/status calls per cycle
	topk     int    // T: /v1/processes?top=16 calls per cycle
	scrapes  int    // M: full /v1/metrics scrapes per cycle
}

// W*K stays at or under 2,048 ingest-queue items, half of the daemon's
// -ingest-queue 4096, so drop-newest shedding cannot trigger between
// two barriers.
var workloads = []workload{
	// Per-datagram work dominates: socket read, single-beat decode,
	// intern lookup, queue hop, one shard lock per beat.
	{name: "packet-path", detector: "phi", n: 2000, frame: 1, rounds: 2, window: 64, perBar: 16, status: 40, topk: 1, scrapes: 1},
	// Syscalls amortised 64x, so per-beat work dominates, over a
	// registry far beyond cache; the workload that sets rss_mb.
	{name: "batch-fleet", detector: "phi", n: 30000, frame: 64, rounds: 4, window: 16, perBar: 16, status: 40, topk: 1, scrapes: 1},
	// The same registry read far more than written, on the second
	// detector kind: where a write-path gain paid for on the read path
	// (or the reverse) shows.
	{name: "read-heavy", detector: "kappa", n: 10000, frame: 64, rounds: 1, window: 16, perBar: 16, status: 200, topk: 4, scrapes: 2},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	probeCount = 8  // ids that take turns being paused
	topK       = 16 // the ?top= of every ranking query
)

// query is one /v1/status call of a cycle.
type query struct {
	id        int // index into plan.ids
	threshold float64
}

// plan is everything a run derives from --seed: the id list, the order
// beats are written in, the rotation probes are paused in and the status
// queries asked. Each stream has its own generator, so how long a pause
// happens to last on the wall clock cannot shift the beat or query
// streams.
type plan struct {
	w       workload
	ids     []string
	probes  []int // indexes into ids, in pause rotation order
	order   []int32
	beatRNG *rand.Rand
	qryRNG  *rand.Rand
}

func newPlan(w workload, seed uint64) *plan {
	h := fnv.New64a()
	h.Write([]byte(w.name))
	stream := h.Sum64()
	idRNG := rand.New(rand.NewPCG(seed, stream))
	p := &plan{
		w:       w,
		ids:     make([]string, w.n),
		order:   make([]int32, w.n),
		beatRNG: rand.New(rand.NewPCG(seed, stream+1)),
		qryRNG:  rand.New(rand.NewPCG(seed, stream+2)),
	}
	prefix := fmt.Sprintf("p%04x", idRNG.Uint32()&0xffff)
	for i := range p.ids {
		p.ids[i] = fmt.Sprintf("%s-%d", prefix, i)
		p.order[i] = int32(i)
	}
	p.probes = idRNG.Perm(w.n)[:probeCount]
	return p
}

// nextOrder reshuffles the beat order for one round and returns it; the
// slice is reused by the next call.
func (p *plan) nextOrder() []int32 {
	p.beatRNG.Shuffle(len(p.order), func(i, j int) {
		p.order[i], p.order[j] = p.order[j], p.order[i]
	})
	return p.order
}

// nextQueries draws the S status queries of one cycle into dst.
func (p *plan) nextQueries(dst []query) []query {
	dst = dst[:0]
	for range p.w.status {
		dst = append(dst, query{
			id:        p.qryRNG.IntN(p.w.n),
			threshold: 0.5 + 8*p.qryRNG.Float64(),
		})
	}
	return dst
}

// digest hashes what the plan generates over the given number of rounds
// and cycles: the seed-determinism tests compare it.
func (p *plan) digest(rounds, cycles int) uint64 {
	h := fnv.New64a()
	for _, id := range p.ids {
		h.Write([]byte(id))
		h.Write([]byte{0})
	}
	fmt.Fprint(h, p.probes)
	for range rounds {
		fmt.Fprint(h, p.nextOrder())
	}
	var qs []query
	for range cycles {
		qs = p.nextQueries(qs)
		fmt.Fprint(h, qs)
	}
	return h.Sum64()
}
