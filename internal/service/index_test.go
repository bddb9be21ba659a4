package service

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"accrual/internal/core"
	"accrual/internal/simple"
)

// indexedIDs returns the ids a shard's index holds, in index order.
// Caller holds sh.mu or the shard is quiescent.
func indexedIDs(sh *shard) []string {
	var ids []string
	sh.index.eachSlot(func(slot uint32) { ids = append(ids, sh.slab.at(slot).id) })
	return ids
}

// indexWords is the monitor's total index size in words.
func indexWords(m *Monitor) int {
	n := 0
	for i := range m.shards {
		n += len(m.shards[i].index.words)
	}
	return n
}

// homeAtTop returns a hash whose home is the last word of the index at
// every size: the inverse of the mix's multiplier maps 2^32-1-k back to
// the hash the mix sends there, so a chain started from it wraps.
func homeAtTop(k uint32) uint32 {
	const mul = 0x9e3779b1
	inv := uint32(mul) // Newton's iteration for the inverse mod 2^32
	for i := 0; i < 5; i++ {
		inv *= 2 - mul*inv
	}
	return inv * (^uint32(0) - k)
}

// indexCoverage counts the index situations a model run passed through.
type indexCoverage struct {
	tagCollisions int // two bound ids shared a tag
	wraps         int // a word sat before its home: its chain wrapped
	midChainGrows int // the array doubled while holding a displaced word
	shifts        int // an unbind moved a word back into the hole
}

// checkIndex compares the shard's index with the model (id → slot, and
// each id's crafted hash) word by word: every word names a bound slot
// whose id hashes to its tag, every chain is unbroken from its home, and
// load stays at most one half. It records which situations occur.
func checkIndex(t *testing.T, step int, op string, sh *shard, model map[string]uint32, hashOf map[string]uint32, cov *indexCoverage) {
	t.Helper()
	x := &sh.index
	if x.n != len(model) {
		t.Fatalf("step %d (%s): index holds %d, model %d", step, op, x.n, len(model))
	}
	if len(x.words) > 0 && 2*x.n > len(x.words) {
		t.Fatalf("step %d (%s): load %d of %d words, over one half", step, op, x.n, len(x.words))
	}
	tags := make(map[uint32]int)
	used := 0
	for p, w := range x.words {
		if w == 0 {
			continue
		}
		used++
		h, slot := wordTag(w), wordSlot(w)
		id := sh.slab.at(slot).id
		if want, ok := model[id]; !ok || want != slot || hashOf[id] != h {
			t.Fatalf("step %d (%s): word %d = (tag %#x, slot %d) holds %q, model slot %d hash %#x", step, op, p, h, slot, id, want, hashOf[id])
		}
		tags[h]++
		k := x.home(h)
		for q := k; q != p; q = (q + 1) & (len(x.words) - 1) {
			if x.words[q] == 0 {
				t.Fatalf("step %d (%s): word %d (home %d) is cut off by the empty word %d", step, op, p, k, q)
			}
		}
		if k > p {
			cov.wraps++
		}
	}
	if used != x.n {
		t.Fatalf("step %d (%s): %d words in use, n = %d", step, op, used, x.n)
	}
	for _, c := range tags {
		if c > 1 {
			cov.tagCollisions++
		}
	}
}

// displaced reports whether some word of the index sits off its home.
func displaced(x *idIndex) bool {
	for p, w := range x.words {
		if w != 0 && x.home(wordTag(w)) != p {
			return true
		}
	}
	return false
}

// slotIn finds e's slot index by scanning the shard's slab.
func slotIn(sh *shard, e *entry) uint32 {
	for i := uint32(0); i < sh.slab.next; i++ {
		if sh.slab.at(i) == e {
			return i
		}
	}
	panic("entry not in slab")
}

// runIndexModel drives one shard and a map[string]uint32 reference
// through a seeded sequence of bind, unbind and probe, with each id's
// hash crafted: a third are drawn from a few hashes homed at the array's
// last word (chains wrap), a third from a small shared pool (tags
// collide between different ids), the rest at random. Every probe is
// made both as a string and as bytes, for the bound ids and for absent
// ones that share a bound id's tag.
func runIndexModel(t *testing.T, seed int64, universe, steps int, cov *indexCoverage) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ids := make([]string, universe)
	hashOf := make(map[string]uint32, universe)
	pool := make([]uint32, 6)
	for i := range pool {
		pool[i] = rng.Uint32()
	}
	for i := range ids {
		ids[i] = fmt.Sprintf("s%d-id-%03d", seed, i)
		switch rng.Intn(3) {
		case 0:
			hashOf[ids[i]] = homeAtTop(uint32(rng.Intn(3)))
		case 1:
			hashOf[ids[i]] = pool[rng.Intn(len(pool))]
		default:
			hashOf[ids[i]] = rng.Uint32()
		}
	}
	sh := &shard{}
	model := make(map[string]uint32)
	det := func() core.Detector { return simple.New(start) }
	probe := func(step int, op, id string) {
		t.Helper()
		want, bound := model[id]
		h := hashOf[id]
		for _, form := range []string{"string", "bytes"} {
			var slot uint32
			var e *entry
			if form == "string" {
				slot, e = find(sh, h, id)
			} else {
				slot, e = find(sh, h, []byte(id))
			}
			switch {
			case bound && (e == nil || slot != want || e.id != id):
				t.Fatalf("step %d (%s): find(%q) as %s = slot %d, model slot %d", step, op, id, form, slot, want)
			case !bound && e != nil:
				t.Fatalf("step %d (%s): find(%q) as %s hit slot %d, model has no binding", step, op, id, form, slot)
			}
		}
	}
	for step := 0; step < steps; step++ {
		id := ids[rng.Intn(universe)]
		var op string
		switch r := rng.Intn(100); {
		case r < 45:
			op = "bind"
			if _, ok := model[id]; ok {
				break
			}
			size, mid := len(sh.index.words), displaced(&sh.index)
			e, _ := sh.bind(hashOf[id], id, det(), "", start)
			model[id] = slotIn(sh, e)
			if len(sh.index.words) != size && mid {
				cov.midChainGrows++
			}
		case r < 80:
			op = "unbind"
			if _, ok := model[id]; !ok {
				if sh.unbind(hashOf[id], id) != nil {
					t.Fatalf("step %d: unbind(%q) of an absent id reported true", step, id)
				}
				break
			}
			before := slices.Clone(sh.index.words)
			if sh.unbind(hashOf[id], id) == nil {
				t.Fatalf("step %d: unbind(%q) lost the binding", step, id)
			}
			delete(model, id)
			changed := 0
			for i := range before {
				if before[i] != sh.index.words[i] {
					changed++
				}
			}
			if changed > 1 {
				cov.shifts++
			}
		default:
			op = "probe"
		}
		checkIndex(t, step, op, sh, model, hashOf, cov)
		for _, id := range ids {
			probe(step, op, id)
		}
	}
}

// TestIndexMatchesModel pins the shard's open-addressed id index to a
// plain map over many seeded bind/unbind/probe runs. The hashes are
// crafted so that tag collisions between different ids, chains that wrap
// the end of the word array, growth while chains are displaced, and
// backward-shift deletes all occur; the test fails if any never does.
func TestIndexMatchesModel(t *testing.T) {
	var cov indexCoverage
	for seed := int64(1); seed <= 40; seed++ {
		runIndexModel(t, seed, 24, 400, &cov)
	}
	for seed := int64(100); seed < 103; seed++ {
		runIndexModel(t, seed, 96, 3000, &cov)
	}
	t.Logf("coverage: %+v", cov)
	if cov.tagCollisions == 0 || cov.wraps == 0 || cov.midChainGrows == 0 || cov.shifts == 0 {
		t.Errorf("a case never occurred: %+v", cov)
	}
}
