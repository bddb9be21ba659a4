package service

import "math/bits"

// idIndex is a shard's id → slot table: an open-addressed array of
// 8-byte words, each the id's 32-bit intern.Hash (the tag) in its high
// half and slot+1 in its low half, 0 meaning empty. It stores no id:
// a tag hit is verified against entry.id on the slot it names, the slot
// a heartbeat locks next anyway, so a steady-state probe reads one index
// line and then the slot.
//
// The home position is a multiplicative mix of the hash, not its low
// bits: those already picked the shard, so every id of a shard shares
// them. Probing is linear; deletion shifts the rest of the chain back,
// so churn leaves no tombstones and the array only grows with the
// membership's high-water mark. The array doubles once more than half
// of it is in use.
//
// The index is written only by bind and unbind under the shard write
// lock, together with entry.id, so a probe under the read lock sees a
// consistent pair.
type idIndex struct {
	words []uint64 // len is zero or a power of two
	n     int      // occupied words
	shift uint     // 32 - log2(len(words)): home is the mix's top bits
}

// minIndexWords is the array a shard's first binding allocates: two
// cache lines.
const minIndexWords = 16

// home is h's first probe position.
func (x *idIndex) home(h uint32) int {
	return int((h * 0x9e3779b1) >> x.shift)
}

// indexWord packs a tag and a slot; slot+1 keeps every used word non-zero.
func indexWord(h, slot uint32) uint64 { return uint64(h)<<32 | uint64(slot+1) }

// wordTag and wordSlot unpack a used word.
func wordTag(w uint64) uint32  { return uint32(w >> 32) }
func wordSlot(w uint64) uint32 { return uint32(w) - 1 }

// find resolves id — a string, or raw bytes compared without a
// conversion allocation — hashing to h to its slot and entry, or a nil
// entry. It probes the shard's index from h's home and takes the first
// tag hit whose slot holds id. Caller holds sh.mu (read or write).
func find[T ~string | ~[]byte](sh *shard, h uint32, id T) (uint32, *entry) {
	words := sh.index.words
	if len(words) == 0 {
		return 0, nil
	}
	mask := len(words) - 1
	for i := sh.index.home(h); ; i = (i + 1) & mask {
		w := words[i]
		if w == 0 {
			return 0, nil
		}
		if wordTag(w) == h {
			slot := wordSlot(w)
			if e := sh.slab.at(slot); e.id == string(id) {
				return slot, e
			}
		}
	}
}

// eachSlot calls fn with every indexed slot, in index order. Caller
// holds the shard lock.
func (x *idIndex) eachSlot(fn func(slot uint32)) {
	for _, w := range x.words {
		if w != 0 {
			fn(wordSlot(w))
		}
	}
}

// insert adds (h, slot). The caller guarantees the id is not present.
func (x *idIndex) insert(h, slot uint32) {
	if 2*(x.n+1) > len(x.words) {
		x.grow()
	}
	x.place(indexWord(h, slot))
	x.n++
}

// place stores w at the first empty position of its chain.
func (x *idIndex) place(w uint64) {
	mask := len(x.words) - 1
	i := x.home(wordTag(w))
	for x.words[i] != 0 {
		i = (i + 1) & mask
	}
	x.words[i] = w
}

// grow doubles the array and re-places every word; the tag is the whole
// hash, so no id is read.
func (x *idIndex) grow() {
	old := x.words
	size := 2 * len(old)
	if size < minIndexWords {
		size = minIndexWords
	}
	x.words = make([]uint64, size)
	x.shift = uint(32 - bits.TrailingZeros(uint(size)))
	for _, w := range old {
		if w != 0 {
			x.place(w)
		}
	}
}

// remove deletes the word for (h, slot), which must be present, and
// shifts the rest of its chain back over the hole: a word moves into
// the hole unless its home lies cyclically after the hole and at or
// before the word's own position, where moving it would put it ahead
// of its home.
func (x *idIndex) remove(h, slot uint32) {
	mask := len(x.words) - 1
	want := indexWord(h, slot)
	i := x.home(h)
	for x.words[i] != want {
		i = (i + 1) & mask
	}
	for j := i; ; {
		j = (j + 1) & mask
		w := x.words[j]
		if w == 0 {
			break
		}
		k := x.home(wordTag(w))
		if i <= j {
			if i < k && k <= j {
				continue
			}
		} else if i < k || k <= j {
			continue
		}
		x.words[i] = w
		i = j
	}
	x.words[i] = 0
	x.n--
}
