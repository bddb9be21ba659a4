// Package intern provides a concurrency-safe string interner for ids
// that are decoded over and over, and Hash, the daemon's one id hash.
// The UDP listener keeps a Table for the ids of AFG1 peer digests, which
// repeat round after round, so a steady-state digest decode allocates
// nothing. Heartbeat ids never reach a Table: the registry resolves a
// known id from the datagram's bytes through its own index, and stores a
// first-contact id, converted once, as the binding's id.
//
// The table is sharded 64 ways by Hash, the one id hash of the daemon:
// registry shards and counter stripes are placed by it too. The hit path
// is a shard read-lock around a map probe whose []byte key is converted
// without allocating (the compiler-recognised m[string(b)] pattern), so
// interning stays zero-alloc and mostly uncontended.
//
// Capacity is bounded: beyond the configured cap a new id is converted
// but not remembered, and the fallback is counted instead of silently
// allocating forever. An attacker spraying random ids costs allocations
// and a visible counter, never unbounded memory.
package intern

import (
	"sync"
	"sync/atomic"
)

const (
	// DefaultCapacity is the default bound on remembered ids — sized for
	// the million-process regime the registry targets, at roughly one
	// string header plus id bytes apiece.
	DefaultCapacity = 1 << 20
	// numShards is the lock striping factor. Power of two, matching the
	// registry's default shard count so hashing spreads the same way.
	numShards = 64
)

// tableShard is one stripe: its own lock and map, padded so two shards'
// locks never share a cache line.
type tableShard struct {
	mu sync.RWMutex
	m  map[string]string
	_  [24]byte
}

// Table is a sharded string interner. The zero value is not usable;
// create one with New. A nil *Table degrades to plain conversions, so
// optional interning never needs a branch at the call site.
type Table struct {
	shards      [numShards]tableShard
	capPerShard int
	overflow    *atomic.Uint64
	ownOverflow atomic.Uint64
}

// Option configures a Table.
type Option func(*Table)

// WithCapacity bounds the total number of remembered ids (default
// DefaultCapacity). The bound is enforced per shard, so the effective
// cap is within one shard's share of the requested value. Values below
// numShards are rounded up so every shard can remember at least one id.
func WithCapacity(n int) Option {
	return func(t *Table) {
		if n < numShards {
			n = numShards
		}
		t.capPerShard = (n + numShards - 1) / numShards
	}
}

// WithOverflowCounter redirects the cap-overflow count onto c — the hook
// that lets a daemon surface accrual_intern_overflow_total on its
// metrics endpoint without this package importing the telemetry layer.
func WithOverflowCounter(c *atomic.Uint64) Option {
	return func(t *Table) {
		if c != nil {
			t.overflow = c
		}
	}
}

// New returns an empty table.
func New(opts ...Option) *Table {
	t := &Table{capPerShard: DefaultCapacity / numShards}
	t.overflow = &t.ownOverflow
	for _, opt := range opts {
		opt(t)
	}
	return t
}

// Hash is the one process-id hash of the daemon: 32-bit FNV-1a over the
// id's bytes. Interner stripes, registry shards, the registry's index
// tags and counter stripes all derive from it, so an id still in its decode
// buffer and the same id held as a string land in the same place. It
// does not allocate.
func Hash[T ~string | ~[]byte](s T) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Intern returns t's canonical string for the decoded id bytes b,
// remembering it for next time (up to the capacity). The hit path
// performs no allocations: the stripe's map is probed with the bytes
// themselves. A nil table degrades to a plain conversion.
func (t *Table) Intern(b []byte) string {
	if t == nil {
		return string(b)
	}
	sh := &t.shards[Hash(b)&(numShards-1)]
	sh.mu.RLock()
	got, ok := sh.m[string(b)] // compiler-optimised: no conversion alloc
	sh.mu.RUnlock()
	if ok {
		return got
	}
	return t.miss(sh, string(b))
}

// miss inserts s under the shard write lock, re-checking for a
// concurrent insert. At capacity the id is returned unremembered and the
// fallback counted.
func (t *Table) miss(sh *tableShard, s string) string {
	sh.mu.Lock()
	if got, ok := sh.m[s]; ok {
		sh.mu.Unlock()
		return got
	}
	if len(sh.m) >= t.capPerShard {
		sh.mu.Unlock()
		t.overflow.Add(1)
		return s
	}
	if sh.m == nil {
		sh.m = make(map[string]string)
	}
	sh.m[s] = s
	sh.mu.Unlock()
	return s
}

// Len returns the number of remembered ids.
func (t *Table) Len() int {
	if t == nil {
		return 0
	}
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// Overflows returns how many interning attempts fell back to a plain
// conversion because the table was at capacity. With an external
// overflow counter installed (WithOverflowCounter) it reads that
// counter.
func (t *Table) Overflows() uint64 {
	if t == nil {
		return 0
	}
	return t.overflow.Load()
}

// Capacity returns the total remembered-id bound (per-shard bound times
// shard count).
func (t *Table) Capacity() int {
	if t == nil {
		return 0
	}
	return t.capPerShard * numShards
}
