package intern

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

func TestInternCanonicalises(t *testing.T) {
	tab := New()
	a := tab.Intern([]byte("proc-1"))
	b := tab.Intern([]byte("proc-1"))
	if a != "proc-1" || b != "proc-1" {
		t.Fatalf("Intern = %q, %q, want proc-1", a, b)
	}
	if tab.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tab.Len())
	}
	// Identity: interning the same bytes twice must return the same
	// string header data pointer.
	c := tab.Intern([]byte("proc-identity"))
	d := tab.Intern([]byte("proc-identity"))
	if unsafeData(c) != unsafeData(d) {
		t.Fatal("Intern returned distinct storage for the same id")
	}
}

// unsafeData extracts a string's data pointer so the test can assert
// identity (shared storage), not just equality.
func unsafeData(s string) *byte {
	return unsafe.StringData(s)
}

func TestCapacityOverflowAccounting(t *testing.T) {
	const capTotal = numShards * 4 // 4 ids per shard
	tab := New(WithCapacity(capTotal))
	if tab.Capacity() != capTotal {
		t.Fatalf("Capacity = %d, want %d", tab.Capacity(), capTotal)
	}
	const distinct = 4096
	for i := 0; i < distinct; i++ {
		id := fmt.Sprintf("proc-%04d", i)
		if got := tab.Intern([]byte(id)); got != id {
			t.Fatalf("Intern(%q) = %q", id, got)
		}
	}
	// Capacity is enforced per shard, so the exact remembered count
	// depends on hash spread — but the conservation law is exact:
	// every distinct insert was either remembered or counted overflow.
	if got := tab.Len() + int(tab.Overflows()); got != distinct {
		t.Fatalf("Len+Overflows = %d+%d = %d, want %d",
			tab.Len(), tab.Overflows(), got, distinct)
	}
	if tab.Len() > capTotal {
		t.Fatalf("Len = %d exceeds capacity %d", tab.Len(), capTotal)
	}
	if tab.Overflows() == 0 {
		t.Fatal("expected overflows past capacity, got none")
	}
	// Re-interning a remembered id past capacity is still a hit, not an
	// overflow.
	before := tab.Overflows()
	tab.Intern([]byte("proc-0000"))
	// proc-0000 may itself have overflowed if its shard filled first;
	// accept either, but a second identical intern must not change the
	// count twice in a row differently.
	mid := tab.Overflows()
	tab.Intern([]byte("proc-0000"))
	after := tab.Overflows()
	if after-mid != mid-before {
		t.Fatalf("overflow accounting unstable for repeated id: %d, %d, %d", before, mid, after)
	}
}

func TestExternalOverflowCounter(t *testing.T) {
	var ext atomic.Uint64
	tab := New(WithCapacity(numShards), WithOverflowCounter(&ext))
	for i := 0; i < 1024; i++ {
		tab.Intern([]byte(fmt.Sprintf("id-%d", i)))
	}
	if ext.Load() == 0 {
		t.Fatal("external counter never incremented")
	}
	if tab.Overflows() != ext.Load() {
		t.Fatalf("Overflows = %d, external = %d", tab.Overflows(), ext.Load())
	}
}

func TestNilTableDegrades(t *testing.T) {
	var tab *Table
	if got := tab.Intern([]byte("x")); got != "x" {
		t.Fatalf("nil Intern = %q", got)
	}
	if tab.Len() != 0 || tab.Overflows() != 0 || tab.Capacity() != 0 {
		t.Fatal("nil table accessors should be zero")
	}
}

func TestInternHitPathZeroAlloc(t *testing.T) {
	tab := New()
	id := []byte("proc-zero-alloc")
	tab.Intern(id)
	allocs := testing.AllocsPerRun(1000, func() {
		if got := tab.Intern(id); got != "proc-zero-alloc" {
			t.Fatal("wrong id")
		}
	})
	if allocs != 0 {
		t.Fatalf("Intern hit path allocates %.1f/op, want 0", allocs)
	}
}

func TestConcurrentIntern(t *testing.T) {
	tab := New(WithCapacity(numShards * 8))
	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	results := make([][]string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]string, 0, perG)
			buf := make([]byte, 0, 16)
			for i := 0; i < perG; i++ {
				buf = buf[:0]
				buf = append(buf, "shared-"...)
				buf = fmt.Appendf(buf, "%d", i%256)
				out = append(out, tab.Intern(buf))
			}
			results[g] = out
		}(g)
	}
	wg.Wait()
	// All goroutines interning the same 256 ids must have received
	// identical canonical strings.
	for g := 1; g < goroutines; g++ {
		for i := range results[g] {
			if results[g][i] != results[0][i] {
				t.Fatalf("goroutine %d id %d: %q != %q", g, i, results[g][i], results[0][i])
			}
		}
	}
	if tab.Len() != 256 {
		t.Fatalf("Len = %d, want 256", tab.Len())
	}
}

// TestHashMatchesFNV1a pins Hash to hash/fnv's 32-bit FNV-1a for both
// type arguments — seeded random ids, the empty id and a 255-byte one —
// and at zero allocations.
func TestHashMatchesFNV1a(t *testing.T) {
	rng := rand.New(rand.NewSource(0xFA1))
	ids := [][]byte{{}, bytes.Repeat([]byte{0xA5}, 255)}
	for i := 0; i < 1000; i++ {
		id := make([]byte, 1+rng.Intn(255))
		rng.Read(id)
		ids = append(ids, id)
	}
	for _, id := range ids {
		ref := fnv.New32a()
		ref.Write(id)
		want := ref.Sum32()
		if got := Hash(id); got != want {
			t.Fatalf("Hash([]byte %x) = %#x, want %#x", id, got, want)
		}
		if got := Hash(string(id)); got != want {
			t.Fatalf("Hash(string %x) = %#x, want %#x", id, got, want)
		}
	}
	b, s := []byte("proc-000042"), "proc-000042"
	var sink uint32
	if allocs := testing.AllocsPerRun(1000, func() { sink += Hash(b) + Hash(s) }); allocs != 0 {
		t.Errorf("Hash: %.1f allocs/op, want 0", allocs)
	}
	_ = sink
}
