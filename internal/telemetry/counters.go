package telemetry

import (
	"strconv"
	"sync/atomic"
)

// counterStripes is the number of independent counter cells the monitor
// hot-path counters are spread over. Increments are routed by the same
// FNV-1a hash the Monitor shards on, so goroutines hammering different
// processes land on different cache lines and an instrumented ingest
// path costs an uncontended atomic add. Must be a power of two.
const counterStripes = 64

// counterCell is one stripe of hot-path counters, padded so that two
// stripes never share a cache-line pair (64-byte lines, 128-byte
// prefetch pairs on modern x86/ARM).
type counterCell struct {
	heartbeats      atomic.Uint64
	stale           atomic.Uint64
	queries         atomic.Uint64
	registrations   atomic.Uint64
	deregistrations atomic.Uint64
	_               [88]byte
}

// Counters aggregates the service.Monitor hot path: heartbeats ingested,
// stale (out-of-order or duplicate sequence) arrivals, suspicion queries
// served, and registration churn. All methods are safe for concurrent
// use, allocation-free, and wait-free (a single atomic add).
type Counters struct {
	cells [counterStripes]counterCell
}

// Heartbeat records one ingested heartbeat for the process whose id
// hashes to hash; stale marks an out-of-order or duplicate sequence
// number.
func (c *Counters) Heartbeat(hash uint32, stale bool) {
	cell := &c.cells[hash&(counterStripes-1)]
	cell.heartbeats.Add(1)
	if stale {
		cell.stale.Add(1)
	}
}

// Query records one suspicion query served.
func (c *Counters) Query(hash uint32) {
	c.cells[hash&(counterStripes-1)].queries.Add(1)
}

// Registered records one process registration (explicit or automatic).
func (c *Counters) Registered(hash uint32) {
	c.cells[hash&(counterStripes-1)].registrations.Add(1)
}

// Deregistered records one process deregistration.
func (c *Counters) Deregistered(hash uint32) {
	c.cells[hash&(counterStripes-1)].deregistrations.Add(1)
}

// CounterTotals is a point-in-time sum of the striped counters.
type CounterTotals struct {
	HeartbeatsIngested uint64
	HeartbeatsStale    uint64
	Queries            uint64
	Registrations      uint64
	Deregistrations    uint64
}

// Totals sums every stripe. The sum is not a single atomic snapshot —
// concurrent increments may or may not be included — which is exactly
// the semantics of a monotonic counter scrape.
func (c *Counters) Totals() CounterTotals {
	var t CounterTotals
	for i := range c.cells {
		cell := &c.cells[i]
		t.HeartbeatsIngested += cell.heartbeats.Load()
		t.HeartbeatsStale += cell.stale.Load()
		t.Queries += cell.queries.Load()
		t.Registrations += cell.registrations.Load()
		t.Deregistrations += cell.deregistrations.Load()
	}
	return t
}

// TransportCounters counts UDP packet dispositions in the heartbeat
// listener. The read loop is a single goroutine, so plain (unstriped)
// atomics suffice; the batch high-water mark is maintained with a CAS
// loop that only runs when the mark is actually exceeded.
type TransportCounters struct {
	// PacketsReceived counts every datagram read from the socket.
	PacketsReceived atomic.Uint64
	// PacketsShort counts datagrams below the minimum packet length.
	PacketsShort atomic.Uint64
	// PacketsBadMagic counts datagrams whose magic bytes mismatch.
	PacketsBadMagic atomic.Uint64
	// PacketsBadVersion counts datagrams with an unsupported version.
	PacketsBadVersion atomic.Uint64
	// PacketsMalformed counts datagrams that failed decoding for any
	// other reason (length mismatch, zero-length id).
	PacketsMalformed atomic.Uint64
	// Rejected counts decoded heartbeats the monitor refused (unknown
	// process with auto-registration off).
	Rejected atomic.Uint64
	// Delivered counts heartbeats accepted by the monitor.
	Delivered atomic.Uint64

	// BatchesReceived counts AFB1 batch frames that decoded successfully.
	BatchesReceived atomic.Uint64
	// BatchBeats counts heartbeats carried inside decoded AFB1 batch
	// frames (single-beat AFD1 datagrams are not included).
	BatchBeats atomic.Uint64

	// SendFailures counts heartbeats a Sender failed to put on the wire:
	// write errors plus ticks skipped while disconnected awaiting a
	// redial backoff.
	SendFailures atomic.Uint64
	// Redials counts Sender reconnection attempts after a torn-down
	// socket (each attempt re-resolves the target address).
	Redials atomic.Uint64
	// InternOverflow counts AFG1 digest ids the listener's intern table
	// could not remember because it was at capacity — each such id is
	// re-allocated on every digest that carries it, so a non-zero rate
	// here says the -intern-max budget is below the digest id
	// cardinality. Heartbeat ids never reach the table.
	InternOverflow atomic.Uint64

	// sockets holds the listener's per-socket counter cells, installed
	// once by the listener via RegisterSockets and read lock-free by the
	// scrape. An atomic pointer (not a plain slice) so a scrape racing
	// listener startup is safe.
	sockets atomic.Pointer[[]SocketCell]

	batchHighWater atomic.Int64
}

// SocketCell is one listener socket's read-loop counters. The label
// is precomputed at registration so the scrape can emit the per-socket
// series without a per-scrape itoa allocation; cells are cache-line
// padded because each read loop hammers its own cell from its own core.
type SocketCell struct {
	// Label is the socket index as a string ("0", "1", ...).
	Label string
	// Packets counts datagrams this socket's read loop pulled off the
	// wire.
	Packets atomic.Uint64
	// Batches counts read syscalls (recvmmsg batches) this socket's loop
	// completed; Packets/Batches is the realised syscall amortisation.
	Batches atomic.Uint64
	_       [88]byte
}

// RegisterSockets installs n per-socket counter cells and returns the
// slice; the listener hands cell i to socket i's read loop. Calling it
// again replaces the cells (a restarted listener starts fresh).
func (t *TransportCounters) RegisterSockets(n int) []SocketCell {
	if n < 1 {
		n = 1
	}
	cells := make([]SocketCell, n)
	for i := range cells {
		cells[i].Label = strconv.Itoa(i)
	}
	t.sockets.Store(&cells)
	return cells
}

// EachSocket calls fn once per registered socket cell, in socket order,
// without allocating. It is how the metrics scrape walks the per-socket
// series; before any listener registered, it calls fn zero times.
func (t *TransportCounters) EachSocket(fn func(label string, packets, batches uint64)) {
	cells := t.sockets.Load()
	if cells == nil {
		return
	}
	for i := range *cells {
		c := &(*cells)[i]
		fn(c.Label, c.Packets.Load(), c.Batches.Load())
	}
}

// SocketCount returns the number of registered per-socket cells.
func (t *TransportCounters) SocketCount() int {
	cells := t.sockets.Load()
	if cells == nil {
		return 0
	}
	return len(*cells)
}

// ObserveBatch records one decoded AFB1 frame carrying beats heartbeats,
// keeping the largest-batch high-water mark.
func (t *TransportCounters) ObserveBatch(beats int) {
	t.BatchesReceived.Add(1)
	t.BatchBeats.Add(uint64(beats))
	b := int64(beats)
	for {
		cur := t.batchHighWater.Load()
		if b <= cur {
			return
		}
		if t.batchHighWater.CompareAndSwap(cur, b) {
			return
		}
	}
}

// BatchHighWater returns the largest decoded batch observed, in beats.
func (t *TransportCounters) BatchHighWater() int {
	return int(t.batchHighWater.Load())
}

// TransportStats is a point-in-time snapshot of TransportCounters.
type TransportStats struct {
	PacketsReceived   uint64
	PacketsShort      uint64
	PacketsBadMagic   uint64
	PacketsBadVersion uint64
	PacketsMalformed  uint64
	// PacketsShed is always 0: the listener reports every decoded beat
	// on its read loop, with no queue to shed from. It stays for callers
	// that still assert on it.
	PacketsShed     uint64
	Rejected        uint64
	Delivered       uint64
	BatchesReceived uint64
	BatchBeats      uint64
	SendFailures    uint64
	Redials         uint64
	InternOverflow  uint64
	BatchHighWater  int
}

// Snapshot reads every counter once.
func (t *TransportCounters) Snapshot() TransportStats {
	return TransportStats{
		PacketsReceived:   t.PacketsReceived.Load(),
		PacketsShort:      t.PacketsShort.Load(),
		PacketsBadMagic:   t.PacketsBadMagic.Load(),
		PacketsBadVersion: t.PacketsBadVersion.Load(),
		PacketsMalformed:  t.PacketsMalformed.Load(),
		Rejected:          t.Rejected.Load(),
		Delivered:         t.Delivered.Load(),
		BatchesReceived:   t.BatchesReceived.Load(),
		BatchBeats:        t.BatchBeats.Load(),
		SendFailures:      t.SendFailures.Load(),
		Redials:           t.Redials.Load(),
		InternOverflow:    t.InternOverflow.Load(),
		BatchHighWater:    t.BatchHighWater(),
	}
}

// Dropped sums every packet that was received but never reached a
// detector: undecodable datagrams and heartbeats the monitor refused.
// Together with Delivered it accounts for every received heartbeat
// datagram once the read loop has handled it — nothing is dropped
// silently.
func (s TransportStats) Dropped() uint64 {
	return s.PacketsShort + s.PacketsBadMagic + s.PacketsBadVersion +
		s.PacketsMalformed + s.Rejected
}
