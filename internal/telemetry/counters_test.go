package telemetry_test

import (
	"sync"
	"testing"

	"accrual/internal/telemetry"
)

// TestCountersConcurrentSums checks that striped increments from many
// goroutines sum exactly.
func TestCountersConcurrentSums(t *testing.T) {
	var c telemetry.Counters
	const (
		goroutines = 8
		perG       = 10_000
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h := uint32(g*perG + i)
				c.Heartbeat(h, i%10 == 0)
				c.Query(h)
				if i%100 == 0 {
					c.Registered(h)
					c.Deregistered(h)
				}
			}
		}(g)
	}
	wg.Wait()
	tot := c.Totals()
	if tot.HeartbeatsIngested != goroutines*perG {
		t.Errorf("ingested = %d, want %d", tot.HeartbeatsIngested, goroutines*perG)
	}
	if tot.HeartbeatsStale != goroutines*perG/10 {
		t.Errorf("stale = %d, want %d", tot.HeartbeatsStale, goroutines*perG/10)
	}
	if tot.Queries != goroutines*perG {
		t.Errorf("queries = %d, want %d", tot.Queries, goroutines*perG)
	}
	if tot.Registrations != goroutines*perG/100 || tot.Deregistrations != goroutines*perG/100 {
		t.Errorf("registrations = %d, deregistrations = %d, want %d each",
			tot.Registrations, tot.Deregistrations, goroutines*perG/100)
	}
}

// TestTransportCountersHighWater checks the CAS batch high-water mark
// under concurrent observers.
func TestTransportCountersHighWater(t *testing.T) {
	var tc telemetry.TransportCounters
	if tc.BatchHighWater() != 0 {
		t.Fatalf("initial high water = %d", tc.BatchHighWater())
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i <= 1000; i++ {
				tc.ObserveBatch(i + g)
			}
		}(g)
	}
	wg.Wait()
	if got := tc.BatchHighWater(); got != 1003 {
		t.Errorf("high water = %d, want 1003", got)
	}
	tc.ObserveBatch(5) // lower samples never regress the mark
	if got := tc.BatchHighWater(); got != 1003 {
		t.Errorf("high water after low sample = %d, want 1003", got)
	}
}

// TestTransportStatsDropped checks the drop roll-up.
func TestTransportStatsDropped(t *testing.T) {
	var tc telemetry.TransportCounters
	tc.PacketsReceived.Add(10)
	tc.PacketsShort.Add(1)
	tc.PacketsBadMagic.Add(2)
	tc.PacketsBadVersion.Add(3)
	tc.PacketsMalformed.Add(1)
	tc.Rejected.Add(1)
	tc.Delivered.Add(2)
	s := tc.Snapshot()
	if s.Dropped() != 8 {
		t.Errorf("Dropped() = %d, want 8", s.Dropped())
	}
	if s.PacketsReceived != 10 || s.Delivered != 2 {
		t.Errorf("snapshot = %+v", s)
	}
}
