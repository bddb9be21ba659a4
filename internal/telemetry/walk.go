package telemetry

import "sync/atomic"

// WalkCounters tracks the lock-free evaluation plane's full-registry
// walks (service.Monitor.EachLevel and friends, and the background
// round). Walks are low-rate relative to heartbeat ingest — round,
// gossip and scrape cadences — so a plain atomic suffices.
type WalkCounters struct {
	// Runs counts full-registry evaluation passes executed.
	Runs atomic.Uint64
}

// Run counts one executed full-registry pass.
func (w *WalkCounters) Run() { w.Runs.Add(1) }
