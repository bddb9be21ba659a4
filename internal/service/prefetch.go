//go:build amd64 || arm64

package service

import "accrual/internal/core"

// The prefetch helpers ask the CPU to start loading cache lines a later
// stage of resolveGroup reads, so the misses of a whole group are in
// flight together. A prefetch is a hint, not a memory access: it never
// faults, and the race detector has nothing to see.

// prefetchEntry prefetches every line e spans: the lines at e, e+64 and
// e+127 cover any slot of up to 128 bytes (TestEntryFitsTwoCacheLines).
//
//go:noescape
func prefetchEntry(e *entry)

// prefetchDetector prefetches the first three lines of the detector d
// points to.
//
//go:noescape
func prefetchDetector(d core.Detector)
