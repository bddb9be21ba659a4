package service

import (
	"unsafe"

	"accrual/internal/core"
	"accrual/internal/prefetch"
)

// The prefetch helpers ask the CPU to start loading cache lines a later
// stage of resolveGroup, or a later row of the id-ordered scrape walk,
// reads, so several misses are in flight together (see package
// prefetch).

// prefetchEntry prefetches every line e spans: a slot is at most 128
// bytes (TestEntryFitsTwoCacheLines).
func prefetchEntry(e *entry) { prefetch.Span(unsafe.Pointer(e)) }

// prefetchDetector prefetches the first three lines of the detector d
// points to: an interface value is a (type, data) word pair, and data
// is the detector's pointer.
func prefetchDetector(d core.Detector) {
	prefetch.Head((*[2]unsafe.Pointer)(unsafe.Pointer(&d))[1])
}

// prefetchMeta prefetches a binding's identity: an entryMeta is one
// 64-byte allocation.
func prefetchMeta(m *entryMeta) { prefetch.Line(unsafe.Pointer(m)) }
