//go:build amd64 || arm64

// Package prefetch asks the CPU to start loading cache lines a caller
// reads a little later, so that several independent misses are in
// flight together instead of one after another. A prefetch is a hint,
// not a memory access: it never faults, on any address, and the race
// detector has nothing to see. Where no prefetch instruction is wired up
// (prefetch_other.go) every function is a no-op.
package prefetch

import "unsafe"

// Line prefetches the cache line holding p.
//
//go:noescape
func Line(p unsafe.Pointer)

// Span prefetches every line an object of up to 128 bytes at p spans:
// the lines holding p, p+64 and p+127.
//
//go:noescape
func Span(p unsafe.Pointer)

// Head prefetches the first three lines from p: those holding p, p+64
// and p+128.
//
//go:noescape
func Head(p unsafe.Pointer)
