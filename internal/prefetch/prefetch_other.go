//go:build !amd64 && !arm64

// Without a prefetch instruction wired up for this architecture every
// function is a no-op; see prefetch.go.

package prefetch

import "unsafe"

// Line prefetches the cache line holding p.
func Line(unsafe.Pointer) {}

// Span prefetches every line an object of up to 128 bytes at p spans.
func Span(unsafe.Pointer) {}

// Head prefetches the first three lines from p.
func Head(unsafe.Pointer) {}
