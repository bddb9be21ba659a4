//go:build !amd64 && !arm64

package service

import "accrual/internal/core"

// The prefetch helpers are no-ops where the package has no prefetch
// instruction wired up; see prefetch.go.

func prefetchEntry(*entry) {}

func prefetchDetector(core.Detector) {}
