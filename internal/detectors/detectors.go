// Package detectors builds the detectors the daemon ships. Factory is
// the one place a -detector name, a heartbeat interval and a memory
// profile become a service.Factory: accruald's registry, fdbench's
// daemon-shaped registries and the property tests all build through it,
// so a test of the shipped configuration tests what users run.
package detectors

import (
	"fmt"
	"math"
	"time"

	"accrual/internal/chen"
	"accrual/internal/core"
	"accrual/internal/kappa"
	"accrual/internal/phi"
	"accrual/internal/service"
	"accrual/internal/simple"
)

// compactWindow caps the sampling windows under the compact profile. 64
// inter-arrival samples are enough for the window mean/variance
// estimates the detectors run on (the paper's experiments use windows of
// this order), and at 8 bytes a sample the cap keeps window state under
// ~1 KiB per process.
const compactWindow = 64

// Factory returns the per-process detector constructor for kind (phi,
// chen, kappa or simple) at the expected heartbeat interval. The profile
// — "default", or "compact" for very large memberships — sizes the
// estimator windows: detector-native under default, capped at 64 samples
// under compact.
func Factory(kind string, interval time.Duration, profile string) (service.Factory, error) {
	windowCap := 0
	switch profile {
	case "default", "":
		windowCap = math.MaxInt
	case "compact":
		windowCap = compactWindow
	default:
		return nil, fmt.Errorf("unknown profile %q (want default or compact)", profile)
	}
	switch kind {
	case "phi":
		window := min(200, windowCap)
		return func(_ string, start time.Time) core.Detector {
			return phi.New(start, phi.WithBootstrap(interval, interval/4), phi.WithWindowSize(window))
		}, nil
	case "chen":
		window := min(100, windowCap)
		return func(_ string, start time.Time) core.Detector {
			return chen.New(start, interval, chen.WithWindowSize(window))
		}, nil
	case "kappa":
		return func(_ string, start time.Time) core.Detector {
			return kappa.New(start, kappa.PLater{}, kappa.WithFixedInterval(interval))
		}, nil
	case "simple":
		return func(_ string, start time.Time) core.Detector {
			return simple.New(start)
		}, nil
	default:
		return nil, fmt.Errorf("unknown detector %q (want phi, chen, kappa or simple)", kind)
	}
}
