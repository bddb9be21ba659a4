// Package detectors builds the detectors the daemon ships. Factory is
// the one place a -detector name, a heartbeat interval and a memory
// profile become a service.Factory: accruald's registry, fdbench's
// daemon-shaped registries and the property tests all build through it,
// so a test of the shipped configuration tests what users run.
package detectors

import (
	"fmt"
	"time"

	"accrual/internal/chen"
	"accrual/internal/core"
	"accrual/internal/kappa"
	"accrual/internal/phi"
	"accrual/internal/service"
	"accrual/internal/simple"
)

// Factory returns the per-process detector constructor for kind (phi,
// chen, kappa or simple) at the expected heartbeat interval. The profile
// sizes the estimator windows (service.Profile.EstimatorWindow).
func Factory(kind string, interval time.Duration, profile service.Profile) (service.Factory, error) {
	switch kind {
	case "phi":
		window := profile.EstimatorWindow(200)
		return func(_ string, start time.Time) core.Detector {
			return phi.New(start, phi.WithBootstrap(interval, interval/4), phi.WithWindowSize(window))
		}, nil
	case "chen":
		window := profile.EstimatorWindow(100)
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
