package service

import (
	"errors"

	"accrual/internal/core"
)

// TuneProcess pairs a process id and group with its detector's tunable
// state, as yielded by EachTuneInfo.
type TuneProcess struct {
	ID    string
	Group string
	Info  core.TuneInfo
}

// EachTuneInfo calls fn with every monitored process's tunable state —
// the autotuner's measurement pass. TuneInfo reads live estimator state
// the eval snapshots do not carry, so this is a locked sweep: fn runs
// with that process's entry lock held and must not call back into the
// monitor. No shard lock is held and no scratch is allocated.
func (m *Monitor) EachTuneInfo(fn func(p TuneProcess)) {
	m.sweep(func(e *entry, meta *entryMeta) {
		fn(TuneProcess{ID: meta.id, Group: meta.group, Info: e.det.TuneInfo()})
	})
}

// Retune applies one tuning to every detector in the registry. It
// returns how many detectors were retuned and how many were skipped
// because they rejected the tuning; err joins those rejections (the
// rest of the fleet is still retuned — a partially applied round is
// reported, not rolled back). Each applied tuning republishes that
// entry's eval snapshot in the same critical section, so a concurrent
// lock-free walk sees either the pre-tune or the post-tune parameters —
// never a mix. The sweep allocates nothing when every detector accepts
// the tuning.
func (m *Monitor) Retune(t core.Tuning) (tuned, skipped int, err error) {
	m.sweep(func(e *entry, _ *entryMeta) {
		if rerr := e.det.Retune(t); rerr != nil {
			err = errors.Join(err, rerr)
			skipped++
			return
		}
		e.publishEval(nil, false, e.evalLast.Load())
		tuned++
	})
	return tuned, skipped, err
}
