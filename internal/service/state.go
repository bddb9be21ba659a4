package service

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"accrual/internal/core"
	"accrual/internal/transport/intern"
)

// ProcessState pairs a monitored process id with its detector's
// exported state.
type ProcessState struct {
	ID    string
	State core.State
}

// MonitorState is the exportable learned state of a whole monitor: one
// ProcessState per monitored process, sorted by id. It is what a warm
// restart persists and what a live handoff streams to a replacement
// monitor.
type MonitorState struct {
	Procs []ProcessState
}

// Len returns the number of exported processes.
func (s MonitorState) Len() int { return len(s.Procs) }

// ExportState snapshots the learned state of every monitored process.
//
// It is a locked sweep (eachLocked): each entry is snapshotted under its
// per-process lock with no shard lock held. Heartbeat ingest and queries
// for other processes — and registration on any shard — proceed
// throughout; there is no global pause. The result is a
// per-process-consistent snapshot: each process's state is atomic with
// respect to its own heartbeat stream, while the set of processes is the
// registry's membership as the sweep passes over it (exactly the
// consistency EachLevel offers).
func (m *Monitor) ExportState() MonitorState {
	var procs []ProcessState
	m.sweep(func(e *entry, meta *entryMeta) {
		procs = append(procs, ProcessState{ID: meta.id, State: e.det.SnapshotState()})
	})
	sort.Slice(procs, func(i, j int) bool { return procs[i].ID < procs[j].ID })
	return MonitorState{Procs: procs}
}

// ImportState restores exported state into this monitor, process by
// process. Unregistered processes are registered first (through the
// monitor's factory, so they carry this monitor's detector
// configuration); already-registered processes have their detectors
// restored in place. Like ExportState it works shard by shard with no
// global pause, so it can run while heartbeats are already flowing —
// the warm-boot case, where the UDP listener starts before the state
// file is replayed.
//
// Restore failures (a state recorded by a different
// detector kind than this monitor's factory builds, or a future payload
// version) are collected and returned joined, after every other process
// has been attempted; restored reports how many processes were
// successfully restored.
func (m *Monitor) ImportState(st MonitorState) (restored int, err error) {
	var errs []error
	for _, ps := range st.Procs {
		e, gen := m.lookup(ps.ID)
		if e == nil {
			id := m.ids.InternString(ps.ID)
			e, gen, _ = m.bindOnce(intern.Hash(id), id, time.Time{})
		}
		e.mu.Lock()
		if e.gen.Load() != gen {
			// Deregistered between resolution and restore; the process is
			// gone, there is nothing to restore into.
			e.mu.Unlock()
			continue
		}
		rerr := e.det.RestoreState(ps.State)
		if rerr == nil {
			// Republish in the same critical section: a concurrent
			// lock-free walk sees either the pre-restore or the
			// restored parameters, never a mix.
			e.publishEval(nil, false)
		}
		e.mu.Unlock()
		if rerr != nil {
			errs = append(errs, fmt.Errorf("%s: %w", ps.ID, rerr))
			continue
		}
		restored++
	}
	return restored, errors.Join(errs...)
}
