package transport

import (
	"errors"
	"fmt"
	"time"
)

// MultiSender heartbeats several monitors at once — the redundant
// monitoring layout where each process is observed by more than one
// failure-detection service, so the service itself is not a single point
// of failure. All targets receive the same sequence numbers: a target's
// k-th round carries k whether or not its earlier rounds got through.
type MultiSender struct {
	senders []*Sender
}

// NewMultiSender returns a sender for process id targeting every UDP
// address in targets.
func NewMultiSender(id string, targets []string, interval time.Duration, opts ...SenderOption) (*MultiSender, error) {
	if len(targets) == 0 {
		return nil, errors.New("transport: no targets")
	}
	m := &MultiSender{senders: make([]*Sender, 0, len(targets))}
	for _, target := range targets {
		s, err := NewSender(id, target, interval, opts...)
		if err != nil {
			return nil, fmt.Errorf("target %s: %w", target, err)
		}
		m.senders = append(m.senders, s)
	}
	return m, nil
}

// Start launches all per-target heartbeat loops; on any failure it stops
// the loops already started and returns the error.
func (m *MultiSender) Start() error {
	for i, s := range m.senders {
		if err := s.Start(); err != nil {
			for _, started := range m.senders[:i] {
				started.Stop()
			}
			return err
		}
	}
	return nil
}

// Stop terminates every loop and waits for them to exit. Idempotent.
func (m *MultiSender) Stop() {
	for _, s := range m.senders {
		s.Stop()
	}
}

// Health reports per-target delivery health, in target order: which
// monitors are reachable, how many sends each has missed and when each
// last succeeded. A redundant layout stays useful only while a quorum of
// targets is healthy, and this is the signal to alert on.
func (m *MultiSender) Health() []SenderHealth {
	out := make([]SenderHealth, len(m.senders))
	for i, s := range m.senders {
		out[i] = s.Health()
	}
	return out
}

// Sent returns the number of heartbeat rounds to each target, delivered
// or not, in target order.
func (m *MultiSender) Sent() []uint64 {
	out := make([]uint64, len(m.senders))
	for i, s := range m.senders {
		out[i] = s.Sent()
	}
	return out
}
