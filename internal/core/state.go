package core

import (
	"errors"
	"fmt"
	"time"
)

// State is the exportable learned state of one accrual failure detector:
// everything the detector has inferred about the network (estimator
// windows, moments, arrival cursors) that would otherwise be lost on a
// restart. It is deliberately a schemaless bag of typed, named fields
// rather than one struct per detector, so that a single codec
// (internal/transport/statecodec) can carry any detector kind — including
// kinds added after the codec shipped — and so that replicated monitors
// can exchange state without agreeing on Go types.
//
// Kind names the detector implementation that produced the state
// ("simple", "chen", "phi", "kappa", "bertier", or a custom name) and
// Version its payload schema version; RestoreState implementations
// validate both via Check before reading fields. Configuration that is
// re-established by the detector factory (window capacities, thresholds,
// resolutions) is intentionally NOT part of the state: a snapshot carries
// learned knowledge, not construction parameters.
//
// The zero value is an empty state; field maps are allocated lazily by
// the setters.
type State struct {
	// Kind identifies the detector implementation, e.g. "phi".
	Kind string
	// Version is the payload schema version for Kind.
	Version uint32
	// Scalars holds named float64 fields (moments, margins).
	Scalars map[string]float64
	// Ints holds named int64 fields (timestamps as Unix nanoseconds).
	Ints map[string]int64
	// Uints holds named uint64 fields (sequence numbers, flags).
	Uints map[string]uint64
	// Series holds named sample vectors (estimator windows).
	Series map[string][]float64
	// Sub holds named nested states, for detectors composed of other
	// detectors (bertier embeds a chen estimator).
	Sub map[string]State
}

// Errors returned by RestoreState implementations.
var (
	// ErrStateKind is returned when a state is restored into a detector
	// of a different kind.
	ErrStateKind = errors.New("core: state kind mismatch")
	// ErrStateVersion is returned when a state's payload version is not
	// understood by the restoring detector.
	ErrStateVersion = errors.New("core: unsupported state version")
)

// NewState returns an empty state for the given detector kind and payload
// version.
func NewState(kind string, version uint32) State {
	return State{Kind: kind, Version: version}
}

// Check validates that the state was produced by the given detector kind
// at a payload version no newer than maxVersion, wrapping ErrStateKind or
// ErrStateVersion on mismatch. Every RestoreState implementation calls it
// first.
func (s State) Check(kind string, maxVersion uint32) error {
	if s.Kind != kind {
		return fmt.Errorf("%w: got %q, want %q", ErrStateKind, s.Kind, kind)
	}
	if s.Version == 0 || s.Version > maxVersion {
		return fmt.Errorf("%w: %s version %d (max %d)", ErrStateVersion, kind, s.Version, maxVersion)
	}
	return nil
}

// SetScalar stores a named float64 field.
func (s *State) SetScalar(key string, v float64) {
	if s.Scalars == nil {
		s.Scalars = make(map[string]float64)
	}
	s.Scalars[key] = v
}

// Scalar returns the named float64 field, zero if absent.
func (s State) Scalar(key string) float64 { return s.Scalars[key] }

// SetInt stores a named int64 field.
func (s *State) SetInt(key string, v int64) {
	if s.Ints == nil {
		s.Ints = make(map[string]int64)
	}
	s.Ints[key] = v
}

// Int returns the named int64 field, zero if absent.
func (s State) Int(key string) int64 { return s.Ints[key] }

// SetUint stores a named uint64 field.
func (s *State) SetUint(key string, v uint64) {
	if s.Uints == nil {
		s.Uints = make(map[string]uint64)
	}
	s.Uints[key] = v
}

// Uint returns the named uint64 field, zero if absent.
func (s State) Uint(key string) uint64 { return s.Uints[key] }

// SetBool stores a named boolean as a uint64 0/1 field.
func (s *State) SetBool(key string, v bool) {
	var u uint64
	if v {
		u = 1
	}
	s.SetUint(key, u)
}

// Bool returns the named boolean field, false if absent.
func (s State) Bool(key string) bool { return s.Uints[key] != 0 }

// SetTime stores a named timestamp as Unix nanoseconds. The zero time is
// recorded as absence: the key is not written, and Time returns the zero
// time for missing keys. (Detector timestamps are clock readings, for
// which the zero time only ever means "not set".)
func (s *State) SetTime(key string, t time.Time) {
	if t.IsZero() {
		delete(s.Ints, key)
		return
	}
	s.SetInt(key, t.UnixNano())
}

// Time returns the named timestamp, or the zero time if absent. The
// returned time carries no monotonic reading and is in UTC; only its
// instant is meaningful, which is all the detectors' duration arithmetic
// uses.
func (s State) Time(key string) time.Time {
	v, ok := s.Ints[key]
	if !ok {
		return time.Time{}
	}
	return time.Unix(0, v).UTC()
}

// SetSeries stores a named sample vector. The slice is stored as-is;
// callers pass freshly built slices (Window.Samples(nil) does).
func (s *State) SetSeries(key string, v []float64) {
	if s.Series == nil {
		s.Series = make(map[string][]float64)
	}
	s.Series[key] = v
}

// SeriesOf returns the named sample vector, nil if absent.
func (s State) SeriesOf(key string) []float64 { return s.Series[key] }

// SetSub stores a named nested state.
func (s *State) SetSub(key string, sub State) {
	if s.Sub == nil {
		s.Sub = make(map[string]State)
	}
	s.Sub[key] = sub
}

// SubOf returns the named nested state and whether it is present.
func (s State) SubOf(key string) (State, bool) {
	sub, ok := s.Sub[key]
	return sub, ok
}

// Clone returns a deep copy of the state sharing no mutable memory with
// the original.
func (s State) Clone() State {
	out := State{Kind: s.Kind, Version: s.Version}
	if s.Scalars != nil {
		out.Scalars = make(map[string]float64, len(s.Scalars))
		for k, v := range s.Scalars {
			out.Scalars[k] = v
		}
	}
	if s.Ints != nil {
		out.Ints = make(map[string]int64, len(s.Ints))
		for k, v := range s.Ints {
			out.Ints[k] = v
		}
	}
	if s.Uints != nil {
		out.Uints = make(map[string]uint64, len(s.Uints))
		for k, v := range s.Uints {
			out.Uints[k] = v
		}
	}
	if s.Series != nil {
		out.Series = make(map[string][]float64, len(s.Series))
		for k, v := range s.Series {
			out.Series[k] = append([]float64(nil), v...)
		}
	}
	if s.Sub != nil {
		out.Sub = make(map[string]State, len(s.Sub))
		for k, v := range s.Sub {
			out.Sub[k] = v.Clone()
		}
	}
	return out
}
