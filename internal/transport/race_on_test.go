//go:build race

package transport

// raceEnabled reports whether the race detector is active; under race
// sync.Pool randomly drops cached objects, so zero-alloc budgets on
// pooled paths are meaningless.
const raceEnabled = true
