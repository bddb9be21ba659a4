//go:build race

package experiments

// raceEnabled reports whether the race detector is active. Under it E13
// takes ≈ 95 s a seed, and its second seed runs no code the first does
// not, so the race job runs E13 at seed 42 only; the plain job runs both.
const raceEnabled = true
