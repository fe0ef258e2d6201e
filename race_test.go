//go:build race

package repro

// raceEnabled reports whether the race detector is on. Under it
// sync.Pool drops a random share of what is put back, so allocation
// counts do not measure pooling.
const raceEnabled = true
