//go:build race

package system

// raceEnabled reports whether the race detector instruments this build:
// the race runtime allocates on its own account, so the allocation pins
// skip under it.
const raceEnabled = true
