//go:build race

package core

// raceEnabled reports a -race build: the race detector changes
// allocation counts, so allocation guards skip under it.
const raceEnabled = true
