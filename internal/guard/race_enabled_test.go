//go:build race

package guard_test

// raceEnabled reports whether the race detector is active: its sync.Pool
// drops a share of the items put back, so allocation budgets are skipped
// under -race.
const raceEnabled = true
