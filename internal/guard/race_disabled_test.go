//go:build !race

package guard_test

// raceEnabled mirrors race_enabled_test.go for non-race builds.
const raceEnabled = false
