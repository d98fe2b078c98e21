package henn

import (
	"fmt"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
)

// peakRSSBudget is the resident-set ceiling `go test ./internal/henn/`
// must fit in. The CNN-scale parity legs each hold gigabytes of
// pre-encoded plaintexts, so a regression that keeps one leg's graph
// alive into the next shows up here before it shows up as an OOM kill.
const peakRSSBudget = 8 << 30

// TestMain runs the package under a soft heap limit (unless GOMEMLIMIT
// sets one), so garbage from a finished leg is collected before the next
// leg's plaintexts push the heap past it, then fails the run when the
// process's peak resident set (VmHWM) exceeded peakRSSBudget.
func TestMain(m *testing.M) {
	if os.Getenv("GOMEMLIMIT") == "" {
		debug.SetMemoryLimit(4 << 30)
	}
	code := m.Run()
	if peak, ok := peakRSS(); ok {
		if testing.Verbose() {
			fmt.Printf("henn tests: peak RSS %d MB\n", peak>>20)
		}
		if peak > peakRSSBudget && code == 0 {
			fmt.Printf("henn tests: peak RSS %d MB exceeds the %d MB budget\n", peak>>20, peakRSSBudget>>20)
			code = 1
		}
	}
	os.Exit(code)
}

// peakRSS reads the process's peak resident set size from
// /proc/self/status; ok is false where that file does not exist.
func peakRSS() (bytes int64, ok bool) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(status), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseInt(f[1], 10, 64)
			return kb << 10, err == nil
		}
	}
	return 0, false
}
