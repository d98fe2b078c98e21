package guard

import (
	"errors"
	"log/slog"
	"math"

	"cnnhe/internal/henn/ir"
	"cnnhe/internal/telemetry"
)

// telStages publishes a graph's per-stage gauges, each read off the
// stage's last op in graph order: the predicted noise budget, and the
// level and log2 scale the graph assigns that op, which are exact by
// construction. It runs once per graph the guard's NoiseBits passes, so
// no engine op publishes anything.
func telStages(gr *ir.Graph, bits []float64) {
	if !telemetry.Enabled() {
		return
	}
	last := make([]int, len(gr.Stages))
	for i := range gr.Ops {
		last[gr.Ops[i].Stage] = i
	}
	r := telemetry.Default()
	for s, st := range gr.Stages {
		op := &gr.Ops[last[s]]
		if op.Stage != s {
			continue // a stage without ops
		}
		l := telemetry.L("stage", st.Name)
		r.Gauge("cnnhe_guard_stage_noise_bits",
			"predicted noise budget (log2 scale/noise) of the stage's last op in graph order", l).Set(bits[last[s]])
		r.Gauge("cnnhe_guard_stage_level",
			"ciphertext level of the stage's last op in graph order", l).Set(float64(op.Level))
		r.Gauge("cnnhe_guard_stage_scale_log2",
			"log2 ciphertext scale of the stage's last op in graph order", l).Set(math.Log2(op.Scale))
	}
}

// telConfigured publishes the guard's enforcement threshold (once per
// New; gauges are idempotent so repeated guards just re-set it).
func (g *GuardedEngine) telConfigured() {
	if !telemetry.Enabled() {
		return
	}
	telemetry.Default().Gauge("cnnhe_guard_min_noise_bits",
		"noise-budget floor (DefaultMinNoiseBits)").Set(DefaultMinNoiseBits)
}

// telFailure logs a guard refusal and counts it by failure class. The
// request, stage and op that caused it are named by the caller's own
// log line (trace and request IDs, failed stage, the executor's op).
// Failures are rare, so the registry lookup and the log line both
// happen inline.
func telFailure(cause error) {
	slog.Warn("guard abort", "class", failureClass(cause), "err", cause.Error())
	if !telemetry.Enabled() {
		return
	}
	telemetry.Default().Counter("cnnhe_guard_failures_total",
		"guard aborts by failure class",
		telemetry.L("class", failureClass(cause))).Inc()
}

// failureClass maps a guard abort cause to a stable metric label.
func failureClass(cause error) string {
	switch {
	case errors.Is(cause, ErrNoiseBudgetExhausted):
		return "noise_exhausted"
	case errors.Is(cause, ir.ErrLevelExhausted):
		return "level_exhausted"
	case errors.Is(cause, ErrResidueMissing):
		return "residue_missing"
	case errors.Is(cause, ErrCorruptCiphertext):
		return "corrupt_ciphertext"
	case errors.Is(cause, ErrInvalidPlaintext):
		return "invalid_plaintext"
	}
	return "other"
}
