package guard

import (
	"context"
	"errors"
	"log/slog"
	"math"

	"cnnhe/internal/henn"
	"cnnhe/internal/henn/ir"
	"cnnhe/internal/telemetry"
)

// stageTel caches the per-stage gauges so the per-op hot path never
// takes the registry lock: gauges are resolved once per stage
// transition (BeginStage) and updated with plain atomic stores.
type stageTel struct {
	noise *telemetry.Gauge
	level *telemetry.Gauge
	scale *telemetry.Gauge
}

// telBeginStage resolves the per-stage gauges for name, or clears the
// current set when telemetry is disabled.
func (g *GuardedEngine) telBeginStage(name string) {
	if !telemetry.Enabled() {
		g.curTel.Store(nil)
		return
	}
	g.curTel.Store(g.stageTel(name))
}

// stageTel returns the gauges of stage name, registering them on first
// use.
func (g *GuardedEngine) stageTel(name string) *stageTel {
	g.telMu.Lock()
	defer g.telMu.Unlock()
	if g.stageTels == nil {
		g.stageTels = map[string]*stageTel{}
	}
	st, ok := g.stageTels[name]
	if !ok {
		r := telemetry.Default()
		l := telemetry.L("stage", name)
		st = &stageTel{
			noise: r.Gauge("cnnhe_guard_stage_noise_bits",
				"predicted noise budget (log2 scale/noise) of the stage's last op in graph order", l),
			level: r.Gauge("cnnhe_guard_stage_level",
				"ciphertext level of the stage's last op result", l),
			scale: r.Gauge("cnnhe_guard_stage_scale_log2",
				"log2 ciphertext scale of the stage's last op result", l),
		}
		g.stageTels[name] = st
	}
	return st
}

// telNoise publishes a graph's predicted noise budget per stage: the
// bits of each stage's last op in graph order.
func (g *GuardedEngine) telNoise(gr *ir.Graph, bits []float64) {
	if !telemetry.Enabled() {
		return
	}
	last := make([]int, len(gr.Stages))
	for i := range gr.Ops {
		last[gr.Ops[i].Stage] = i
	}
	for s, st := range gr.Stages {
		if gr.Ops[last[s]].Stage == s {
			g.stageTel(st.Name).noise.Set(bits[last[s]])
		}
	}
}

// telOut publishes the op result's level and scale onto the current
// stage's gauges.
func (g *GuardedEngine) telOut(ct henn.Ct, scale float64) {
	st := g.curTel.Load()
	if st == nil {
		return
	}
	st.scale.Set(math.Log2(scale))
	st.level.Set(float64(g.inner.Level(ct)))
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

// telFailure counts a guard abort by failure class and logs it with
// the run's trace identity so the abort can be joined to the request
// that caused it. Failures are rare, so the registry lookup and the
// log line both happen inline.
func (g *GuardedEngine) telFailure(cause error) {
	g.mu.Lock()
	stage := g.stage
	rctx := g.runCtx
	g.mu.Unlock()
	if rctx == nil {
		rctx = g.cfg.Ctx
	}
	args := []any{"class", failureClass(cause), "stage", stage, "err", cause.Error()}
	if tc, ok := telemetry.TraceContextFrom(rctx); ok {
		args = append(args, "trace_id", tc.TraceIDString(), "request_id", tc.SpanIDString())
	}
	slog.Warn("guard abort", args...)
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
	case errors.Is(cause, ErrLevelExhausted):
		return "level_exhausted"
	case errors.Is(cause, ErrScaleDrift):
		return "scale_drift"
	case errors.Is(cause, ErrResidueMissing):
		return "residue_missing"
	case errors.Is(cause, ErrCorruptCiphertext):
		return "corrupt_ciphertext"
	case errors.Is(cause, ErrInvalidPlaintext):
		return "invalid_plaintext"
	case errors.Is(cause, ErrEnginePanic):
		return "engine_panic"
	case errors.Is(cause, ErrForeignCiphertext):
		return "foreign_ciphertext"
	case errors.Is(cause, context.Canceled), errors.Is(cause, context.DeadlineExceeded):
		return "context"
	}
	return "other"
}
