package guard_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"cnnhe/internal/ckks"
	"cnnhe/internal/guard"
	"cnnhe/internal/telemetry"
)

// TestExecutorReportNoiseBits is the regression pin for StageReport
// noise population on the executor path: every recorded stage of a
// guarded InferCtx run (which lowers to the op-graph executor) must
// carry a real NoiseBits value, not NaN — the guard reports NoiseBits
// and the executor must consult it for stage outputs.
func TestExecutorReportNoiseBits(t *testing.T) {
	plan := tinyPlan(t)
	e := rnsEngine(t, plan, 15)
	g := guard.New(e, guard.DefaultConfig())
	img := testImage(1, plan.InputDim)
	_, rep, err := plan.InferCtx(context.Background(), g, img)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Stages) == 0 {
		t.Fatal("no stage rows in report")
	}
	for _, st := range rep.Stages {
		if math.IsNaN(st.NoiseBits) {
			t.Errorf("stage %q: NoiseBits is NaN on the executor path", st.Stage)
		}
		if st.Level < 0 || st.Scale <= 0 {
			t.Errorf("stage %q: level %d scale %v", st.Stage, st.Level, st.Scale)
		}
	}
}

// TestGuardGauges checks the per-stage health gauges and the threshold
// gauge a guarded run publishes when telemetry is enabled.
func TestGuardGauges(t *testing.T) {
	telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(false)

	plan := tinyPlan(t)
	e := rnsEngine(t, plan, 15)
	g := guard.New(e, guard.DefaultConfig())
	img := testImage(1, plan.InputDim)
	if _, _, err := plan.InferCtx(context.Background(), g, img); err != nil {
		t.Fatal(err)
	}

	snap := telemetry.Default().Snapshot()
	min, ok := snap.Family("cnnhe_guard_min_noise_bits")
	if !ok || len(min.Series) != 1 {
		t.Fatal("cnnhe_guard_min_noise_bits not published")
	}
	if got := min.Series[0].Value; got != guard.DefaultMinNoiseBits {
		t.Errorf("min_noise_bits gauge %v, want %v", got, float64(guard.DefaultMinNoiseBits))
	}
	noise, ok := snap.Family("cnnhe_guard_stage_noise_bits")
	if !ok || len(noise.Series) == 0 {
		t.Fatal("cnnhe_guard_stage_noise_bits not published")
	}
	for _, s := range noise.Series {
		if s.Label("stage") == "" {
			t.Error("noise gauge series without a stage label")
		}
		if math.IsNaN(s.Value) {
			t.Errorf("stage %q noise gauge is NaN", s.Label("stage"))
		}
	}
	for _, name := range []string{"cnnhe_guard_stage_level", "cnnhe_guard_stage_scale_log2"} {
		if f, ok := snap.Family(name); !ok || len(f.Series) == 0 {
			t.Errorf("%s not published", name)
		}
	}
}

// failuresSince returns how many guard aborts of class were counted
// since before.
func failuresSince(t *testing.T, before telemetry.Snapshot, class string) float64 {
	t.Helper()
	f, ok := telemetry.Default().Snapshot().Sub(before).Family("cnnhe_guard_failures_total")
	if !ok {
		t.Fatal("cnnhe_guard_failures_total not registered")
	}
	for _, s := range f.Series {
		if s.Label("class") == class {
			return s.Value
		}
	}
	return 0
}

// TestGuardFailureCounter checks aborts are counted by class: an op
// abort, and a graph the noise budget refuses.
func TestGuardFailureCounter(t *testing.T) {
	telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(false)

	before := telemetry.Default().Snapshot()
	plan := tinyPlan(t)
	e := rnsEngine(t, plan, 15)
	g := guard.New(e, guard.DefaultConfig())
	ct := e.EncryptVec([]float64{1}).(*ckks.Ciphertext)
	ct.C1.Coeffs[0] = nil
	if err := catchGuard(t, func() { g.DecryptVec(ct) }); !errors.Is(err, guard.ErrResidueMissing) {
		t.Fatalf("want ErrResidueMissing, got %v", err)
	}
	if n := failuresSince(t, before, "residue_missing"); n != 1 {
		t.Errorf("failures_total{class=residue_missing} = %v, want 1", n)
	}

	before = telemetry.Default().Snapshot()
	drowned := drownedPlan(t)
	_, _, err := drowned.Prepare(guard.New(rnsEngine(t, drowned, 77), guard.DefaultConfig()))
	if !errors.Is(err, guard.ErrNoiseBudgetExhausted) {
		t.Fatalf("want ErrNoiseBudgetExhausted, got %v", err)
	}
	if n := failuresSince(t, before, "noise_exhausted"); n != 1 {
		t.Errorf("failures_total{class=noise_exhausted} = %v, want 1", n)
	}
}
