package henn

import (
	"context"
	"math/rand"
	"testing"

	"cnnhe/internal/henn/shard"
	"cnnhe/internal/telemetry"
)

// TestInferCountsEveryFrontEnd pins cnnhe_infer_total: it rises by
// exactly one per inference on every front-end of the one plan type —
// plain, RNS digits, sharded, and a packed batch (one evaluation).
func TestInferCountsEveryFrontEnd(t *testing.T) {
	telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(false)
	infers := inferTel().infers

	m := tinyModel(1)
	plan, err := Compile(m, 512)
	if err != nil {
		t.Fatal(err)
	}
	rns, err := NewRNSPlan(plan, 3)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := CompileSharded(m, 512, shard.Grid{Gy: 2, Gx: 1})
	if err != nil {
		t.Fatal(err)
	}
	batched, err := CompileBatched(m, 512, 2)
	if err != nil {
		t.Fatal(err)
	}
	e := rnsMakerRots(t, rotsUnion(plan.Rotations(), rotsUnion(sharded.Rotations(), batched.Plan.Rotations())),
		plan.Depth, 10, []int{40, 30, 30, 30, 30}, 901)(t)
	img := testImage(rand.New(rand.NewSource(90)), plan.InputDim)
	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		infer func() error
	}{
		{"plain", func() error { _, _, err := plan.InferCtx(ctx, e, img); return err }},
		{"rns", func() error { _, _, err := rns.InferCtx(ctx, e, img); return err }},
		{"sharded", func() error { _, _, err := sharded.InferCtx(ctx, e, img); return err }},
		{"batch", func() error { _, _, err := batched.InferBatchCtx(ctx, e, [][]float64{img, img}); return err }},
	} {
		before := infers.Value()
		if err := tc.infer(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := infers.Value() - before; got != 1 {
			t.Errorf("%s: cnnhe_infer_total rose by %d, want 1", tc.name, got)
		}
	}
}
