package henn

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// TestBatchParityWithSingleInference: InferBatchCtx over B packed images
// must match B independent single-image InferCtx runs on the unbatched
// plan, for B ∈ {1, 2, max}. The tiled plan evaluates blockdiag(M, …, M)
// rather than M, so logits agree within CKKS approximation error, not
// bit-for-bit.
func TestBatchParityWithSingleInference(t *testing.T) {
	m := tinyModel(41)
	base, err := Compile(m, 512)
	if err != nil {
		t.Fatal(err)
	}
	const maxBatch = 4
	for _, B := range []int{1, 2, maxBatch} {
		t.Run(string(rune('0'+B)), func(t *testing.T) {
			bp, err := CompileBatched(m, 512, B)
			if err != nil {
				t.Fatal(err)
			}
			e := rnsEngineFor(t, bp.Plan, 10, []int{40, 30, 30, 30, 30})
			rng := rand.New(rand.NewSource(int64(42 + B)))
			images := make([][]float64, B)
			for i := range images {
				images[i] = testImage(rng, 64)
			}
			got, rep, err := bp.InferBatchCtx(context.Background(), e, images)
			if err != nil {
				t.Fatal(err)
			}
			if rep == nil || rep.Eval <= 0 || len(rep.Stages) == 0 {
				t.Fatalf("batch report not filled: %+v", rep)
			}
			// Reference: one engine per run so PRNG state does not couple
			// the batched and single paths.
			ref := rnsEngineFor(t, base, 10, []int{40, 30, 30, 30, 30})
			for b, img := range images {
				want, _, err := base.InferCtx(context.Background(), ref, img)
				if err != nil {
					t.Fatalf("single inference %d: %v", b, err)
				}
				if len(got[b]) != len(want) {
					t.Fatalf("image %d: %d logits vs %d", b, len(got[b]), len(want))
				}
				for i := range want {
					if math.Abs(got[b][i]-want[i]) > 0.05 {
						t.Fatalf("B=%d image %d logit %d: batched %g single %g",
							B, b, i, got[b][i], want[i])
					}
				}
				if got[b].Argmax() != want.Argmax() {
					t.Fatalf("B=%d image %d prediction mismatch", B, b)
				}
			}
		})
	}
}

// TestBatchErrorCases: the batched entry points classify caller mistakes
// as ErrBadInput before any ciphertext work.
func TestBatchErrorCases(t *testing.T) {
	m := tinyModel(43)
	if _, err := CompileBatched(m, 512, 3); err == nil {
		t.Fatal("non-divisor batch must be rejected")
	}
	bp, err := CompileBatched(m, 512, 4)
	if err != nil {
		t.Fatal(err)
	}
	e := rnsEngineFor(t, bp.Plan, 10, []int{40, 30, 30, 30, 30})
	rng := rand.New(rand.NewSource(44))

	// Image wider than the block.
	wide := testImage(rng, bp.BlockSize+1)
	if _, _, err := bp.InferBatchCtx(context.Background(), e, [][]float64{wide}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("oversize image: want ErrBadInput, got %v", err)
	}
	// Too many images for the batch.
	over := make([][]float64, bp.Batch+1)
	for i := range over {
		over[i] = testImage(rng, 64)
	}
	if _, _, err := bp.InferBatchCtx(context.Background(), e, over); !errors.Is(err, ErrBadInput) {
		t.Fatalf("overfull batch: want ErrBadInput, got %v", err)
	}
	// Empty batch.
	if _, _, err := bp.InferBatchCtx(context.Background(), e, nil); !errors.Is(err, ErrBadInput) {
		t.Fatalf("empty batch: want ErrBadInput, got %v", err)
	}
	// The report names the failing stage even on validation errors.
	_, rep, _ := bp.InferBatchCtx(context.Background(), e, nil)
	if rep == nil || rep.FailedStage != "pack" {
		t.Fatalf("want FailedStage pack, got %+v", rep)
	}
}

// TestBatchContextCancellation: a cancelled context aborts the batched
// evaluation with the context's error and a named failed stage.
func TestBatchContextCancellation(t *testing.T) {
	m := tinyModel(45)
	bp, err := CompileBatched(m, 512, 2)
	if err != nil {
		t.Fatal(err)
	}
	e := rnsEngineFor(t, bp.Plan, 10, []int{40, 30, 30, 30, 30})
	rng := rand.New(rand.NewSource(46))
	images := [][]float64{testImage(rng, 64), testImage(rng, 64)}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, rep, err := bp.InferBatchCtx(ctx, e, images)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if rep == nil || rep.FailedStage == "" {
		t.Fatalf("report should name the failed stage, got %+v", rep)
	}
}

func TestCompileBatchedValidation(t *testing.T) {
	m := tinyModel(31)
	if _, err := CompileBatched(m, 512, 3); err == nil {
		t.Fatal("batch must divide slots")
	}
	// Block too small for the model's 64-dim input.
	if _, err := CompileBatched(m, 512, 16); err == nil {
		t.Fatal("expected block-size error for batch 16 (block 32 < dim 64)")
	}
	bp, err := CompileBatched(m, 512, 4) // block 128 ≥ 64
	if err != nil {
		t.Fatal(err)
	}
	if bp.BlockSize != 128 || bp.Batch != 4 {
		t.Fatalf("unexpected layout %+v", bp)
	}
	if bp.Plan.Depth != 4 {
		t.Fatalf("batching must not change depth: %d", bp.Plan.Depth)
	}
}

func TestBatchedInferenceMatchesPlaintext(t *testing.T) {
	m := tinyModel(33)
	bp, err := CompileBatched(m, 512, 4)
	if err != nil {
		t.Fatal(err)
	}
	e := rnsEngineFor(t, bp.Plan, 10, []int{40, 30, 30, 30, 30})
	rng := rand.New(rand.NewSource(34))
	images := [][]float64{
		testImage(rng, 64), testImage(rng, 64), testImage(rng, 64), testImage(rng, 64),
	}
	logits, rep, err := bp.InferBatchCtx(context.Background(), e, images)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Eval <= 0 {
		t.Fatal("latency not measured")
	}
	for b, img := range images {
		want := plainForward(m, img, 1, 8, 8)
		for i := range want {
			if math.Abs(logits[b][i]-want[i]) > 0.05 {
				t.Fatalf("image %d logit %d: got %g want %g", b, i, logits[b][i], want[i])
			}
		}
	}
}

func TestBatchedPartialBatch(t *testing.T) {
	m := tinyModel(35)
	bp, err := CompileBatched(m, 512, 4)
	if err != nil {
		t.Fatal(err)
	}
	e := rnsEngineFor(t, bp.Plan, 10, []int{40, 30, 30, 30, 30})
	rng := rand.New(rand.NewSource(36))
	images := [][]float64{testImage(rng, 64), testImage(rng, 64)}
	logits, _, err := bp.InferBatchCtx(context.Background(), e, images)
	if err != nil {
		t.Fatal(err)
	}
	if len(logits) != 2 {
		t.Fatalf("want 2 results, got %d", len(logits))
	}
	for b, img := range images {
		want := plainForward(m, img, 1, 8, 8)
		if logits[b].Argmax() != Logits(want).Argmax() {
			t.Fatalf("image %d prediction mismatch", b)
		}
	}
	// Overfull batch rejected.
	six := append(images, images...)
	six = append(six, images...)
	if _, _, err := bp.InferBatchCtx(context.Background(), e, six); err == nil {
		t.Fatal("expected error for overfull batch")
	}
}

func TestBatchOfOneMatchesPlain(t *testing.T) {
	m := tinyModel(37)
	bp, err := CompileBatched(m, 512, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(m, 512)
	if err != nil {
		t.Fatal(err)
	}
	e := rnsEngineFor(t, plan, 10, []int{40, 30, 30, 30, 30})
	rng := rand.New(rand.NewSource(38))
	img := testImage(rng, 64)
	a, _ := plan.Infer(e, img)
	bs, _, err := bp.InferBatchCtx(context.Background(), e, [][]float64{img})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Abs(a[i]-bs[0][i]) > 0.02 {
			t.Fatalf("batch-of-one differs at logit %d", i)
		}
	}
}
