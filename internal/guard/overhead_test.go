package guard_test

import (
	"context"
	"math"
	"runtime"
	"testing"

	"cnnhe/internal/ckks"
	"cnnhe/internal/guard"
	"cnnhe/internal/henn"
	"cnnhe/internal/nn"
	"cnnhe/internal/primes"
)

// overheadLeg is one engine the shipped-CNN1 image runs on.
type overheadLeg struct {
	name string
	e    henn.Engine
}

// cnn1Image builds the shipped CNN1 plan at logN 11 on [40,26×6,40]+60,
// one RNS engine for it, run raw and behind guard.New, and one image.
func cnn1Image(tb testing.TB) (*henn.Plan, []overheadLeg, []float64) {
	tb.Helper()
	model, _, err := nn.LoadModel("../../models/cnn1-slaf-n6000-s1.gob")
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := henn.Compile(model, 1<<10)
	if err != nil {
		tb.Fatal(err)
	}
	params, err := ckks.NewParameters(11, primes.PaperShape(8, 26), 60, 1, math.Exp2(26))
	if err != nil {
		tb.Fatal(err)
	}
	if err := plan.CheckDepth(params.MaxLevel()); err != nil {
		tb.Fatal(err)
	}
	raw, err := henn.NewRNSEngine(params, plan.Rotations(), 8)
	if err != nil {
		tb.Fatal(err)
	}
	legs := []overheadLeg{{"raw", raw}, {"guarded", guard.New(raw, guard.DefaultConfig())}}
	return plan, legs, testImage(7, plan.InputDim)
}

// BenchmarkGuardOverhead prices the guard on one shipped-CNN1 image at
// logN 11 on [40,26×6,40]+60: the same plan, engine and image, run raw
// and behind guard.New. `make guard-overhead` runs it with -benchmem.
func BenchmarkGuardOverhead(b *testing.B) {
	plan, legs, img := cnn1Image(b)
	for _, leg := range legs {
		b.Run(leg.name, func(b *testing.B) {
			// The plan holds the last engine's prepared graph; prepare
			// this leg's before the clock starts.
			if err := plan.Warm(leg.e); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := plan.InferCtx(context.Background(), leg.e, img); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// imageAllocBudget is the most one shipped-CNN1 image may allocate at
// logN 11 on [40,26×6,40]. The executor hands every intermediate
// ciphertext back to the RNS engine at its last use, and results are
// built from those limbs, so an image allocates ≈2 MB raw or guarded;
// before that it was ≈38 MB, a fresh ciphertext per result.
const imageAllocBudget = 8 << 20

// TestImageAllocBudget pins what one CNN1 image allocates, raw and
// guarded: three images after a warm-up image, read from
// runtime.MemStats.TotalAlloc. Skipped under -race, whose sync.Pool
// drops a share of the recycled limbs on purpose.
func TestImageAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops recycled limbs at random")
	}
	const images = 3
	plan, legs, img := cnn1Image(t)
	ctx := context.Background()
	for _, leg := range legs {
		if err := plan.Warm(leg.e); err != nil {
			t.Fatal(err)
		}
		if _, _, err := plan.InferCtx(ctx, leg.e, img); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < images; i++ {
			if _, _, err := plan.InferCtx(ctx, leg.e, img); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perImage := (after.TotalAlloc - before.TotalAlloc) / images
		t.Logf("%s: %.2f MB per image", leg.name, float64(perImage)/(1<<20))
		if perImage > imageAllocBudget {
			t.Errorf("%s: one image allocated %.2f MB, budget %d MB", leg.name,
				float64(perImage)/(1<<20), imageAllocBudget>>20)
		}
	}
}
