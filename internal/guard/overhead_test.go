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
// built from those limbs, so an image allocates ≈1.75 MB raw or guarded;
// before that it was ≈38 MB, a fresh ciphertext per result.
const imageAllocBudget = 8 << 20

// guardAllocMargin is the most allocations a guarded image may make
// beyond the raw one. The guard's checks allocate nothing on a clean
// run: the legs measured 21,945 and 21,949 allocations per image at
// GOMAXPROCS 1, and within 22 of each other at GOMAXPROCS 2, where the
// limb free lists' per-processor caches move a few limbs either way
// (bytes move by up to ≈25 kB per image there, so the margin counts
// allocations, not bytes). A scan that allocated a big.Int per limb, as
// it once did, added ≈4,470 allocations per image; one allocation per
// scanned ciphertext would add ≈184.
const guardAllocMargin = 128

// TestImageAllocBudget pins what one CNN1 image allocates, raw and
// guarded: three images after a warm-up image, read from
// runtime.MemStats. Each leg's bytes must stay under imageAllocBudget,
// and the guarded leg's allocation count within guardAllocMargin of the
// raw one's. Skipped under -race, whose sync.Pool drops a share of the
// recycled limbs on purpose.
func TestImageAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops recycled limbs at random")
	}
	const images = 3
	plan, legs, img := cnn1Image(t)
	ctx := context.Background()
	allocs := make([]uint64, len(legs))
	for l, leg := range legs {
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
		allocs[l] = (after.Mallocs - before.Mallocs) / images
		t.Logf("%s: %d B, %d allocations per image", leg.name, perImage, allocs[l])
		if perImage > imageAllocBudget {
			t.Errorf("%s: one image allocated %.2f MB, budget %d MB", leg.name,
				float64(perImage)/(1<<20), imageAllocBudget>>20)
		}
	}
	if raw, guarded := allocs[0], allocs[1]; guarded > raw+guardAllocMargin {
		t.Errorf("a guarded image made %d allocations, %d more than a raw one; margin %d",
			guarded, guarded-raw, guardAllocMargin)
	}
}
