package guard_test

import (
	"context"
	"math"
	"testing"

	"cnnhe/internal/ckks"
	"cnnhe/internal/guard"
	"cnnhe/internal/henn"
	"cnnhe/internal/nn"
	"cnnhe/internal/primes"
)

// BenchmarkGuardOverhead prices the guard on one shipped-CNN1 image at
// logN 11 on [40,26×6,40]+60: the same plan, engine and image, run raw
// and behind guard.New. `make guard-overhead` runs it with -benchmem.
func BenchmarkGuardOverhead(b *testing.B) {
	model, _, err := nn.LoadModel("../../models/cnn1-slaf-n6000-s1.gob")
	if err != nil {
		b.Fatal(err)
	}
	plan, err := henn.Compile(model, 1<<10)
	if err != nil {
		b.Fatal(err)
	}
	params, err := ckks.NewParameters(11, primes.PaperShape(8, 26), 60, 1, math.Exp2(26))
	if err != nil {
		b.Fatal(err)
	}
	if err := plan.CheckDepth(params.MaxLevel()); err != nil {
		b.Fatal(err)
	}
	raw, err := henn.NewRNSEngine(params, plan.Rotations(), 8)
	if err != nil {
		b.Fatal(err)
	}
	img := testImage(7, plan.InputDim)
	for _, leg := range []struct {
		name string
		e    henn.Engine
	}{
		{"raw", raw},
		{"guarded", guard.New(raw, guard.DefaultConfig())},
	} {
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
