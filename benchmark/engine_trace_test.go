package main

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"cnnhe/internal/ckks"
	"cnnhe/internal/henn"
	"cnnhe/internal/henn/ir"
	"cnnhe/internal/nn"
)

// tinyModel is the henn test fixture: Conv(1→2, 3×3, s2) → SLAF →
// Flatten → Dense on 8×8 inputs, depth 4 — it fits TinyParameters.
func tinyModel(seed int64) *nn.Model {
	rng := rand.New(rand.NewSource(seed))
	conv := nn.NewConv2D(rng, 1, 2, 3, 2, 0, 8, 8)
	flat := conv.OutC * conv.OutH() * conv.OutW()
	m := &nn.Model{Layers: []nn.Layer{conv, nn.NewReLU(), nn.NewFlatten(), nn.NewDense(rng, flat, 4)}}
	hm := m.ReplaceReLUWithSLAF(3, 1)
	for _, l := range hm.Layers {
		if s, ok := l.(*nn.SLAF); ok {
			s.FitReLU(3)
		}
	}
	return hm
}

var tinyBits = []int{40, 30, 30, 30, 30}

func tinyParams(t testing.TB) ckks.Parameters {
	t.Helper()
	p, err := ckks.NewParameters(10, tinyBits, 60, 1, math.Exp2(30))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func randomPixels(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	px := make([]float64, n)
	for i := range px {
		px[i] = float64(rng.Intn(256))
	}
	return px
}

// TestTracedEngineParity proves the decorator changes nothing it
// measures: logits through it are bit-identical to the bare engine's,
// and the executor still sees the fused Recombine, so the op mix of a
// traced run is the op mix of an untraced one.
func TestTracedEngineParity(t *testing.T) {
	model := tinyModel(61)
	params := tinyParams(t)
	px := randomPixels(64, 5)

	infer := func(wrap bool) (henn.Logits, kindTotals, ir.Stats) {
		plan, err := henn.Compile(model, params.Slots())
		if err != nil {
			t.Fatal(err)
		}
		eng, err := henn.NewRNSEngine(params, plan.Rotations(), 601)
		if err != nil {
			t.Fatal(err)
		}
		var e henn.Engine = eng
		if wrap {
			e = newTracedEngine(eng, newRecorder())
		}
		res, err := plan.OptResult(e)
		if err != nil {
			t.Fatal(err)
		}
		// Count the inference only, not the preparation above.
		if wrap {
			tracedOf(e).enable(true)
		}
		logits, _, err := plan.InferCtx(context.Background(), e, px)
		if err != nil {
			t.Fatal(err)
		}
		var calls kindTotals
		if wrap {
			calls = tracedOf(e).totals()
		}
		return logits, calls, res.After
	}

	bare, _, _ := infer(false)
	traced, totals, stats := infer(true)
	if len(bare) != len(traced) {
		t.Fatalf("%d logits bare, %d traced", len(bare), len(traced))
	}
	for i := range bare {
		if math.Float64bits(bare[i]) != math.Float64bits(traced[i]) {
			t.Errorf("logit %d: bare %v, traced %v", i, bare[i], traced[i])
		}
	}

	calls := totals.Calls
	if stats.ByKind[ir.OpRecombine] == 0 {
		t.Fatal("fixture lost its recombine ops; the test no longer covers the Recombiner path")
	}
	want := map[engineKind]int{
		kindEncrypt: stats.ByKind[ir.OpEncrypt], kindDecrypt: 1,
		kindRotate:   stats.RotateCalls(),
		kindMulPlain: stats.ByKind[ir.OpMulPlain], kindAddPlain: stats.ByKind[ir.OpAddPlain],
		kindAdd: stats.ByKind[ir.OpAdd], kindRecombine: stats.ByKind[ir.OpRecombine],
		kindMulRelin: stats.ByKind[ir.OpMulRelin], kindRescale: stats.ByKind[ir.OpRescale],
		kindDropLevel: stats.ByKind[ir.OpDropLevel],
	}
	for k, n := range want {
		if int(calls[k]) != n {
			t.Errorf("%s: %d engine calls, optimized graph has %d", kindNames[k], calls[k], n)
		}
	}
}

// TestTracedEngineKeepsOptionalInterfaces: the decorator offers
// Recombine exactly when the backend does.
func TestTracedEngineKeepsOptionalInterfaces(t *testing.T) {
	params := tinyParams(t)
	full, err := henn.NewRNSEngine(params, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := newTracedEngine(full, nil).(ir.Recombiner); !ok {
		t.Error("decorator hides RNSEngine's Recombine")
	}
	evalOnly := henn.NewRNSEvalEngine(full.Ctx, nil, nil)
	if _, ok := newTracedEngine(evalOnly, nil).(ir.Recombiner); ok {
		t.Error("decorator invents a Recombine RNSEvalEngine does not have")
	}
	if got := tracedOf(newTracedEngine(full, nil)).Unwrap(); got != ir.Engine(full) {
		t.Error("Unwrap does not return the backend; guard.New could not find its noise model")
	}
}
