package faults_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"cnnhe/internal/ckks"
	"cnnhe/internal/ckksbig"
	"cnnhe/internal/faults"
	"cnnhe/internal/guard"
	"cnnhe/internal/henn"
	"cnnhe/internal/henn/ir"
	"cnnhe/internal/nn"
)

// tinyModel mirrors the henn test fixture: Conv(1→2, 3×3, s2) → SLAF →
// Flatten → Dense on 8×8 inputs, depth 4.
func tinyModel(seed int64) *nn.Model {
	rng := rand.New(rand.NewSource(seed))
	conv := nn.NewConv2D(rng, 1, 2, 3, 2, 0, 8, 8)
	flat := conv.OutC * conv.OutH() * conv.OutW()
	m := &nn.Model{Layers: []nn.Layer{
		conv,
		nn.NewReLU(),
		nn.NewFlatten(),
		nn.NewDense(rng, flat, 4),
	}}
	hm := m.ReplaceReLUWithSLAF(3, 1)
	for _, l := range hm.Layers {
		if s, ok := l.(*nn.SLAF); ok {
			s.FitReLU(3)
		}
	}
	return hm
}

func testImage(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	img := make([]float64, n)
	for i := range img {
		img[i] = float64(rng.Intn(256))
	}
	return img
}

// TestFaultsDetectedAndClassified drives every injector kind through a
// guarded inference on both backends and asserts the fault is (a)
// detected — inference errors instead of returning logits — and (b)
// classified — the error wraps the kind's dedicated sentinel and carries
// stage/op attribution: a guard StageError's op, or, for a skewed scale
// the executor finds against the graph, the graph op's kind.
func TestFaultsDetectedAndClassified(t *testing.T) {
	plan, err := henn.Compile(tinyModel(15), 512)
	if err != nil {
		t.Fatal(err)
	}
	img := testImage(3, plan.InputDim)
	params, err := ckks.NewParameters(10, []int{40, 30, 30, 30, 30}, 60, 1, math.Exp2(30))
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.CheckDepth(params.MaxLevel()); err != nil {
		t.Fatal(err)
	}
	bigParams, err := ckksbig.FromRNSParameters(params)
	if err != nil {
		t.Fatal(err)
	}

	engines := map[string]func() henn.Engine{
		"rns": func() henn.Engine {
			e, err := henn.NewRNSEngine(params, plan.Rotations(), 501)
			if err != nil {
				t.Fatal(err)
			}
			return e
		},
		"big": func() henn.Engine {
			e, err := henn.NewBigEngine(bigParams, plan.Rotations(), 501)
			if err != nil {
				t.Fatal(err)
			}
			return e
		},
	}

	cases := []struct {
		name   string
		inj    faults.Injection
		target error
		// wantOp is the op the guard should attribute the failure to
		// ("" to skip the check, e.g. for deadline faults that surface at
		// whichever op follows the stall).
		wantOp string
		// graphOp is the kind of the graph op the executor names when it
		// raises the failure itself (no StageError).
		graphOp string
	}{
		{
			name:   "corrupt-limb",
			inj:    faults.Injection{Kind: faults.CorruptLimb, Op: "MulRelin", Seed: 11},
			target: guard.ErrCorruptCiphertext,
			wantOp: "MulRelin",
		},
		{
			name:   "drop-residue",
			inj:    faults.Injection{Kind: faults.DropResidue, Op: "Rescale", Seed: 12},
			target: guard.ErrResidueMissing,
			wantOp: "Rescale",
		},
		{
			name:    "skew-scale",
			inj:     faults.Injection{Kind: faults.SkewScale, Op: "MulPlainPt", SkewFactor: 1.01},
			target:  ir.ErrScaleDrift,
			graphOp: "MulPlain",
		},
		{
			name:   "panic-op",
			inj:    faults.Injection{Kind: faults.PanicOp, Op: "MulRelin"},
			target: guard.ErrEnginePanic,
			wantOp: "MulRelin",
		},
		{
			name:   "delay-op",
			inj:    faults.Injection{Kind: faults.DelayOp, Delay: 300 * time.Millisecond},
			target: context.DeadlineExceeded,
		},
	}

	for engName, mkEngine := range engines {
		engName, mkEngine := engName, mkEngine
		t.Run(engName, func(t *testing.T) {
			base := mkEngine()
			for _, tc := range cases {
				tc := tc
				t.Run(tc.name, func(t *testing.T) {
					ctx := context.Background()
					inj := faults.Wrap(base, tc.inj)
					g := guard.New(inj, guard.DefaultConfig())
					if tc.inj.Kind == faults.DelayOp {
						// Pay the one-time lowering/encoding cost before the
						// clock starts: the stall must hit a ciphertext op,
						// not graph preparation.
						if err := plan.Warm(g); err != nil {
							t.Fatal(err)
						}
						var cancel context.CancelFunc
						ctx, cancel = context.WithTimeout(ctx, 50*time.Millisecond)
						defer cancel()
					}

					logits, rep, err := plan.InferCtx(ctx, g, img)
					if err == nil {
						t.Fatalf("fault %v was silently absorbed: logits %v", tc.inj.Kind, logits)
					}
					if !inj.Fired() {
						t.Fatalf("injector never fired (error was %v)", err)
					}
					if !errors.Is(err, tc.target) {
						t.Fatalf("fault %v misclassified: want %v in chain, got %v", tc.inj.Kind, tc.target, err)
					}
					// Every fault class maps to its own sentinel and no other.
					for _, other := range cases {
						if other.target != tc.target && errors.Is(err, other.target) {
							t.Fatalf("error %v also matches %v — classes are not distinct", err, other.target)
						}
					}
					// Guard-detected faults carry op attribution via
					// StageError; every fault's stage is rep.FailedStage,
					// which the error text names.
					if rep == nil || rep.FailedStage == "" {
						t.Fatalf("report should name the failed stage, got %+v", rep)
					}
					if !strings.Contains(err.Error(), rep.FailedStage) {
						t.Fatalf("error %q does not name the failed stage %q", err, rep.FailedStage)
					}
					var se *guard.StageError
					if tc.wantOp != "" {
						if !errors.As(err, &se) {
							t.Fatalf("error %v does not carry a StageError", err)
						}
						if se.Op != tc.wantOp {
							t.Fatalf("fault attributed to op %q, want %q", se.Op, tc.wantOp)
						}
					}
					if tc.graphOp != "" {
						if errors.As(err, &se) {
							t.Fatalf("error %v carries a guard StageError; the executor raises this class", err)
						}
						if !strings.Contains(err.Error(), "("+tc.graphOp+")") {
							t.Fatalf("error %q does not name graph op %s", err, tc.graphOp)
						}
					}
				})
			}
		})
	}
}

// TestInjectorDeterminism: the same seed corrupts the same position, so
// two runs of the same injection fail at the same stage and op.
func TestInjectorDeterminism(t *testing.T) {
	plan, err := henn.Compile(tinyModel(15), 512)
	if err != nil {
		t.Fatal(err)
	}
	img := testImage(3, plan.InputDim)
	params, err := ckks.NewParameters(10, []int{40, 30, 30, 30, 30}, 60, 1, math.Exp2(30))
	if err != nil {
		t.Fatal(err)
	}
	run := func() *guard.StageError {
		e, err := henn.NewRNSEngine(params, plan.Rotations(), 501)
		if err != nil {
			t.Fatal(err)
		}
		g := guard.New(faults.Wrap(e, faults.Injection{Kind: faults.CorruptLimb, Op: "Rescale", Nth: 2, Seed: 99}), guard.DefaultConfig())
		_, _, ierr := plan.InferCtx(context.Background(), g, img)
		var se *guard.StageError
		if !errors.As(ierr, &se) {
			t.Fatalf("expected StageError, got %v", ierr)
		}
		return se
	}
	a, b := run(), run()
	if a.Stage != b.Stage || a.Op != b.Op || a.Error() != b.Error() {
		t.Fatalf("injection not deterministic: %v vs %v", a, b)
	}
}

// TestInjectorFiresOnce: after delivering its fault the injector becomes
// a transparent passthrough.
func TestInjectorFiresOnce(t *testing.T) {
	plan, err := henn.Compile(tinyModel(15), 512)
	if err != nil {
		t.Fatal(err)
	}
	params, err := ckks.NewParameters(10, []int{40, 30, 30, 30, 30}, 60, 1, math.Exp2(30))
	if err != nil {
		t.Fatal(err)
	}
	e, err := henn.NewRNSEngine(params, plan.Rotations(), 501)
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.Wrap(e, faults.Injection{Kind: faults.SkewScale, Op: "EncryptVec"})
	ct := inj.EncryptVec([]float64{1})
	if !inj.Fired() {
		t.Fatal("injector did not fire on the matching op")
	}
	skewed := inj.ScaleOf(ct)
	ct2 := inj.EncryptVec([]float64{1})
	if got := inj.ScaleOf(ct2); got != e.Scale() {
		t.Fatalf("second call still corrupted: scale %v, want %v", got, e.Scale())
	}
	if skewed == e.Scale() {
		t.Fatal("first call was not corrupted")
	}
}
