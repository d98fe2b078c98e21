package henn

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"cnnhe/internal/ckks"
	"cnnhe/internal/ckksbig"
	"cnnhe/internal/henn/shard"
	"cnnhe/internal/nn"
)

// The shard parity suite: a genuinely cross-shard grid must agree with
// the plaintext model and with the single-ciphertext encrypted pipeline
// within the noise tolerance, because a row's sums over its blocks at the
// shared pre-rescale scale are exact ring additions. (A 1×1 grid IS the
// single-ciphertext plan — Compile lowers through it — so its bits are
// pinned by the golden digests of TestExecutorParityGolden*.)

// rotsUnion merges rotation sets so both sides of a parity comparison
// run against engines with identical key material (key generation
// consumes PRNG state, so differing rotation sets would desynchronize
// the encryption randomness even with equal seeds).
func rotsUnion(a, b []int) []int {
	return union(append(append([]int(nil), a...), b...))
}

func rnsMakerRots(t *testing.T, rots []int, depth, logN int, bits []int, seed int64) engineMaker {
	params, err := ckks.NewParameters(logN, bits, 60, 1, math.Exp2(30))
	if err != nil {
		t.Fatal(err)
	}
	if depth > params.MaxLevel() {
		t.Fatalf("depth %d exceeds max level %d", depth, params.MaxLevel())
	}
	return func(t *testing.T) Engine {
		e, err := NewRNSEngine(params, rots, seed)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
}

func bigMakerRots(t *testing.T, rots []int, logN int, bits []int, seed int64) engineMaker {
	params, err := ckks.NewParameters(logN, bits, 60, 1, math.Exp2(30))
	if err != nil {
		t.Fatal(err)
	}
	bp, err := ckksbig.FromRNSParameters(params)
	if err != nil {
		t.Fatal(err)
	}
	return func(t *testing.T) Engine {
		e, err := NewBigEngine(bp, rots, seed)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
}

// assertLogitsClose compares logits within tolerance and demands an
// unchanged argmax, without comparing reports (for cross-shard runs,
// whose stage structure legitimately differs from the unsharded plan's).
func assertLogitsClose(t *testing.T, label string, want, got []float64, tol float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vs %d logits", label, len(want), len(got))
	}
	amW, amG := 0, 0
	for i := range want {
		if d := math.Abs(want[i] - got[i]); d > tol {
			t.Fatalf("%s: logit %d differs: %.17g vs %.17g (Δ=%g > %g)",
				label, i, want[i], got[i], want[i]-got[i], tol)
		}
		if want[i] > want[amW] {
			amW = i
		}
		if got[i] > got[amG] {
			amG = i
		}
	}
	if amW != amG {
		t.Fatalf("%s: argmax changed: %d vs %d", label, amW, amG)
	}
}

// TestShardParityTiny covers both backends on the tiny fixture: a
// genuinely cross-shard 2×1 grid against both the plaintext forward pass
// and the single-ciphertext encrypted logits.
func TestShardParityTiny(t *testing.T) {
	plan, err := Compile(tinyModel(1), 512)
	if err != nil {
		t.Fatal(err)
	}
	sp2, err := CompileSharded(tinyModel(1), 512, shard.Grid{Gy: 2, Gx: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sp2.NumShards() != 2 {
		t.Fatalf("2×1 grid: %d shards", sp2.NumShards())
	}
	// The 3×3 stride-2 convolution reads across the band boundary, so
	// the first stage must have recorded cross-shard fan-in.
	if sp2.Input.Halo < 1 {
		t.Fatalf("cross-shard conv recorded halo %d, want ≥1", sp2.Input.Halo)
	}
	rng := rand.New(rand.NewSource(20))
	img := testImage(rng, plan.InputDim)
	plain := plainForward(tinyModel(1), img, 1, 8, 8)
	bits := []int{40, 30, 30, 30, 30}
	rots := rotsUnion(plan.Rotations(), sp2.Rotations())
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		mk   engineMaker
	}{
		{"rns", rnsMakerRots(t, rots, plan.Depth, 10, bits, 701)},
		{"big", bigMakerRots(t, rots, 10, bits, 702)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lgP, _, err := plan.InferCtx(ctx, tc.mk(t), img)
			if err != nil {
				t.Fatal(err)
			}
			lgS, rep, err := sp2.InferCtx(ctx, tc.mk(t), img)
			if err != nil {
				t.Fatal(err)
			}
			assertLogitsClose(t, "cross-shard vs plan", lgP, lgS, 1e-3)
			assertLogitsClose(t, "cross-shard vs plain", plain, lgS, 0.05)
			if len(rep.Stages) == 0 {
				t.Fatal("cross-shard run produced no stage report")
			}
		})
	}
}

// TestShardInputValidation pins the typed-error contract shared with
// Plan.InferCtx.
func TestShardInputValidation(t *testing.T) {
	sp, err := CompileSharded(tinyModel(1), 512, shard.Grid{Gy: 1, Gx: 1})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(tinyModel(1), 512)
	if err != nil {
		t.Fatal(err)
	}
	e := rnsEngineFor(t, plan, 10, []int{40, 30, 30, 30, 30})
	_, _, err = sp.InferCtx(context.Background(), e, make([]float64, sp.InputDim+1))
	if !errors.Is(err, ErrBadInput) {
		t.Fatalf("oversized image: %v, want ErrBadInput", err)
	}
}

// TestShardedCrossShardDense is the cross-shard block-row round-trip
// property test: random dense maps whose flat inputs are
// forced across 2–4 shards (every output row draws from every input
// shard) evaluated encrypted and compared to the plaintext product.
func TestShardedCrossShardDense(t *testing.T) {
	ctx := context.Background()
	// The manifest's slot count must match the engine's (diagonal
	// extraction wraps modulo slots), so multi-shard flat inputs need
	// dimensions beyond the 512 slots of a logN=10 engine.
	for _, tc := range []struct {
		seed  int64
		in    int
		out   int
		slots int
		gx    int
	}{
		{31, 1200, 7, 512, 3},
		{32, 1001, 10, 512, 2}, // uneven bands: 501/500
		{33, 1600, 16, 512, 4},
	} {
		rng := rand.New(rand.NewSource(tc.seed))
		m := &nn.Model{Layers: []nn.Layer{nn.NewDense(rng, tc.in, tc.out)}}
		sp, err := CompileSharded(m, tc.slots, shard.Grid{Gy: 1, Gx: tc.gx})
		if err != nil {
			t.Fatal(err)
		}
		if sp.NumShards() != tc.gx {
			t.Fatalf("seed %d: %d shards, want %d", tc.seed, sp.NumShards(), tc.gx)
		}
		img := testImage(rng, tc.in)
		want := plainForward(m, img, 1, 1, tc.in)
		bits := []int{40, 30, 30}
		params, err := ckks.NewParameters(10, bits, 60, 1, math.Exp2(30))
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewRNSEngine(params, sp.Rotations(), tc.seed+100)
		if err != nil {
			t.Fatal(err)
		}
		lg, _, err := sp.InferCtx(ctx, e, img)
		if err != nil {
			t.Fatalf("seed %d: %v", tc.seed, err)
		}
		assertLogitsClose(t, "cross-shard dense", want, lg, 0.02)
	}
}

// paperShardModel builds the paper architectures as models (shared with
// paperModel, which compiles them).
func paperShardModel(arch string) *nn.Model {
	rng := rand.New(rand.NewSource(7))
	var m *nn.Model
	deg := 3
	switch arch {
	case "cnn1":
		m = nn.NewCNN1(rng)
	case "cnn2":
		m = nn.NewCNN2(rng)
	case "cnn3":
		m = nn.NewCNN3(rng)
		deg = 4
	}
	hm := m.ReplaceReLUWithSLAF(deg, 1)
	for _, l := range hm.Layers {
		if s, ok := l.(*nn.SLAF); ok {
			s.FitReLU(3)
		}
	}
	return hm
}
