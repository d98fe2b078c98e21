package henn

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"cnnhe/internal/ckks"
	"cnnhe/internal/henn/ir"
	"cnnhe/internal/henn/ir/opt"
	"cnnhe/internal/nn"
	"cnnhe/internal/primes"
	"cnnhe/internal/ring"
)

// The level and transform goldens for the shipped CNN1 (depth 7) on
// paper-shaped chains [40, 26×(k−2), 40] + a 60-bit special at logN 11:
// the 13-prime chain is Table II's and cnn1_single's, with 5 spare
// levels; the 8-prime chain has none.

// paperCNN1 compiles the shipped CNN1 and its paper-shaped chain of k
// primes.
func paperCNN1(t *testing.T, k int) (*Plan, ckks.Parameters) {
	t.Helper()
	model, _, err := nn.LoadModel("../../models/cnn1-slaf-n6000-s1.gob")
	if err != nil {
		t.Fatal(err)
	}
	params, err := ckks.NewParameters(11, primes.PaperShape(k, 26), 60, 1, math.Exp2(26))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(model, params.Slots())
	if err != nil {
		t.Fatal(err)
	}
	return plan, params
}

// TestLevelProfileGolden pins where the spare levels go: stage 0 runs on
// the top level, so its plaintext scale is the 40-bit top prime, and one
// DropLevel then leaves the remaining stages exactly the levels they
// consume, ending at level 0. A chain without spare levels gains no
// DropLevel. Symbolic: no keys.
func TestLevelProfileGolden(t *testing.T) {
	for _, tc := range []struct {
		k, stage1Top int
		drops        int // DropLevels of a stage-0 output
	}{
		{13, 6, 1},
		{8, 6, 0},
	} {
		plan, params := paperCNN1(t, tc.k)
		e := ParamsOnlyEngine("ckks-rns", params.Slots(), params.MaxLevel(), params.Scale, params.QiFloat)
		lowered, err := plan.Lower(e)
		if err != nil {
			t.Fatal(err)
		}
		res, err := opt.Optimize(e, lowered, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []*ir.Graph{lowered, res.Graph} {
			top := params.MaxLevel()
			drops := 0
			for _, op := range g.Ops {
				name := g.Stages[op.Stage].Name
				switch {
				case strings.HasPrefix(name, "encrypt"):
				case strings.HasPrefix(name, "stage 0 "):
					for _, a := range op.Args {
						if l := g.Ops[a].Level; l != top {
							t.Errorf("k=%d: stage 0 %v reads level %d, want %d", tc.k, op.Kind, l, top)
						}
					}
				default:
					if op.Level > tc.stage1Top {
						t.Errorf("k=%d: %s %v at level %d, want ≤ %d", tc.k, name, op.Kind, op.Level, tc.stage1Top)
					}
					if op.Kind == ir.OpDropLevel && strings.HasPrefix(g.Stages[g.Ops[op.Args[0]].Stage].Name, "stage 0 ") {
						drops++
					}
				}
			}
			if drops != tc.drops {
				t.Errorf("k=%d: %d DropLevels after stage 0, want %d", tc.k, drops, tc.drops)
			}
			if l := g.Ops[g.Output].Level; l != 0 {
				t.Errorf("k=%d: output at level %d, want 0", tc.k, l)
			}
		}
	}
}

// countingSubRing counts the limb transforms that pass through one limb
// of a ring. It hides the concrete limb type, so ring.InnerProduct takes
// its eager path: slower, bit-identical, and transform-free either way.
type countingSubRing struct {
	ring.SubRing
	ntt, intt *atomic.Int64
}

func (c countingSubRing) NTT(a []uint64)  { c.ntt.Add(1); c.SubRing.NTT(a) }
func (c countingSubRing) INTT(a []uint64) { c.intt.Add(1); c.SubRing.INTT(a) }

// ReduceFrom unwraps a counting source: the limb backends dispatch on the
// source's concrete type.
func (c countingSubRing) ReduceFrom(src ring.SubRing, a, out []uint64) {
	if s, ok := src.(countingSubRing); ok {
		src = s.SubRing
	}
	c.SubRing.ReduceFrom(src, a, out)
}

// TestImageTransformCountGolden pins the limb NTTs and INTTs of one CNN1
// image — encode, encrypt, the optimized graph and decrypt — on a serial
// ring, counted after Warm so plaintext pre-encoding is excluded. Counts
// repeat exactly, so they gate "fewer transforms" where wall time cannot;
// a count may only go down. Before spare levels were dropped after stage
// 0 the 13-prime chain cost 10,056 (8,903 NTT + 1,153 INTT); the 8-prime
// chain, which has no spare level, stays at 4,364.
func TestImageTransformCountGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("CNN1 key generation skipped in short mode")
	}
	for _, tc := range []struct {
		k         int
		ntt, intt int
	}{
		{13, 6210, 948},
		{8, 3576, 788},
	} {
		plan, params := paperCNN1(t, tc.k)
		e, err := NewRNSEngine(params, plan.Rotations(), 7)
		if err != nil {
			t.Fatal(err)
		}
		e.Ctx.R.Parallel = false
		if err := plan.Warm(e); err != nil {
			t.Fatal(err)
		}
		var ntt, intt atomic.Int64
		for i, sr := range e.Ctx.R.SubRings {
			e.Ctx.R.SubRings[i] = countingSubRing{SubRing: sr, ntt: &ntt, intt: &intt}
		}
		img := make([]float64, plan.InputDim)
		rng := rand.New(rand.NewSource(5))
		for i := range img {
			img[i] = float64(rng.Intn(256))
		}
		if _, _, err := plan.InferCtx(context.Background(), e, img); err != nil {
			t.Fatal(err)
		}
		n, it := int(ntt.Load()), int(intt.Load())
		t.Logf("k=%d: %d limb transforms (%d NTT, %d INTT)", tc.k, n+it, n, it)
		if n != tc.ntt || it != tc.intt {
			t.Errorf("k=%d: %d NTT + %d INTT = %d per image, want %d + %d = %d",
				tc.k, n, it, n+it, tc.ntt, tc.intt, tc.ntt+tc.intt)
		}
	}
}
