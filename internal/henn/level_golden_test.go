package henn

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"cnnhe/internal/ckks"
	"cnnhe/internal/dataset"
	"cnnhe/internal/henn/ir"
	"cnnhe/internal/henn/ir/opt"
	"cnnhe/internal/nn"
	"cnnhe/internal/primes"
	"cnnhe/internal/ring"
)

// The level and transform goldens for the shipped CNN1 (depth 7) on
// paper-shaped chains [40, 26×(k−2), 40] + a 60-bit special at logN 11:
// the 13-prime chain is Table II's and cnn1_single's, with 5 spare
// levels; the 8-prime chain has none. The transform golden also counts
// the benchmark's CNN3 on the 10-prime chain, which cnn3_sharded runs.

// loadCNN1 loads the shipped CNN1 and compiles it for params' slot
// count.
func loadCNN1(t *testing.T, params ckks.Parameters) (*nn.Model, *Plan) {
	t.Helper()
	model, _, err := nn.LoadModel("../../models/cnn1-slaf-n6000-s1.gob")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(model, params.Slots())
	if err != nil {
		t.Fatal(err)
	}
	return model, plan
}

// paperParams is the paper-shaped chain of k primes at logN 11.
func paperParams(t *testing.T, k int) ckks.Parameters {
	t.Helper()
	params, err := ckks.NewParameters(11, primes.PaperShape(k, 26), 60, 1, math.Exp2(26))
	if err != nil {
		t.Fatal(err)
	}
	return params
}

// TestLevelProfileGolden pins where the spare levels go. Stage 0's step
// opens with one DropLevel per input, down to level rest+m, where rest
// levels feed the later stages and m is the fewest primes whose widths
// add up to the top prime's. Every stage-0 MulPlain encodes at the
// product of those m primes, m Rescales close the stage at level rest,
// and no DropLevel follows it. On the 13-prime paper chain m = 2 (two
// 26-bit primes stand in for the 40-bit top one); the 8-prime chain has
// no spare level, so stage 0 stays on the top prime with no DropLevel;
// Table IV's equal-width 366-bit split into 12 primes has spare levels
// but m = 1. The Fig. 5 front-end with 3 digit parts profiles like the
// plain plan on the 13-prime chain: one DropLevel per part, and its
// recomposition, inside stage 0's giant-step sums, adds no Rescale.
// Symbolic: no keys.
func TestLevelProfileGolden(t *testing.T) {
	sweep, err := ckks.SweepParameters(11, 366, 12, math.Exp2(30))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		params ckks.Parameters
		parts  int // digit parts of the RNS front-end; 0 is the plain plan
		m      int // primes stage 0 spends
		level0 int // the level stage 0 reads
	}{
		{"paper k=13", paperParams(t, 13), 0, 2, 8},
		{"paper k=8", paperParams(t, 8), 0, 1, 7},
		{"equal-width k=12", sweep, 0, 1, 7},
		{"rns3 paper k=13", paperParams(t, 13), 3, 2, 8},
	} {
		params := tc.params
		_, plan := loadCNN1(t, params)
		if tc.parts > 0 {
			if plan, err = NewRNSPlan(plan, tc.parts); err != nil {
				t.Fatal(err)
			}
		}
		rest, level0 := plan.Depth-1, tc.level0
		if rest+tc.m != level0 {
			t.Fatalf("%s: CNN1 depth %d leaves stage 0 at level %d, want %d", tc.name, plan.Depth, rest+tc.m, level0)
		}
		ptScale := 1.0
		for i := range tc.m {
			ptScale *= params.QiFloat(level0 - i)
		}
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
			inStage0 := func(id int) bool { return strings.HasPrefix(g.Stages[g.Ops[id].Stage].Name, "stage 0 ") }
			drops, mulPlains, rescales := 0, 0, 0
			for _, op := range g.Ops {
				name := g.Stages[op.Stage].Name
				switch {
				case strings.HasPrefix(name, "encrypt"):
				case inStage0(op.ID):
					switch op.Kind {
					case ir.OpDropLevel:
						drops++
						if a := g.Ops[op.Args[0]]; a.Kind != ir.OpEncrypt || op.Level != level0 {
							t.Errorf("%s: stage 0 drops %v to level %d, want the input to %d", tc.name, a.Kind, op.Level, level0)
						}
						continue
					case ir.OpMulPlain:
						mulPlains++
						if op.PtScale != ptScale {
							t.Errorf("%s: stage 0 MulPlain at 2^%.4f, want 2^%.4f", tc.name, math.Log2(op.PtScale), math.Log2(ptScale))
						}
					case ir.OpRescale:
						rescales++
					}
					for _, a := range op.Args {
						if l := g.Ops[a].Level; l > level0 {
							t.Errorf("%s: stage 0 %v reads level %d, want ≤ %d", tc.name, op.Kind, l, level0)
						}
					}
				default:
					if op.Level > rest {
						t.Errorf("%s: %s %v at level %d, want ≤ %d", tc.name, name, op.Kind, op.Level, rest)
					}
					if op.Kind == ir.OpDropLevel && inStage0(op.Args[0]) {
						t.Errorf("%s: %s drops stage 0's output", tc.name, name)
					}
				}
			}
			wantDrops := 0
			if level0 < params.MaxLevel() {
				wantDrops = g.Inputs
			}
			if drops != wantDrops || mulPlains == 0 || rescales != tc.m {
				t.Errorf("%s: stage 0 has %d DropLevels, %d MulPlains, %d Rescales; want %d, > 0, %d",
					tc.name, drops, mulPlains, rescales, wantDrops, tc.m)
			}
			// One encrypt stage per input, then stage 0.
			if o := g.Ops[g.Stages[g.Inputs].Out]; o.Kind != ir.OpRescale || o.Level != rest || o.Scale != params.Scale {
				t.Errorf("%s: stage 0 ends on %v at level %d, scale 2^%.4f; want Rescale at %d, 2^%.4f",
					tc.name, o.Kind, o.Level, math.Log2(o.Scale), rest, math.Log2(params.Scale))
			}
			if l := g.Ops[g.Output].Level; l != 0 {
				t.Errorf("%s: output at level %d, want 0", tc.name, l)
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

// loadCNN3 loads the benchmark's CIFAR-10 CNN3 and compiles it over the
// smallest shard grid that fits params' slots: 4 shards at logN 11, as
// in cnn3_sharded.
func loadCNN3(t *testing.T, params ckks.Parameters) (*nn.Model, *Plan) {
	t.Helper()
	model, _, err := nn.LoadModel("../../benchmark/testdata/cnn3-slaf-n1024-s1.gob")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := CompileShardedAuto(model, params.Slots())
	if err != nil {
		t.Fatal(err)
	}
	return model, plan
}

// TestImageTransformCountGolden pins the limb NTTs and INTTs of one
// image — encode, encrypt, the optimized graph and decrypt — on a serial
// ring, counted after Warm so plaintext pre-encoding is excluded. Counts
// repeat exactly, so they gate "fewer transforms" where wall time cannot;
// a count may only go down. CNN1 on the 13-prime chain was 10,056 (8,903
// NTT + 1,153 INTT) while stage 0 ran on all 13 limbs and spare levels
// stayed to the end, 7,158 (6,210 + 948) with them dropped after stage
// 0, and 4,686 (3,864 + 822) while its dense stages ran the slot-wide
// BSGS instead of folding at their 128- and 16-slot periods; the 8-prime
// chain, which has no spare level, was 4,364 (3,576 + 788) then. CNN3
// over 4 shards on the 10-prime chain (the cnn3_sharded plan) was 23,139
// (19,876 + 3,263) while every block of a row rotated its own giant
// steps, and 11,805 (10,158 + 1,647) before its last stage folded.
// CNN1 behind the Fig. 5 front-end with 3 digit parts on the 13-prime
// chain was 9,638 while each part ran stage 0 on its own, rotating and
// rescaling before a separate weighted recomposition; as one block row
// over the parts it pays one rotation per giant step and one set of
// rescales.
//
// CNN1 on every paper chain k = 8 … 13 (Table IV's sweep) is pinned with
// the level its stage 0 reads and the number of key-switch digits there
// (len(params.Digits(level))), which is what moves the count: k = 9 … 13
// all run stage 0 at level 8 and differ by 4 transforms per prime, but
// on k = 9 level 8 is the 40-bit top prime, which cannot pair with a
// 26-bit one under the digit budget, so it splits into 6 digits where
// the others have 5, and k = 9 is the costliest chain (4,090 against
// 3,774 … 3,786).
//
// The same engines then hold a precision floor, so a count cannot fall
// by giving up bits: the RMS logit error against the plaintext model must
// stay at or above minBits. A CNN1 first linear stage on one 26-bit
// plaintext prime reads ≈8 bits.
func TestImageTransformCountGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("CNN key generation skipped in short mode")
	}
	loadCNN1RNS3 := func(t *testing.T, params ckks.Parameters) (*nn.Model, *Plan) {
		model, plan := loadCNN1(t, params)
		rp, err := NewRNSPlan(plan, 3)
		if err != nil {
			t.Fatal(err)
		}
		return model, rp
	}
	for _, tc := range []struct {
		name      string
		k         int
		load      func(*testing.T, ckks.Parameters) (*nn.Model, *Plan)
		images    dataset.Dataset
		ntt, intt int
		level0    int // the level stage 0 reads
		digits    int // key-switch digits at level0
		minBits   float64
	}{
		{"cnn1 k=13", 13, loadCNN1, dataset.SyntheticMNIST(8, 3), 3172, 614, 8, 5, 11.5},
		{"cnn1 k=12", 12, loadCNN1, dataset.SyntheticMNIST(8, 3), 3168, 614, 8, 5, 11.5},
		{"cnn1 k=11", 11, loadCNN1, dataset.SyntheticMNIST(8, 3), 3164, 614, 8, 5, 11.5},
		{"cnn1 k=10", 10, loadCNN1, dataset.SyntheticMNIST(8, 3), 3160, 614, 8, 5, 11.5},
		{"cnn1 k=9", 9, loadCNN1, dataset.SyntheticMNIST(8, 3), 3476, 614, 8, 6, 11.5},
		{"cnn1 k=8", 8, loadCNN1, dataset.SyntheticMNIST(8, 3), 2884, 580, 7, 5, 11.5},
		{"cnn1 rns3 k=13", 13, loadCNN1RNS3, dataset.SyntheticMNIST(8, 3), 4474, 756, 8, 5, 11.5},
		{"cnn3 4 shards k=10", 10, loadCNN3, dataset.SyntheticCIFAR10(4, 3), 9966, 1551, 9, 6, 16.5},
	} {
		params := paperParams(t, tc.k)
		model, plan := tc.load(t, params)
		e, err := NewRNSEngine(params, plan.Rotations(), 7)
		if err != nil {
			t.Fatal(err)
		}
		e.Ctx.R.Parallel = false
		if err := plan.Warm(e); err != nil {
			t.Fatal(err)
		}
		pr, _, err := plan.prepare(e)
		if err != nil {
			t.Fatal(err)
		}
		level0, digits := stage0Level(pr.Graph()), 0
		if level0 >= 0 {
			digits = len(params.Digits(level0))
		}
		t.Logf("%s: stage 0 at level %d, %d key-switch digits", tc.name, level0, digits)
		if level0 != tc.level0 || digits != tc.digits {
			t.Errorf("%s: stage 0 at level %d with %d digits, want level %d with %d",
				tc.name, level0, digits, tc.level0, tc.digits)
		}
		var ntt, intt atomic.Int64
		subRings := append([]ring.SubRing(nil), e.Ctx.R.SubRings...)
		for i, sr := range subRings {
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
		t.Logf("%s: %d limb transforms (%d NTT, %d INTT)", tc.name, n+it, n, it)
		if n != tc.ntt || it != tc.intt {
			t.Errorf("%s: %d NTT + %d INTT = %d per image, want %d + %d = %d",
				tc.name, n, it, n+it, tc.ntt, tc.intt, tc.ntt+tc.intt)
		}

		copy(e.Ctx.R.SubRings, subRings)
		var sumSq float64
		var count int
		for i := 0; i < tc.images.Len(); i++ {
			img := tc.images.Image(i)
			got, _, err := plan.InferCtx(context.Background(), e, img)
			if err != nil {
				t.Fatal(err)
			}
			want := plainForward(model, img, tc.images.C, tc.images.H, tc.images.W)
			for j, w := range want {
				d := got[j] - w
				sumSq += d * d
				count++
			}
		}
		bits := -math.Log2(math.Sqrt(sumSq / float64(count)))
		t.Logf("%s: RMS logit error 2^-%.2f over %d images", tc.name, bits, tc.images.Len())
		if bits < tc.minBits {
			t.Errorf("%s: RMS logit error 2^-%.2f, want at most 2^-%.2f", tc.name, bits, tc.minBits)
		}
	}
}

// stage0Level is the level stage 0 computes at: the highest level any of
// its ops other than a DropLevel produces (-1 for a graph without one).
func stage0Level(g *ir.Graph) int {
	level := -1
	for _, op := range g.Ops {
		if strings.HasPrefix(g.Stages[op.Stage].Name, "stage 0 ") && op.Kind != ir.OpDropLevel && op.Level > level {
			level = op.Level
		}
	}
	return level
}
