package henn

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"cnnhe/internal/ckks"
	"cnnhe/internal/ckksbig"
	"cnnhe/internal/nn"
	"cnnhe/internal/tensor"
)

// tinyModel builds a small SLAF CNN on 8×8 inputs:
// Conv(1→2, 3×3, s2) → SLAF(deg 3, per-channel) → Flatten → Dense(18→4).
// Depth = 1 + 2 + 1 = 4 levels.
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
			// Perturb the coefficients per unit so per-channel handling
			// is actually exercised.
			for u := 0; u < s.Units; u++ {
				for p := 0; p <= s.Degree; p++ {
					s.Coeffs.Data[u*(s.Degree+1)+p] *= 1 + 0.01*float64(u+p)
				}
			}
		}
	}
	return hm
}

// tinyModelBN adds a BatchNorm2D after the convolution to exercise folding.
func tinyModelBN(seed int64) *nn.Model {
	rng := rand.New(rand.NewSource(seed))
	conv := nn.NewConv2D(rng, 1, 2, 3, 2, 0, 8, 8)
	flat := conv.OutC * conv.OutH() * conv.OutW()
	bn := nn.NewBatchNorm2D(2)
	bn.RunMean = []float64{0.3, -0.2}
	bn.RunVar = []float64{1.5, 0.8}
	bn.Gamma.Data = []float64{1.2, 0.9}
	bn.Beta.Data = []float64{0.1, -0.1}
	m := &nn.Model{Layers: []nn.Layer{
		conv,
		bn,
		nn.NewReLU(),
		nn.NewFlatten(),
		nn.NewDense(rng, flat, 4),
	}}
	hm := m.ReplaceReLUWithSLAF(2, 1)
	for _, l := range hm.Layers {
		if s, ok := l.(*nn.SLAF); ok {
			s.FitReLU(3)
		}
	}
	return hm
}

func testImage(rng *rand.Rand, n int) []float64 {
	img := make([]float64, n)
	for i := range img {
		img[i] = float64(rng.Intn(256))
	}
	return img
}

// plainForward evaluates the model on normalized pixels.
func plainForward(m *nn.Model, image []float64, c, h, w int) []float64 {
	x := tensor.New(c, h, w)
	for i := range image {
		x.Data[i] = image[i] / 255
	}
	return m.Forward(x).Data
}

func rnsEngineFor(t testing.TB, plan *Plan, logN int, bits []int) *RNSEngine {
	t.Helper()
	p, err := ckks.NewParameters(logN, bits, 60, 1, math.Exp2(30))
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.CheckDepth(p.MaxLevel()); err != nil {
		t.Fatal(err)
	}
	e, err := NewRNSEngine(p, plan.Rotations(), 501)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestCompileTinyModel(t *testing.T) {
	m := tinyModel(1)
	plan, err := Compile(m, 512)
	if err != nil {
		t.Fatal(err)
	}
	if plan.InputDim != 64 {
		t.Fatalf("input dim %d", plan.InputDim)
	}
	if plan.OutputDim != 4 {
		t.Fatalf("output dim %d", plan.OutputDim)
	}
	if plan.Depth != 4 {
		t.Fatalf("depth %d want 4", plan.Depth)
	}
	if len(plan.Rotations()) == 0 {
		t.Fatal("no rotations collected")
	}
}

func TestCompileRejectsReLU(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := nn.NewCNN1(rng)
	if _, err := Compile(m, 2048); err == nil {
		t.Fatal("expected error compiling a ReLU model")
	}
}

// checkFolded asserts the folded linear contract over every slot of got:
// slot s holds y[s mod p] (y = M·x + b, rows long) and 0 where s mod p ≥
// rows.
func checkFolded(got, y []float64, p int, tol float64) error {
	for s, v := range got {
		var want float64
		if i := s % p; i < len(y) {
			want = y[i]
		}
		if math.Abs(v-want) > tol {
			return fmt.Errorf("slot %d (period %d, %d rows): got %g want %g", s, p, len(y), v, want)
		}
	}
	return nil
}

func TestLinearStageMatchesMatVec(t *testing.T) {
	// A single linear stage must reproduce M·x + b on the packed vector:
	// 10 rows fold to period 16, so every slot s holds (M·x+b)[s mod 16]
	// and the slots of rows 10…15 of each period hold 0.
	rng := rand.New(rand.NewSource(3))
	rows, cols, slots := 10, 20, 512
	mat := tensor.New(rows, cols)
	for i := range mat.Data {
		mat.Data[i] = rng.NormFloat64()
	}
	bias := make([]float64, rows)
	for i := range bias {
		bias[i] = rng.NormFloat64()
	}
	st, err := NewLinearStage("t", mat, bias, slots)
	if err != nil {
		t.Fatal(err)
	}
	if p := shapeOf([]*LinearStage{st}).p; p != 16 {
		t.Fatalf("period %d, want 16", p)
	}
	plan := &Plan{Slots: slots, InputDim: cols, OutputDim: rows, Depth: 1,
		Stages: []Stage{&ShardedLinear{Label: st.Label, Blocks: [][]*LinearStage{{st}}}}}

	e := rnsEngineFor(t, plan, 10, []int{40, 30, 30})
	x := make([]float64, cols)
	for i := range x {
		x[i] = rng.NormFloat64() * 2
	}
	ct := e.EncryptVec(x)
	out := st.Eval(e, ct)
	got := e.DecryptVec(out)
	y := tensor.MatVec(mat, x)
	for i := range y {
		y[i] += bias[i]
	}
	if err := checkFolded(got, y, 16, 1e-2); err != nil {
		t.Fatal(err)
	}
}

// TestFoldedLinearContract checks the folded contract on random stages at
// 64 slots: rows in [1, 64] (period 1 … 64, the last the unfolded case),
// random column counts and densities, and output rows of one or two
// blocks, each block reading its own ciphertext.
func TestFoldedLinearContract(t *testing.T) {
	const slots = 64
	params, err := ckks.NewParameters(7, []int{40, 30}, 60, 1, math.Exp2(30))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(slots)
		if seed%4 == 0 {
			rows = slots/2 + 1 + rng.Intn(slots/2) // period = slots
		}
		density := 0.05 + 0.95*rng.Float64()
		bias := make([]float64, rows)
		for i := range bias {
			bias[i] = rng.NormFloat64()
		}
		y := append([]float64(nil), bias...)
		var row []*LinearStage
		var xs [][]float64
		for range 1 + rng.Intn(2) {
			cols := 1 + rng.Intn(slots)
			m := tensor.New(rows, cols)
			m.Data[rng.Intn(len(m.Data))] = 1 // never all-zero
			for i := range m.Data {
				if rng.Float64() < density {
					m.Data[i] = rng.NormFloat64()
				}
			}
			blk, err := NewLinearStage("q", m, bias, slots)
			if err != nil {
				t.Error(err)
				return false
			}
			x := make([]float64, cols)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			for i, v := range tensor.MatVec(m, x) {
				y[i] += v
			}
			row = append(row, blk)
			xs = append(xs, x)
		}
		p := shapeOf(row).p
		if p < rows || p >= 2*rows || p&(p-1) != 0 {
			t.Errorf("rows %d: period %d is not the smallest power of two ≥ rows", rows, p)
			return false
		}
		seen[p] = true
		st := &ShardedLinear{Label: "q", Blocks: [][]*LinearStage{row}}
		e, err := NewRNSEngine(params, st.Rotations(), seed)
		if err != nil {
			t.Error(err)
			return false
		}
		in := make([]Ct, len(xs))
		for i, x := range xs {
			in[i] = e.EncryptVec(x)
		}
		if err := checkFolded(e.DecryptVec(st.Eval(e, in)[0]), y, p, 1e-3); err != nil {
			t.Errorf("seed %d, %d blocks: %v", seed, len(row), err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 24, Rand: rand.New(rand.NewSource(36))}); err != nil {
		t.Fatal(err)
	}
	if !seen[slots] || len(seen) < 3 {
		t.Fatalf("periods covered %v, want the unfolded %d and at least two folded", seen, slots)
	}
}

func TestActStageMatchesPolynomial(t *testing.T) {
	slots := 512
	s := nn.NewSLAF(3, 1)
	s.Coeffs.Data = []float64{0.25, -0.5, 0.125, 0.0625}
	st, err := NewActStage("t", s, 16, func(int) int { return 0 }, slots)
	if err != nil {
		t.Fatal(err)
	}
	plan := &Plan{Slots: slots, InputDim: 16, OutputDim: 16, Stages: []Stage{&ShardedAct{Acts: []*ActStage{st}}}, Depth: 2}
	e := rnsEngineFor(t, plan, 10, []int{40, 30, 30, 30})
	rng := rand.New(rand.NewSource(4))
	x := make([]float64, 16)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	ct := e.EncryptVec(x)
	out := st.Eval(e, ct)
	got := e.DecryptVec(out)
	for i := range x {
		v := x[i]
		want := 0.25 - 0.5*v + 0.125*v*v + 0.0625*v*v*v
		if math.Abs(got[i]-want) > 1e-2 {
			t.Fatalf("slot %d: got %g want %g", i, got[i], want)
		}
	}
}

func TestEndToEndTinyModelRNS(t *testing.T) {
	m := tinyModel(5)
	plan, err := Compile(m, 512)
	if err != nil {
		t.Fatal(err)
	}
	e := rnsEngineFor(t, plan, 10, []int{40, 30, 30, 30, 30})
	rng := rand.New(rand.NewSource(6))
	img := testImage(rng, 64)
	logits, lat := plan.Infer(e, img)
	if lat <= 0 {
		t.Fatal("latency not measured")
	}
	want := plainForward(m, img, 1, 8, 8)
	for i := range want {
		if math.Abs(logits[i]-want[i]) > 0.05 {
			t.Fatalf("logit %d: got %g want %g", i, logits[i], want[i])
		}
	}
}

func TestEndToEndTinyModelBNFolding(t *testing.T) {
	m := tinyModelBN(7)
	plan, err := Compile(m, 512)
	if err != nil {
		t.Fatal(err)
	}
	// BN must be folded: stage count is conv+bn, act, dense = 3.
	if len(plan.Stages) != 3 {
		t.Fatalf("stage count %d want 3 (BN folded)", len(plan.Stages))
	}
	e := rnsEngineFor(t, plan, 10, []int{40, 30, 30, 30, 30})
	rng := rand.New(rand.NewSource(8))
	img := testImage(rng, 64)
	logits, _ := plan.Infer(e, img)
	want := plainForward(m, img, 1, 8, 8)
	for i := range want {
		if math.Abs(logits[i]-want[i]) > 0.05 {
			t.Fatalf("logit %d: got %g want %g", i, logits[i], want[i])
		}
	}
}

func TestEndToEndTinyModelBig(t *testing.T) {
	m := tinyModel(9)
	plan, err := Compile(m, 512)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := ckks.NewParameters(10, []int{40, 30, 30, 30, 30}, 60, 1, math.Exp2(30))
	if err != nil {
		t.Fatal(err)
	}
	bp, err := ckksbig.FromRNSParameters(rp)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewBigEngine(bp, plan.Rotations(), 502)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	img := testImage(rng, 64)
	logits, _ := plan.Infer(e, img)
	want := plainForward(m, img, 1, 8, 8)
	for i := range want {
		if math.Abs(logits[i]-want[i]) > 0.05 {
			t.Fatalf("big engine logit %d: got %g want %g", i, logits[i], want[i])
		}
	}
}

func TestRNSPlanMatchesBasePlan(t *testing.T) {
	m := tinyModel(11)
	plan, err := Compile(m, 512)
	if err != nil {
		t.Fatal(err)
	}
	e := rnsEngineFor(t, plan, 10, []int{40, 30, 30, 30, 30})
	rng := rand.New(rand.NewSource(12))
	img := testImage(rng, 64)
	base, _ := plan.Infer(e, img)

	for _, k := range []int{1, 2, 3} {
		rp, err := NewRNSPlan(plan, k)
		if err != nil {
			t.Fatal(err)
		}
		if rp.Digits.Range() < 256 {
			t.Fatalf("k=%d digit range %d too small for pixels", k, rp.Digits.Range())
		}
		got, _ := rp.Infer(e, img)
		for i := range base {
			if math.Abs(got[i]-base[i]) > 0.05 {
				t.Fatalf("k=%d logit %d: %g vs base %g", k, i, got[i], base[i])
			}
		}
	}
}

func TestEvaluateEncrypted(t *testing.T) {
	m := tinyModel(15)
	plan, err := Compile(m, 512)
	if err != nil {
		t.Fatal(err)
	}
	e := rnsEngineFor(t, plan, 10, []int{40, 30, 30, 30, 30})
	rng := rand.New(rand.NewSource(16))
	var images [][]float64
	var labels []int
	for i := 0; i < 3; i++ {
		img := testImage(rng, 64)
		images = append(images, img)
		labels = append(labels, Logits(plainForward(m, img, 1, 8, 8)).Argmax())
	}
	acc, stats, err := plan.EvaluateEncrypted(e, images, labels, 3)
	if err != nil {
		t.Fatal(err)
	}
	if acc != 1.0 {
		t.Fatalf("encrypted accuracy %.2f should match plaintext labels", acc)
	}
	if stats.N != 3 || stats.Min <= 0 || stats.Avg < stats.Min || stats.Max < stats.Avg {
		t.Fatalf("bad stats %+v", stats)
	}
}

func TestInferCtxRejectsBadInput(t *testing.T) {
	m := tinyModel(15)
	plan, err := Compile(m, 512)
	if err != nil {
		t.Fatal(err)
	}
	e := rnsEngineFor(t, plan, 10, []int{40, 30, 30, 30, 30})
	_, rep, err := plan.InferCtx(context.Background(), e, make([]float64, plan.InputDim+1))
	if !errors.Is(err, ErrBadInput) {
		t.Fatalf("want ErrBadInput for mis-sized image, got %v", err)
	}
	if rep == nil {
		t.Fatal("report should be non-nil on failure")
	}

	images := [][]float64{make([]float64, plan.InputDim)}
	if _, _, err := plan.EvaluateEncrypted(e, images, nil, 1); !errors.Is(err, ErrBadInput) {
		t.Fatalf("want ErrBadInput for missing labels, got %v", err)
	}
	if _, _, err := plan.EvaluateEncrypted(e, nil, nil, 0); !errors.Is(err, ErrBadInput) {
		t.Fatalf("want ErrBadInput for empty batch, got %v", err)
	}
	bad := [][]float64{make([]float64, plan.InputDim-3)}
	if _, _, err := plan.EvaluateEncrypted(e, bad, []int{0}, 1); !errors.Is(err, ErrBadInput) {
		t.Fatalf("want ErrBadInput for mis-sized batch image, got %v", err)
	}

	// Pixel values: non-finite ones on every plan, and values the digit
	// front-end cannot decompose, are typed errors — never a panic, never
	// garbage logits.
	rp, err := NewRNSPlan(plan, 2)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := plan.Batched(2)
	if err != nil {
		t.Fatal(err)
	}
	withPixel := func(v float64) []float64 {
		img := make([]float64, plan.InputDim)
		img[5] = v
		return img
	}
	for _, tc := range []struct {
		name  string
		plan  *Plan
		pixel float64
	}{
		{"plain NaN", plan, math.NaN()},
		{"plain +Inf", plan, math.Inf(1)},
		{"plain -Inf", plan, math.Inf(-1)},
		{"rns NaN", rp, math.NaN()},
		{"rns -1", rp, -1},
		{"rns 256", rp, 256},
		{"rns 255.5", rp, 255.5},
	} {
		if _, rep, err := tc.plan.InferCtx(context.Background(), e, withPixel(tc.pixel)); !errors.Is(err, ErrBadInput) || rep == nil {
			t.Fatalf("%s: want ErrBadInput with a report, got %v", tc.name, err)
		}
	}
	if _, _, err := rp.InferCtx(context.Background(), e, withPixel(255.4)); err != nil {
		t.Fatalf("rns pixel 255.4 rounds into range, got %v", err)
	}
	if _, err := bp.PackBatch([][]float64{withPixel(1), withPixel(math.NaN())}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("PackBatch: want ErrBadInput for a NaN pixel, got %v", err)
	}
}

func TestInferCtxCancelled(t *testing.T) {
	m := tinyModel(15)
	plan, err := Compile(m, 512)
	if err != nil {
		t.Fatal(err)
	}
	e := rnsEngineFor(t, plan, 10, []int{40, 30, 30, 30, 30})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(5))
	_, rep, err := plan.InferCtx(ctx, e, testImage(rng, plan.InputDim))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if rep.FailedStage == "" {
		t.Fatal("report should name the failed stage")
	}
}

func TestLatencyStatsZeroSamples(t *testing.T) {
	s := newLatencyStats()
	s.finish()
	if s.Min != 0 || s.Max != 0 || s.Avg != 0 || s.N != 0 {
		t.Fatalf("zero-sample stats not rendered as zeros: %+v", s)
	}
	want := "min 0.00s max 0.00s avg 0.00s (n=0)"
	if got := s.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	// One sample still works as before.
	s2 := newLatencyStats()
	s2.add(2 * time.Second)
	s2.finish()
	if s2.Min != 2*time.Second || s2.Max != 2*time.Second || s2.Avg != 2*time.Second || s2.N != 1 {
		t.Fatalf("single-sample stats wrong: %+v", s2)
	}
}
