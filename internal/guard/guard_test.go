package guard_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"cnnhe/internal/ckks"
	"cnnhe/internal/ckksbig"
	"cnnhe/internal/faults"
	"cnnhe/internal/guard"
	"cnnhe/internal/henn"
	"cnnhe/internal/henn/exec"
	"cnnhe/internal/henn/ir"
	"cnnhe/internal/nn"
	"cnnhe/internal/primes"
	"cnnhe/internal/tensor"
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

func tinyPlan(t *testing.T) *henn.Plan {
	t.Helper()
	plan, err := henn.Compile(tinyModel(15), 512)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func testImage(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	img := make([]float64, n)
	for i := range img {
		img[i] = float64(rng.Intn(256))
	}
	return img
}

func rnsParams(t testing.TB, plan *henn.Plan) ckks.Parameters {
	t.Helper()
	p, err := ckks.NewParameters(10, []int{40, 30, 30, 30, 30}, 60, 1, math.Exp2(30))
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.CheckDepth(p.MaxLevel()); err != nil {
		t.Fatal(err)
	}
	return p
}

func rnsEngine(t testing.TB, plan *henn.Plan, seed int64) *henn.RNSEngine {
	t.Helper()
	e, err := henn.NewRNSEngine(rnsParams(t, plan), plan.Rotations(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// rnsEngineAndEval builds the full RNS engine rnsEngine would, from key
// material generated here, plus an evaluation-only engine on the same
// evaluation keys — the keyed route's server side for that client.
func rnsEngineAndEval(t testing.TB, plan *henn.Plan, seed int64) (*henn.RNSEngine, *henn.RNSEvalEngine) {
	t.Helper()
	ctx, err := ckks.NewContext(rnsParams(t, plan))
	if err != nil {
		t.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(ctx, seed)
	sk := kg.GenSecretKey()
	pk, rlk := kg.GenPublicKey(sk), kg.GenRelinearizationKey(sk)
	rtk := kg.GenRotationKeys(sk, plan.Rotations(), false)
	return henn.NewRNSEngineFromKeys(ctx, sk, pk, rlk, rtk, seed+1), henn.NewRNSEvalEngine(ctx, rlk, rtk)
}

func bigEngine(t testing.TB, plan *henn.Plan, seed int64) *henn.BigEngine {
	t.Helper()
	p, err := ckks.NewParameters(10, []int{40, 30, 30, 30, 30}, 60, 1, math.Exp2(30))
	if err != nil {
		t.Fatal(err)
	}
	bp, err := ckksbig.FromRNSParameters(p)
	if err != nil {
		t.Fatal(err)
	}
	e, err := henn.NewBigEngine(bp, plan.Rotations(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// catchGuard runs f and returns the error the guard aborted with.
func catchGuard(t *testing.T, f func()) error {
	t.Helper()
	var err error
	func() {
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			e, ok := r.(error)
			if !ok {
				t.Fatalf("guard panicked with non-error %v", r)
			}
			err = e
		}()
		f()
	}()
	if err == nil {
		t.Fatal("expected a guard abort, got none")
	}
	return err
}

// TestCleanRunIdentity: the guard observes but never alters ciphertexts,
// so a guarded inference on a same-seeded engine must produce logits
// bit-identical to the raw path — on both backends.
func TestCleanRunIdentity(t *testing.T) {
	plan := tinyPlan(t)
	img := testImage(3, plan.InputDim)
	engines := map[string]func(seed int64) henn.Engine{
		"rns": func(seed int64) henn.Engine { return rnsEngine(t, plan, seed) },
		"big": func(seed int64) henn.Engine { return bigEngine(t, plan, seed) },
	}
	for name, mk := range engines {
		t.Run(name, func(t *testing.T) {
			raw, _ := plan.Infer(mk(501), img)
			g := guard.New(mk(501), guard.DefaultConfig())
			got, rep, err := plan.InferCtx(context.Background(), g, img)
			if err != nil {
				t.Fatalf("guarded clean run failed: %v\n%s", err, rep)
			}
			if len(got) != len(raw) {
				t.Fatalf("logit count %d vs %d", len(got), len(raw))
			}
			for i := range got {
				if got[i] != raw[i] {
					t.Fatalf("logit %d differs: guarded %v raw %v", i, got[i], raw[i])
				}
			}
			if len(rep.Stages) == 0 {
				t.Fatal("report has no stages")
			}
			for _, st := range rep.Stages {
				if math.IsNaN(st.NoiseBits) || st.NoiseBits < guard.DefaultMinNoiseBits {
					t.Fatalf("stage %q noise bits %v out of range", st.Stage, st.NoiseBits)
				}
			}
			// Noise only accumulates: the final stage has the least margin.
			if first, last := rep.Stages[0], rep.Stages[len(rep.Stages)-1]; last.NoiseBits > first.NoiseBits {
				t.Fatalf("noise bits grew from %v to %v", first.NoiseBits, last.NoiseBits)
			}
		})
	}
}

// TestCleanRunIdentityShippedModel replays the acceptance scenario on the
// committed CNN1 model: guarded and raw logits must match exactly and
// the default budget must not trip.
func TestCleanRunIdentityShippedModel(t *testing.T) {
	if testing.Short() {
		t.Skip("shipped-model inference is slow")
	}
	model, arch, err := nn.LoadModel("../../models/cnn1-slaf-n6000-s1.gob")
	if err != nil {
		t.Fatal(err)
	}
	if arch != "cnn1" {
		t.Fatalf("unexpected arch %q", arch)
	}
	plan, err := henn.Compile(model, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	k := plan.Depth + 1
	if k < 13 {
		k = 13
	}
	params, err := ckks.NewParameters(11, primes.PaperShape(k, 26), 60, 1, math.Exp2(26))
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.CheckDepth(params.MaxLevel()); err != nil {
		t.Fatal(err)
	}
	img := testImage(7, plan.InputDim)

	e1, err := henn.NewRNSEngine(params, plan.Rotations(), 8)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := plan.Infer(e1, img)

	e2, err := henn.NewRNSEngine(params, plan.Rotations(), 8)
	if err != nil {
		t.Fatal(err)
	}
	g := guard.New(e2, guard.DefaultConfig())
	got, rep, err := plan.InferCtx(context.Background(), g, img)
	if err != nil {
		t.Fatalf("guarded clean run failed: %v\n%s", err, rep)
	}
	for i := range got {
		if got[i] != raw[i] {
			t.Fatalf("logit %d differs: guarded %v raw %v", i, got[i], raw[i])
		}
	}
}

// drownedPlan is the tiny plan with dense weights of 2^250, which cost
// every product of the last stage 250 bits of its budget.
func drownedPlan(t *testing.T) *henn.Plan {
	t.Helper()
	m := tinyModel(15)
	dense := m.Layers[len(m.Layers)-1].(*nn.Dense)
	for i := range dense.W.Data {
		dense.W.Data[i] *= math.Exp2(250)
	}
	plan, err := henn.Compile(m, 512)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestNoiseBudgetExhausted: a plan whose predicted precision falls below
// the floor is refused before anything runs — when it is prepared for a
// guard, and when a graph prepared on the bare engine is rebound to one —
// with a StageError naming the first op under the floor and its stage.
func TestNoiseBudgetExhausted(t *testing.T) {
	plan := drownedPlan(t)
	e := rnsEngine(t, plan, 77)
	g := guard.New(e, guard.DefaultConfig())
	refused := func(where string, err error) {
		t.Helper()
		var se *guard.StageError
		if !errors.Is(err, guard.ErrNoiseBudgetExhausted) || !errors.As(err, &se) {
			t.Fatalf("%s: want a StageError wrapping ErrNoiseBudgetExhausted, got %v", where, err)
		}
		last := plan.Stages[len(plan.Stages)-1].Describe()
		if se.Op != "MulPlain" || !strings.Contains(se.Stage, last) {
			t.Fatalf("%s: refused at stage %q, op %q; want the first MulPlain of stage %q", where, se.Stage, se.Op, last)
		}
	}
	_, _, err := plan.Prepare(g)
	refused("Prepare", err)

	bare, _, err := plan.Prepare(e)
	if err != nil {
		t.Fatalf("the bare engine has no noise budget, but Prepare failed: %v", err)
	}
	_, err = bare.On(g)
	refused("On", err)
}

// TestNoiseBoundCoversLogitError: the noise pass's budget is a bound —
// the logits of a guarded run are within 2^−bits of the output stage of
// the plaintext model's.
func TestNoiseBoundCoversLogitError(t *testing.T) {
	m := tinyModel(15)
	plan, err := henn.Compile(m, 512)
	if err != nil {
		t.Fatal(err)
	}
	img := testImage(52, plan.InputDim)
	logits, rep, err := plan.InferCtx(context.Background(), guard.New(rnsEngine(t, plan, 901), guard.DefaultConfig()), img)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, 8, 8)
	for i, px := range img {
		x.Data[i] = px / 255
	}
	want := m.Forward(x).Data
	maxErr := 0.0
	for i := range want {
		maxErr = math.Max(maxErr, math.Abs(logits[i]-want[i]))
	}
	bits := rep.Stages[len(rep.Stages)-1].NoiseBits
	if math.IsNaN(bits) || maxErr > math.Exp2(-bits) {
		t.Fatalf("measured logit error %.3g exceeds the predicted bound 2^%.2f", maxErr, -bits)
	}
	t.Logf("measured logit error %.3g, predicted bound 2^%.2f", maxErr, -bits)
}

// lossyRescale is a backend whose Rescale also drops a level: a
// well-formed ciphertext the guard's scan passes, one level below the
// graph's.
type lossyRescale struct{ *henn.RNSEngine }

func (e lossyRescale) Unwrap() henn.Engine { return e.RNSEngine }

func (e lossyRescale) Rescale(ct henn.Ct) henn.Ct {
	return e.RNSEngine.DropLevel(e.RNSEngine.Rescale(ct), 1)
}

// TestLevelExhausted: a guarded run whose engine leaves a result below
// the level the graph derived for it fails with ir.ErrLevelExhausted,
// raised by the executor and naming the op and its stage.
func TestLevelExhausted(t *testing.T) {
	plan := tinyPlan(t)
	g := guard.New(lossyRescale{rnsEngine(t, plan, 78)}, guard.DefaultConfig())
	_, rep, err := plan.InferCtx(context.Background(), g, testImage(8, plan.InputDim))
	if !errors.Is(err, ir.ErrLevelExhausted) {
		t.Fatalf("want ir.ErrLevelExhausted, got %v", err)
	}
	if rep == nil || rep.FailedStage == "" || !strings.Contains(err.Error(), rep.FailedStage) ||
		!strings.Contains(err.Error(), "(Rescale)") {
		t.Fatalf("error %v does not name the Rescale op and the failed stage (report %+v)", err, rep)
	}
}

// TestInvalidPlaintext: NaN/Inf and over-long plaintext operands are
// rejected before they reach the encoder.
func TestInvalidPlaintext(t *testing.T) {
	plan := tinyPlan(t)
	g := guard.New(rnsEngine(t, plan, 79), guard.DefaultConfig())
	err := catchGuard(t, func() { g.EncryptVec([]float64{1, math.NaN()}) })
	if !errors.Is(err, guard.ErrInvalidPlaintext) {
		t.Fatalf("want ErrInvalidPlaintext for NaN, got %v", err)
	}

	g2 := guard.New(rnsEngine(t, plan, 80), guard.DefaultConfig())
	err = catchGuard(t, func() {
		ct := g2.EncryptVec([]float64{1})
		g2.MulPlainVecAtScale(ct, make([]float64, g2.Slots()+1), g2.Scale())
	})
	if !errors.Is(err, guard.ErrInvalidPlaintext) {
		t.Fatalf("want ErrInvalidPlaintext for oversized vector, got %v", err)
	}
}

// TestReset: a guard that failed runs a clean inference next, with no
// reset — the reuse pattern the serving loop depends on (a fresh guard
// would invalidate the engine-keyed prepared-graph cache). Reset is a
// no-op that returns nil.
func TestReset(t *testing.T) {
	plan := tinyPlan(t)
	e := rnsEngine(t, plan, 91)
	g := guard.New(rnsEngine(t, plan, 91), guard.DefaultConfig())

	// Fail an op with a corrupt ciphertext.
	raw := e.EncryptVec([]float64{1}).(*ckks.Ciphertext)
	raw.C0.Coeffs[0][0] = ^uint64(0)
	first := catchGuard(t, func() { g.DecryptVec(raw) })
	if !errors.Is(first, guard.ErrCorruptCiphertext) {
		t.Fatalf("want ErrCorruptCiphertext, got %v", first)
	}
	if err := g.Reset(); err != nil {
		t.Fatalf("Reset must return nil, got %v", err)
	}

	// The same guard now completes a clean inference end to end.
	logits, _, err := plan.InferCtx(context.Background(), g, testImage(7, plan.InputDim))
	if err != nil {
		t.Fatalf("inference after a failed op failed: %v", err)
	}
	if len(logits) != plan.OutputDim {
		t.Fatalf("inference after a failed op returned %d logits", len(logits))
	}
}

// TestCancellation: a cancelled context aborts a guarded inference at
// the next op boundary with the context's error.
func TestCancellation(t *testing.T) {
	plan := tinyPlan(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := guard.New(rnsEngine(t, plan, 82), guard.DefaultConfig())
	_, rep, err := plan.InferCtx(ctx, g, testImage(4, plan.InputDim))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if rep == nil || rep.FailedStage == "" {
		t.Fatalf("report should name the failed stage, got %+v", rep)
	}
}

// fusedLeg is one guarded engine the fused-call tests run on, plus the
// full engine whose keys encrypt its inputs (adopted, as on the keyed
// route) and decrypt its results.
type fusedLeg struct {
	g    *guard.GuardedEngine
	full *henn.RNSEngine
}

// fusedLegs are the two RNS engines a guard delegates the fused call to:
// the full engine, and the keyed route's evaluation-only engine on the
// same keys.
var fusedLegs = []string{"rns", "rns-eval"}

func newFusedLeg(t *testing.T, plan *henn.Plan, seed int64, leg string) fusedLeg {
	t.Helper()
	full, eval := rnsEngineAndEval(t, plan, seed)
	var e henn.Engine = full
	if leg == "rns-eval" {
		e = eval
	}
	return fusedLeg{g: guard.New(e, guard.DefaultConfig()), full: full}
}

func (l fusedLeg) encrypt(t *testing.T, v []float64) henn.Ct {
	t.Helper()
	ct, err := l.g.Adopt(l.full.EncryptVec(v))
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

func (l fusedLeg) decrypt(ct henn.Ct) []float64 { return l.full.DecryptVec(guard.Underlying(ct)) }

// fixtureVecs draws the fixture's input vector and its five plaintexts.
func fixtureVecs(slots int) (in []float64, plains [5][]float64) {
	rng := rand.New(rand.NewSource(9))
	vec := func() []float64 {
		v := make([]float64, slots)
		for i := range v {
			v[i] = rng.Float64()*2 - 1
		}
		return v
	}
	in = vec()
	for i := range plains {
		plains[i] = vec()
	}
	return in, plains
}

// fixtureWeights are the fixture combination's integer weights.
var fixtureWeights = []int64{1, 1, 1, -3, 1}

// plainRecombineFixture builds, on a guarded engine, the operands of one
// fused linear-stage call: three products (the source and two hoisted
// rotations, each with its own plaintext) plus two already-multiplied
// terms, one of them weighted — the mixed-argument shape giant step 0 of a
// BSGS stage produces.
func plainRecombineFixture(t *testing.T, l fusedLeg) (args []henn.Ct, pts []henn.Pt, weights []int64) {
	t.Helper()
	g := l.g
	in, plains := fixtureVecs(g.Slots())
	ct := l.encrypt(t, in)
	specs := make([]henn.PlainSpec, len(plains))
	for i, v := range plains {
		specs[i] = henn.PlainSpec{Values: v, Level: g.MaxLevel(), Scale: g.Scale()}
	}
	enc := g.EncodeVecsAt(specs)
	rots := g.RotateMany(ct, []int{1, 3})
	args = []henn.Ct{ct, rots[1], rots[3], g.MulPlainPt(ct, enc[3]), g.MulPlainPt(rots[1], enc[4])}
	pts = []henn.Pt{enc[0], enc[1], enc[2], nil, nil}
	return args, pts, fixtureWeights
}

// fixtureGraph is the fixture's computation as an op graph: the three
// products and two plain terms summed by one Recombine, or (chain) by a
// chain of two-argument Recombines, one per term after the first.
func fixtureGraph(g *guard.GuardedEngine, chain bool) *ir.Graph {
	level, scale := g.MaxLevel(), g.Scale()
	_, plains := fixtureVecs(g.Slots())
	gr := &ir.Graph{Slots: g.Slots(), Inputs: 1, Hoists: [][]int{{1, 2}},
		Stages: []ir.StageInfo{{Name: "fixture", Record: true}}}
	add := func(op ir.Op) int {
		op.ID = len(gr.Ops)
		if op.Kind != ir.OpRotate {
			op.Hoist = -1
		}
		gr.Ops = append(gr.Ops, op)
		return op.ID
	}
	mulPlain := func(arg, plain int) int {
		return add(ir.Op{Kind: ir.OpMulPlain, Args: []int{arg}, Plain: plains[plain], PtScale: scale,
			Level: level, Scale: scale * scale})
	}
	ct := add(ir.Op{Kind: ir.OpEncrypt, Level: level, Scale: scale})
	rot1 := add(ir.Op{Kind: ir.OpRotate, Args: []int{ct}, K: 1, Hoist: 0, Level: level, Scale: scale})
	rot3 := add(ir.Op{Kind: ir.OpRotate, Args: []int{ct}, K: 3, Hoist: 0, Level: level, Scale: scale})
	terms := []int{mulPlain(ct, 0), mulPlain(rot1, 1), mulPlain(rot3, 2), mulPlain(ct, 3), mulPlain(rot1, 4)}
	recombine := func(args []int, weights []int64) int {
		return add(ir.Op{Kind: ir.OpRecombine, Args: args, Weights: weights, Level: level, Scale: scale * scale})
	}
	out := terms[0]
	if chain {
		for i := 1; i < len(terms); i++ {
			out = recombine([]int{out, terms[i]}, []int64{1, fixtureWeights[i]})
		}
	} else {
		out = recombine(terms, fixtureWeights)
	}
	gr.Output, gr.Stages[0].Out = out, out
	return gr
}

// fixtureBits is the noise pass's budget for the fixture's result on g.
func fixtureBits(t *testing.T, g *guard.GuardedEngine, chain bool) float64 {
	t.Helper()
	gr := fixtureGraph(g, chain)
	if err := gr.Validate(); err != nil {
		t.Fatal(err)
	}
	bits, err := g.NoiseBits(gr)
	if err != nil {
		t.Fatal(err)
	}
	return bits[gr.Output]
}

// assertSameResult requires two guarded results to agree in ciphertext
// bits (through decryption), level and scale, and the noise pass to give
// the fixture's fused and chain graphs the same budget.
func assertSameResult(t *testing.T, what string, gl fusedLeg, got henn.Ct, wl fusedLeg, want henn.Ct) {
	t.Helper()
	if gl.g.Level(got) != wl.g.Level(want) || gl.g.ScaleOf(got) != wl.g.ScaleOf(want) {
		t.Fatalf("%s (level %d, scale %g) vs chain (level %d, scale %g)",
			what, gl.g.Level(got), gl.g.ScaleOf(got), wl.g.Level(want), wl.g.ScaleOf(want))
	}
	if gb, wb := fixtureBits(t, gl.g, false), fixtureBits(t, wl.g, true); gb != wb || math.IsNaN(gb) {
		t.Fatalf("predicted noise budget: %s %v bits, chain %v bits", what, gb, wb)
	}
	gv, wv := gl.decrypt(got), wl.decrypt(want)
	for i := range gv {
		if math.Float64bits(gv[i]) != math.Float64bits(wv[i]) {
			t.Fatalf("slot %d: %s %v, chain %v", i, what, gv[i], wv[i])
		}
	}
}

// TestPlainRecombineMatchesChain: one guarded fused call must leave the
// same ciphertext bits, level and scale as the MulPlainPt + Recombine
// chain it replaces — on the full engine and on the keyed route's
// evaluation-only engine alike.
func TestPlainRecombineMatchesChain(t *testing.T) {
	plan := tinyPlan(t)
	for _, leg := range fusedLegs {
		t.Run(leg, func(t *testing.T) {
			run := func(fused bool) (henn.Ct, fusedLeg) {
				l := newFusedLeg(t, plan, 77, leg)
				g := l.g
				args, pts, weights := plainRecombineFixture(t, l)
				if fused {
					return g.PlainRecombine(args, pts, weights), l
				}
				terms := make([]henn.Ct, len(args))
				for i, a := range args {
					terms[i] = a
					if pts[i] != nil {
						terms[i] = g.MulPlainPt(a, pts[i])
					}
				}
				return g.PlainRecombine(terms, nil, weights), l
			}
			fc, fl := run(true)
			cc, cl := run(false)
			assertSameResult(t, "fused", fl, fc, cl, cc)
		})
	}
}

// plainOnly is an engine offering ir.PlainRecombiner but not
// ir.Recombiner — the evaluation-only engine — that counts the Add and
// MulInt calls an unrolled recombination would make.
type plainOnly struct {
	*henn.RNSEvalEngine
	chainCalls int
}

func (e *plainOnly) Unwrap() henn.Engine { return e.RNSEvalEngine }

func (e *plainOnly) Add(a, b henn.Ct) henn.Ct {
	e.chainCalls++
	return e.RNSEvalEngine.Add(a, b)
}

func (e *plainOnly) MulInt(ct henn.Ct, n int64) henn.Ct {
	e.chainCalls++
	return e.RNSEvalEngine.MulInt(ct, n)
}

// TestRecombineDelegatesToPlainRecombine: over an engine with
// PlainRecombine but no Recombine, the guard's pure integer recombination
// (PlainRecombine with nil plaintexts) is that one fused call (no Add or
// MulInt reaches the engine), and it matches the guarded MulInt/Add chain
// in bits, level and scale, with the same predicted noise budget.
func TestRecombineDelegatesToPlainRecombine(t *testing.T) {
	plan := tinyPlan(t)
	full, eval := rnsEngineAndEval(t, plan, 79)
	eng := &plainOnly{RNSEvalEngine: eval}
	if _, ok := henn.Engine(eng).(interface {
		Recombine([]henn.Ct, []int64) henn.Ct
	}); ok {
		t.Fatal("fixture: the engine offers Recombine")
	}
	g := guard.New(eng, guard.DefaultConfig())
	l := fusedLeg{g: g, full: full}
	args, pts, weights := plainRecombineFixture(t, l)
	terms := make([]henn.Ct, len(args))
	for i, a := range args {
		terms[i] = a
		if pts[i] != nil {
			terms[i] = g.MulPlainPt(a, pts[i])
		}
	}

	eng.chainCalls = 0
	fused := g.PlainRecombine(terms, nil, weights)
	if eng.chainCalls != 0 {
		t.Fatalf("guarded recombination made %d Add/MulInt engine calls, want one fused call", eng.chainCalls)
	}
	chain := terms[0]
	for i := 1; i < len(terms); i++ {
		c := terms[i]
		if weights[i] != 1 {
			c = g.MulInt(c, weights[i])
		}
		chain = g.Add(chain, c)
	}
	assertSameResult(t, "delegated Recombine", l, fused, l, chain)
}

// chainCounter hides every optional call of the engine it wraps and logs
// the Add and MulInt calls that reach it.
type chainCounter struct {
	henn.Engine
	calls []string
}

func (e *chainCounter) Unwrap() henn.Engine { return e.Engine }

func (e *chainCounter) Add(a, b henn.Ct) henn.Ct {
	e.calls = append(e.calls, "Add")
	return e.Engine.Add(a, b)
}

func (e *chainCounter) MulInt(ct henn.Ct, n int64) henn.Ct {
	e.calls = append(e.calls, fmt.Sprintf("MulInt(%d)", n))
	return e.Engine.MulInt(ct, n)
}

// TestPlainRecombineChainBehindInjector: behind middleware that offers no
// fused call (a faults.Injector that never fires), the guarded call
// evaluates each product with the inner MulPlainPt and sums the terms
// with the inner MulInt/Add chain. It matches the guarded op-by-op chain
// in bits, level and scale, and makes the same inner MulInt/Add calls.
func TestPlainRecombineChainBehindInjector(t *testing.T) {
	plan := tinyPlan(t)
	run := func(fused bool) (henn.Ct, fusedLeg, []string) {
		full := rnsEngine(t, plan, 81)
		inner := &chainCounter{Engine: full}
		inj := faults.Wrap(inner, faults.Injection{Kind: faults.PanicOp, Op: "no such op"})
		l := fusedLeg{g: guard.New(inj, guard.DefaultConfig()), full: full}
		g := l.g
		args, pts, weights := plainRecombineFixture(t, l)
		inner.calls = nil
		if fused {
			return g.PlainRecombine(args, pts, weights), l, inner.calls
		}
		acc := g.MulPlainPt(args[0], pts[0])
		for i := 1; i < len(args); i++ {
			c := args[i]
			if pts[i] != nil {
				c = g.MulPlainPt(c, pts[i])
			}
			if weights[i] != 1 {
				c = g.MulInt(c, weights[i])
			}
			acc = g.Add(acc, c)
		}
		return acc, l, inner.calls
	}
	fc, fl, fcalls := run(true)
	cc, cl, ccalls := run(false)
	assertSameResult(t, "guarded call behind injector", fl, fc, cl, cc)
	want := []string{"Add", "Add", "MulInt(-3)", "Add", "Add"}
	if !reflect.DeepEqual(fcalls, want) || !reflect.DeepEqual(ccalls, want) {
		t.Fatalf("inner MulInt/Add calls: guarded call %v, op-by-op chain %v, want %v", fcalls, ccalls, want)
	}
}

// corruptRotation puts a coefficient ≥ q into rotation 3 of every
// RotateMany on the engine it wraps, and keeps that engine's fused call.
type corruptRotation struct{ henn.Engine }

func (e corruptRotation) Unwrap() henn.Engine { return e.Engine }

func (e corruptRotation) PlainRecombine(args []henn.Ct, pts []henn.Pt, weights []int64) henn.Ct {
	return e.Engine.(ir.PlainRecombiner).PlainRecombine(args, pts, weights)
}

func (e corruptRotation) RotateMany(ct henn.Ct, ks []int) map[int]henn.Ct {
	outs := e.Engine.RotateMany(ct, ks)
	outs[3].(*ckks.Ciphertext).C0.Coeffs[1][5] = ^uint64(0)
	return outs
}

// TestPlainRecombineCatchesCorruptTerm: a corrupt term of a fused call is
// caught at the op that makes it. When the guard delegates to the
// backend's fused implementation (full or evaluation-only engine), the
// engine's RotateMany returns the fixture's third term corrupt and the
// guard refuses it there, before any fused call. Behind middleware that
// hides the fused call, the executor evaluates the recombine's products
// itself; one comes out corrupt and the guard refuses it at MulPlainPt.
func TestPlainRecombineCatchesCorruptTerm(t *testing.T) {
	plan := tinyPlan(t)

	for _, leg := range fusedLegs {
		full, eval := rnsEngineAndEval(t, plan, 78)
		var e henn.Engine = full
		if leg == "rns-eval" {
			e = eval
		}
		l := fusedLeg{g: guard.New(corruptRotation{e}, guard.DefaultConfig()), full: full}
		err := catchGuard(t, func() { plainRecombineFixture(t, l) })
		var se *guard.StageError
		if !errors.Is(err, guard.ErrCorruptCiphertext) || !errors.As(err, &se) || se.Op != "RotateMany" {
			t.Fatalf("%s delegated call: got %v, want ErrCorruptCiphertext at op RotateMany", leg, err)
		}
	}

	// The first MulPlainPt call is the fixture graph's weighted term, an
	// op of its own; the third is the recombine's second product.
	inj := faults.Wrap(rnsEngine(t, plan, 78), faults.Injection{Kind: faults.CorruptLimb, Op: "MulPlainPt", Nth: 3, Seed: 11})
	g := guard.New(inj, guard.DefaultConfig())
	if g.Fuses() {
		t.Fatal("fixture: the guard fuses behind the injector")
	}
	prep, err := exec.Prepare(g, fixtureGraph(g, false))
	if err != nil {
		t.Fatal(err)
	}
	in, _ := fixtureVecs(g.Slots())
	_, err = prep.Run(context.Background(), [][]float64{in})
	var se *guard.StageError
	if !inj.Fired() || !errors.Is(err, guard.ErrCorruptCiphertext) || !errors.As(err, &se) || se.Op != "MulPlainPt" {
		t.Fatalf("products behind injector: fired=%v, got %v, want ErrCorruptCiphertext at op MulPlainPt", inj.Fired(), err)
	}
}

// TestValidateNamesFirstCorruptComponent: the validators scan c0 before
// c1, so a ciphertext corrupt in both components is reported at c0 on
// every call — on both backends.
func TestValidateNamesFirstCorruptComponent(t *testing.T) {
	plan := tinyPlan(t)
	legs := map[string]func() (*guard.GuardedEngine, henn.Ct){
		"rns": func() (*guard.GuardedEngine, henn.Ct) {
			e := rnsEngine(t, plan, 83)
			ct := e.EncryptVec([]float64{1}).(*ckks.Ciphertext)
			ct.C0.Coeffs[0][3], ct.C1.Coeffs[0][3] = ^uint64(0), ^uint64(0)
			return guard.New(e, guard.DefaultConfig()), ct
		},
		"big": func() (*guard.GuardedEngine, henn.Ct) {
			e := bigEngine(t, plan, 83)
			ct := e.EncryptVec([]float64{1}).(*ckksbig.Ciphertext)
			ct.C0.Coeffs[3], ct.C1.Coeffs[3] = big.NewInt(-1), big.NewInt(-1)
			return guard.New(e, guard.DefaultConfig()), ct
		},
	}
	for name, mk := range legs {
		t.Run(name, func(t *testing.T) {
			g, ct := mk()
			for i := 0; i < 20; i++ {
				_, err := g.Adopt(ct)
				if !errors.Is(err, guard.ErrCorruptCiphertext) {
					t.Fatalf("call %d: want ErrCorruptCiphertext, got %v", i, err)
				}
				if msg := err.Error(); !strings.Contains(msg, "c0 ") || strings.Contains(msg, "c1 ") {
					t.Fatalf("call %d: error names the wrong component: %v", i, err)
				}
			}
		})
	}
}

// twoBadRotations corrupts two outputs of every RotateMany in different
// ways: rotation 1 gets a coefficient ≥ q, rotation 3 loses a limb.
type twoBadRotations struct{ *henn.RNSEngine }

func (e twoBadRotations) Unwrap() henn.Engine { return e.RNSEngine }

func (e twoBadRotations) RotateMany(ct henn.Ct, ks []int) map[int]henn.Ct {
	outs := e.RNSEngine.RotateMany(ct, ks)
	outs[1].(*ckks.Ciphertext).C0.Coeffs[0][3] = ^uint64(0)
	outs[3].(*ckks.Ciphertext).C1.Coeffs[1] = nil
	return outs
}

// TestRotateManyReportsFirstBadOutput: the guard validates RotateMany's
// outputs in the caller's order, so with two bad outputs every call
// reports the first listed one, with the same StageError.
func TestRotateManyReportsFirstBadOutput(t *testing.T) {
	plan := tinyPlan(t)
	e := rnsEngine(t, plan, 85)
	g := guard.New(twoBadRotations{e}, guard.DefaultConfig())
	for _, tc := range []struct {
		ks   []int
		want error
	}{
		{[]int{1, 3}, guard.ErrCorruptCiphertext},
		{[]int{3, 1}, guard.ErrResidueMissing},
	} {
		ct := g.EncryptVec([]float64{1, 2, 3})
		var first string
		for i := 0; i < 20; i++ {
			err := catchGuard(t, func() { g.RotateMany(ct, tc.ks) })
			var se *guard.StageError
			if !errors.As(err, &se) || !errors.Is(err, tc.want) || se.Op != "RotateMany" {
				t.Fatalf("ks %v, call %d: got %v, want %v at op RotateMany", tc.ks, i, err, tc.want)
			}
			if i == 0 {
				first = err.Error()
			} else if err.Error() != first {
				t.Fatalf("ks %v, call %d: %v, first call %v", tc.ks, i, err, first)
			}
		}
	}
}
