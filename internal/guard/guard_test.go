package guard_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"cnnhe/internal/ckks"
	"cnnhe/internal/ckksbig"
	"cnnhe/internal/faults"
	"cnnhe/internal/guard"
	"cnnhe/internal/henn"
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

func rnsEngine(t testing.TB, plan *henn.Plan, seed int64) *henn.RNSEngine {
	t.Helper()
	p, err := ckks.NewParameters(10, []int{40, 30, 30, 30, 30}, 60, 1, math.Exp2(30))
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.CheckDepth(p.MaxLevel()); err != nil {
		t.Fatal(err)
	}
	e, err := henn.NewRNSEngine(p, plan.Rotations(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return e
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
	bits := []int{40}
	for i := 0; i < k-2; i++ {
		bits = append(bits, 26)
	}
	bits = append(bits, 40)
	params, err := ckks.NewParameters(11, bits, 60, 1, math.Exp2(26))
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

// TestNoiseBudgetExhausted: integer multiplications grow the tracked
// noise without touching the scale, so the budget must trip with the
// dedicated sentinel before the message is fully drowned.
func TestNoiseBudgetExhausted(t *testing.T) {
	plan := tinyPlan(t)
	g := guard.New(rnsEngine(t, plan, 77), guard.DefaultConfig())
	err := catchGuard(t, func() {
		ct := g.EncryptVec([]float64{1, 2, 3})
		for i := 0; i < 100; i++ {
			ct = g.MulInt(ct, 1<<30)
		}
	})
	if !errors.Is(err, guard.ErrNoiseBudgetExhausted) {
		t.Fatalf("want ErrNoiseBudgetExhausted, got %v", err)
	}
	var se *guard.StageError
	if !errors.As(err, &se) || se.Op != "MulInt" {
		t.Fatalf("want StageError at MulInt, got %#v", err)
	}
	if g.Err() == nil {
		t.Fatal("guard did not latch the failure")
	}
}

// TestLevelExhausted: rescaling past level 0 is caught by the guard
// before the backend panics.
func TestLevelExhausted(t *testing.T) {
	plan := tinyPlan(t)
	cfg := guard.DefaultConfig()
	cfg.MinNoiseBits = math.Inf(-1) // isolate the level check from the budget
	g := guard.New(rnsEngine(t, plan, 78), cfg)
	err := catchGuard(t, func() {
		ct := g.EncryptVec([]float64{1})
		for i := 0; i < 10; i++ {
			ct = g.Rescale(ct)
		}
	})
	if !errors.Is(err, guard.ErrLevelExhausted) {
		t.Fatalf("want ErrLevelExhausted, got %v", err)
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

// TestForeignCiphertext: handles that did not come from this guard are
// rejected instead of silently bypassing the tracked invariants.
func TestForeignCiphertext(t *testing.T) {
	plan := tinyPlan(t)
	e := rnsEngine(t, plan, 81)
	g := guard.New(rnsEngine(t, plan, 81), guard.DefaultConfig())
	raw := e.EncryptVec([]float64{1})
	err := catchGuard(t, func() { g.DecryptVec(raw) })
	if !errors.Is(err, guard.ErrForeignCiphertext) {
		t.Fatalf("want ErrForeignCiphertext, got %v", err)
	}
}

// TestReset: a tripped guard latches its error (every further op
// aborts), Reset returns and clears it, and the same guard then runs a
// full clean inference — the reuse pattern the serving loop depends on
// (a fresh guard would invalidate the engine-keyed prepared-graph
// cache).
func TestReset(t *testing.T) {
	plan := tinyPlan(t)
	e := rnsEngine(t, plan, 91)
	g := guard.New(rnsEngine(t, plan, 91), guard.DefaultConfig())

	// Trip it with a foreign ciphertext.
	raw := e.EncryptVec([]float64{1})
	first := catchGuard(t, func() { g.DecryptVec(raw) })
	if !errors.Is(first, guard.ErrForeignCiphertext) {
		t.Fatalf("want ErrForeignCiphertext, got %v", first)
	}
	if g.Err() == nil {
		t.Fatal("tripped guard must latch its error")
	}
	// Latched: even a healthy op aborts with the same error.
	latched := catchGuard(t, func() { g.EncryptVec([]float64{1}) })
	if !errors.Is(latched, guard.ErrForeignCiphertext) {
		t.Fatalf("latched guard returned a different error: %v", latched)
	}

	if err := g.Reset(); !errors.Is(err, guard.ErrForeignCiphertext) {
		t.Fatalf("Reset should return the cleared error, got %v", err)
	}
	if g.Err() != nil {
		t.Fatalf("Reset must clear the latched error, still %v", g.Err())
	}
	if err := g.Reset(); err != nil {
		t.Fatalf("Reset on a healthy guard must return nil, got %v", err)
	}

	// The same guard now completes a clean inference end to end.
	logits, _, err := plan.InferCtx(context.Background(), g, testImage(7, plan.InputDim))
	if err != nil {
		t.Fatalf("post-Reset inference failed: %v", err)
	}
	if len(logits) != plan.OutputDim {
		t.Fatalf("post-Reset inference returned %d logits", len(logits))
	}
}

// TestCancellation: a cancelled context aborts inference at the next op
// boundary with the context's error.
func TestCancellation(t *testing.T) {
	plan := tinyPlan(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := guard.DefaultConfig()
	cfg.Ctx = ctx
	g := guard.New(rnsEngine(t, plan, 82), cfg)
	_, rep, err := plan.InferCtx(ctx, g, testImage(4, plan.InputDim))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if rep == nil || rep.FailedStage == "" {
		t.Fatalf("report should name the failed stage, got %+v", rep)
	}
}

// plainRecombineFixture builds, on a guarded engine, the operands of one
// fused linear-stage call: three products (the source and two hoisted
// rotations, each with its own plaintext) plus two already-multiplied
// terms, one of them weighted — the mixed-argument shape giant step 0 of a
// BSGS stage produces.
func plainRecombineFixture(t *testing.T, g *guard.GuardedEngine) (args []henn.Ct, pts []henn.Pt, weights []int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	vec := func() []float64 {
		v := make([]float64, g.Slots())
		for i := range v {
			v[i] = rng.Float64()*2 - 1
		}
		return v
	}
	ct := g.EncryptVec(vec())
	specs := make([]henn.PlainSpec, 5)
	for i := range specs {
		specs[i] = henn.PlainSpec{Values: vec(), Level: g.MaxLevel(), Scale: g.Scale()}
	}
	enc := g.EncodeVecsAt(specs)
	rots := g.RotateMany(ct, []int{1, 3})
	args = []henn.Ct{ct, rots[1], rots[3], g.MulPlainPt(ct, enc[3]), g.MulPlainPt(rots[1], enc[4])}
	pts = []henn.Pt{enc[0], enc[1], enc[2], nil, nil}
	return args, pts, []int64{1, 1, 1, -3, 1}
}

// TestPlainRecombineMatchesChain: one guarded fused call must leave the
// same ciphertext bits, level, scale and tracked noise bound as the
// MulPlainPt + Recombine chain it replaces.
func TestPlainRecombineMatchesChain(t *testing.T) {
	plan := tinyPlan(t)
	run := func(fused bool) (henn.Ct, *guard.GuardedEngine) {
		g := guard.New(rnsEngine(t, plan, 77), guard.DefaultConfig())
		args, pts, weights := plainRecombineFixture(t, g)
		if fused {
			return g.PlainRecombine(args, pts, weights), g
		}
		terms := make([]henn.Ct, len(args))
		for i, a := range args {
			terms[i] = a
			if pts[i] != nil {
				terms[i] = g.MulPlainPt(a, pts[i])
			}
		}
		return g.Recombine(terms, weights), g
	}
	fc, fg := run(true)
	cc, cg := run(false)
	if fg.Level(fc) != cg.Level(cc) || fg.ScaleOf(fc) != cg.ScaleOf(cc) {
		t.Fatalf("fused (level %d, scale %g) vs chain (level %d, scale %g)",
			fg.Level(fc), fg.ScaleOf(fc), cg.Level(cc), cg.ScaleOf(cc))
	}
	if fb, cb := fg.NoiseBits(fc), cg.NoiseBits(cc); fb != cb {
		t.Fatalf("tracked noise budget: fused %v bits, chain %v bits", fb, cb)
	}
	fv, cv := fg.DecryptVec(fc), cg.DecryptVec(cc)
	for i := range fv {
		if math.Float64bits(fv[i]) != math.Float64bits(cv[i]) {
			t.Fatalf("slot %d: fused %v, chain %v", i, fv[i], cv[i])
		}
	}
}

// TestPlainRecombineCatchesCorruptTerm: a corrupt limb in one term of a
// fused call is caught at that call, whether the guard delegates to the
// backend's fused implementation or (behind middleware that hides it)
// evaluates the chain.
func TestPlainRecombineCatchesCorruptTerm(t *testing.T) {
	plan := tinyPlan(t)

	g := guard.New(rnsEngine(t, plan, 78), guard.DefaultConfig())
	args, pts, weights := plainRecombineFixture(t, g)
	guard.Underlying(args[2]).(*ckks.Ciphertext).C0.Coeffs[1][5] = ^uint64(0)
	err := catchGuard(t, func() { g.PlainRecombine(args, pts, weights) })
	var se *guard.StageError
	if !errors.Is(err, guard.ErrCorruptCiphertext) || !errors.As(err, &se) || se.Op != "PlainRecombine" {
		t.Fatalf("delegated call: got %v, want ErrCorruptCiphertext at op PlainRecombine", err)
	}

	// The first two MulPlainPt calls build the fixture's plain terms; the
	// fourth is the second product inside the fused call.
	inj := faults.Wrap(rnsEngine(t, plan, 78), faults.Injection{Kind: faults.CorruptLimb, Op: "MulPlainPt", Nth: 4, Seed: 11})
	g = guard.New(inj, guard.DefaultConfig())
	args, pts, weights = plainRecombineFixture(t, g)
	err = catchGuard(t, func() { g.PlainRecombine(args, pts, weights) })
	if !inj.Fired() || !errors.Is(err, guard.ErrCorruptCiphertext) {
		t.Fatalf("chain behind injector: fired=%v, got %v, want ErrCorruptCiphertext", inj.Fired(), err)
	}
}
