package henn

import (
	"context"
	"math"
	"math/rand"
	"runtime/debug"
	"testing"

	"cnnhe/internal/ckks"
	"cnnhe/internal/ckksbig"
	"cnnhe/internal/henn/ir/opt"
	"cnnhe/internal/nn"
)

// The parity suite gates the graph optimizer against the unoptimized
// executor run (-opt=off, the canonical lowering executed unchanged).
// Encryption is randomized, so each side runs on its own
// identically-seeded engine: key generation and the encrypt prologue then
// draw the same PRNG sequence, and every evaluation op downstream is
// deterministic. The optimizer's one pass (fuse) is bit-exact, so against
// that reference -opt=on must produce bit-identical logits and report
// rows, on every executor schedule.
//
// The reference itself is pinned by TestExecutorParityGolden*, whose
// digests a change shared by every leg here cannot pass.

type engineMaker func(t *testing.T) Engine

func rnsMaker(t *testing.T, plan *Plan, logN int, bits []int, seed int64) engineMaker {
	params, err := ckks.NewParameters(logN, bits, 60, 1, math.Exp2(30))
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.CheckDepth(params.MaxLevel()); err != nil {
		t.Fatal(err)
	}
	return func(t *testing.T) Engine {
		e, err := NewRNSEngine(params, plan.Rotations(), seed)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
}

func bigMaker(t *testing.T, plan *Plan, logN int, bits []int, seed int64) engineMaker {
	params, err := ckks.NewParameters(logN, bits, 60, 1, math.Exp2(30))
	if err != nil {
		t.Fatal(err)
	}
	bp, err := ckksbig.FromRNSParameters(params)
	if err != nil {
		t.Fatal(err)
	}
	return func(t *testing.T) Engine {
		e, err := NewBigEngine(bp, plan.Rotations(), seed)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
}

func stageNames(rep *Report) []string {
	out := make([]string, len(rep.Stages))
	for i, s := range rep.Stages {
		out[i] = s.Stage
	}
	return out
}

func assertSameRun(t *testing.T, label string, lgA, lgB Logits, repA, repB *Report) {
	t.Helper()
	if len(lgA) != len(lgB) {
		t.Fatalf("%s: %d vs %d logits", label, len(lgA), len(lgB))
	}
	for i := range lgA {
		if lgA[i] != lgB[i] {
			t.Fatalf("%s: logit %d differs: %.17g vs %.17g (Δ=%g)",
				label, i, lgA[i], lgB[i], lgA[i]-lgB[i])
		}
	}
	a, b := stageNames(repA), stageNames(repB)
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d report rows (%v vs %v)", label, len(a), len(b), a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: report row %d named %q vs %q", label, i, a[i], b[i])
		}
	}
	for i := range repA.Stages {
		if repA.Stages[i].Level != repB.Stages[i].Level {
			t.Fatalf("%s: stage %q level %d vs %d", label, a[i], repA.Stages[i].Level, repB.Stages[i].Level)
		}
		if repA.Stages[i].Scale != repB.Stages[i].Scale {
			t.Fatalf("%s: stage %q scale %g vs %g", label, a[i], repA.Stages[i].Scale, repB.Stages[i].Scale)
		}
	}
}

// parityMode is one optimizer configuration gated by the oracle.
type parityMode struct {
	name string
	opts *opt.Options
}

func parityModes() []parityMode {
	return []parityMode{
		{"opt=off", opt.Disabled()},
		{"opt=on", nil},
	}
}

// checkPlanParity compares the optimized runs of plan to its -opt=off
// run on identically-seeded engines.
func checkPlanParity(t *testing.T, plan *Plan, mk engineMaker, image []float64) {
	ctx := context.Background()
	defer func() { plan.Opt = nil }()
	var lgR Logits
	var repR *Report
	for _, mode := range parityModes() {
		// Return the previous leg's plaintexts before this one encodes its
		// own: at CNN scale each set is gigabytes.
		debug.FreeOSMemory()
		plan.Opt = mode.opts
		lg, rep, err := plan.InferCtx(ctx, mk(t), image)
		if err != nil {
			t.Fatalf("plan/%s: %v", mode.name, err)
		}
		if lgR == nil {
			lgR, repR = lg, rep // opt=off: the reference
			continue
		}
		assertSameRun(t, "plan/"+mode.name, lgR, lg, repR, rep)
	}
}

// checkRNSParity runs the decomposed pipeline, one executor worker per
// digit part, in every optimizer mode against its -opt=off run.
func checkRNSParity(t *testing.T, base *Plan, k int, mk engineMaker, image []float64) {
	ctx := context.Background()
	var lgR Logits
	var repR *Report
	for _, mode := range parityModes() {
		label := "rns/" + mode.name
		rp, err := NewRNSPlan(base, k)
		if err != nil {
			t.Fatal(err)
		}
		rp.Opt = mode.opts
		debug.FreeOSMemory()
		lg, rep, err := rp.InferCtx(ctx, mk(t), image)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if lgR == nil {
			lgR, repR = lg, rep // opt=off: the reference
			continue
		}
		assertSameRun(t, label, lgR, lg, repR, rep)
	}
}

func TestExecutorParityTiny(t *testing.T) {
	plan, err := Compile(tinyModel(1), 512)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	img := testImage(rng, plan.InputDim)
	bits := []int{40, 30, 30, 30, 30}
	for _, tc := range []struct {
		name string
		mk   engineMaker
	}{
		{"rns", rnsMaker(t, plan, 10, bits, 601)},
		{"big", bigMaker(t, plan, 10, bits, 602)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkPlanParity(t, plan, tc.mk, img)
			checkRNSParity(t, plan, 3, tc.mk, img)
		})
	}
}

// paperModel compiles an untrained paper architecture with SLAF
// activations — weights are irrelevant to parity, only the op structure
// matters.
func paperModel(t *testing.T, arch string, slots int) *Plan {
	rng := rand.New(rand.NewSource(7))
	var m *nn.Model
	switch arch {
	case "cnn1":
		m = nn.NewCNN1(rng)
	case "cnn2":
		m = nn.NewCNN2(rng)
	}
	hm := m.ReplaceReLUWithSLAF(3, 1)
	for _, l := range hm.Layers {
		if s, ok := l.(*nn.SLAF); ok {
			s.FitReLU(3)
		}
	}
	plan, err := Compile(hm, slots)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestExecutorParityCNN1 covers the paper's CNN1 shape at full MNIST
// dimensions on the RNS backend (the big backend is covered by the tiny
// fixture above; CNN-scale multiprecision runs belong to the benchmark
// suite, not the unit tests).
func TestExecutorParityCNN1(t *testing.T) {
	if testing.Short() {
		t.Skip("CNN-scale parity skipped in short mode")
	}
	plan := paperModel(t, "cnn1", 1024)
	rng := rand.New(rand.NewSource(12))
	img := testImage(rng, plan.InputDim)
	bits := make([]int, plan.Depth+2)
	bits[0] = 40
	for i := 1; i < len(bits); i++ {
		bits[i] = 30
	}
	mk := rnsMaker(t, plan, 11, bits, 604)
	checkPlanParity(t, plan, mk, img)
	checkRNSParity(t, plan, 3, mk, img)
}

// TestExecutorParityCNN2 covers the deeper CNN2 shape at 2048 slots.
func TestExecutorParityCNN2(t *testing.T) {
	if testing.Short() {
		t.Skip("CNN-scale parity skipped in short mode")
	}
	plan := paperModel(t, "cnn2", 2048)
	rng := rand.New(rand.NewSource(13))
	img := testImage(rng, plan.InputDim)
	bits := make([]int, plan.Depth+2)
	bits[0] = 40
	for i := 1; i < len(bits); i++ {
		bits[i] = 30
	}
	mk := rnsMaker(t, plan, 12, bits, 605)
	checkPlanParity(t, plan, mk, img)
}
