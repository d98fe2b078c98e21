package henn

import (
	"math"
	"math/rand"
	"testing"

	"cnnhe/internal/ckks"
	"cnnhe/internal/nn"
	"cnnhe/internal/primes"
)

// poolModel: Conv(1→2, 3×3, s2, 8×8) → SLAF → MeanPool(2,2) →
// Dense(8→4): the pool and dense layers are adjacent linears, so
// collapsing merges them.
func poolModel(seed int64) *nn.Model {
	rng := rand.New(rand.NewSource(seed))
	conv := nn.NewConv2D(rng, 1, 2, 3, 1, 0, 8, 8) // 2×6×6
	pool := nn.NewMeanPool2D(2, 2, 2, 6, 6)        // 2×3×3 = 18
	m := &nn.Model{Layers: []nn.Layer{
		conv,
		nn.NewReLU(),
		pool,
		nn.NewFlatten(),
		nn.NewDense(rng, 18, 4),
	}}
	hm := m.ReplaceReLUWithSLAF(2, 1)
	for _, l := range hm.Layers {
		if s, ok := l.(*nn.SLAF); ok {
			s.FitReLU(3)
		}
	}
	return hm
}

func TestCollapseReducesDepthAndStages(t *testing.T) {
	m := poolModel(21)
	collapsed, err := CompileWithOptions(m, 512, Options{Collapse: true})
	if err != nil {
		t.Fatal(err)
	}
	expanded, err := CompileWithOptions(m, 512, Options{Collapse: false})
	if err != nil {
		t.Fatal(err)
	}
	if len(collapsed.Stages) != len(expanded.Stages)-1 {
		t.Fatalf("collapse should save one stage: %d vs %d", len(collapsed.Stages), len(expanded.Stages))
	}
	if collapsed.Depth != expanded.Depth-1 {
		t.Fatalf("collapse should save one level: %d vs %d", collapsed.Depth, expanded.Depth)
	}
}

func TestCollapsedPlanMatchesExpanded(t *testing.T) {
	m := poolModel(22)
	collapsed, err := CompileWithOptions(m, 512, Options{Collapse: true})
	if err != nil {
		t.Fatal(err)
	}
	expanded, err := CompileWithOptions(m, 512, Options{Collapse: false})
	if err != nil {
		t.Fatal(err)
	}
	// One engine with the union of rotations serves both plans.
	rots := map[int]bool{}
	for _, r := range append(collapsed.Rotations(), expanded.Rotations()...) {
		rots[r] = true
	}
	var all []int
	for r := range rots {
		all = append(all, r)
	}
	plan := &Plan{Slots: 512, Depth: expanded.Depth}
	_ = plan
	e := rnsEngineForRotations(t, all, expanded.Depth)

	rng := rand.New(rand.NewSource(23))
	img := testImage(rng, 64)
	a, _ := collapsed.Infer(e, img)
	b, _ := expanded.Infer(e, img)
	want := plainForward(m, img, 1, 8, 8)
	for i := range want {
		if math.Abs(a[i]-want[i]) > 0.05 || math.Abs(b[i]-want[i]) > 0.05 {
			t.Fatalf("logit %d: collapsed %g expanded %g want %g", i, a[i], b[i], want[i])
		}
	}
}

func rnsEngineForRotations(t testing.TB, rotations []int, depth int) *RNSEngine {
	t.Helper()
	p, err := ckks.NewParameters(10, primes.PaperShape(depth+1, 30), 60, 1, math.Exp2(30))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewRNSEngine(p, rotations, 701)
	if err != nil {
		t.Fatal(err)
	}
	return e
}
