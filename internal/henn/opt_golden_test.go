package henn

import (
	"math"
	"testing"

	"cnnhe/internal/ckks"
	"cnnhe/internal/ckksbig"
	"cnnhe/internal/henn/ir"
	"cnnhe/internal/henn/ir/opt"
)

// The golden graph-size gate. Lowering and optimization are symbolic:
// the tracer only reads Slots/MaxLevel/Scale/QiFloat from the engine,
// so the paper models can be lowered at full CNN2 scale against a
// params-only stub — no key generation, milliseconds instead of
// minutes. The checked-in numbers below are the contract: a change that
// grows the optimized graph (a pass regressing, lowering emitting
// redundant ops the pipeline no longer catches) fails here before it
// shows up as a benchmark regression. Update the table deliberately,
// with the new numbers from the failure message, only when the growth
// is intended.

// goldenEngines builds rns and big param stubs from the same modulus
// chain the parity suite uses: [40, 30 × (depth+1)] at scale 2³⁰.
func goldenEngines(t *testing.T, logN, depth int) []Engine {
	t.Helper()
	bits := make([]int, depth+2)
	bits[0] = 40
	for i := 1; i < len(bits); i++ {
		bits[i] = 30
	}
	params, err := ckks.NewParameters(logN, bits, 60, 1, math.Exp2(30))
	if err != nil {
		t.Fatal(err)
	}
	bp, err := ckksbig.FromRNSParameters(params)
	if err != nil {
		t.Fatal(err)
	}
	return []Engine{
		ParamsOnlyEngine("ckks-rns", params.Slots(), params.MaxLevel(), params.Scale, params.QiFloat),
		ParamsOnlyEngine("ckks-big", bp.Slots(), bp.MaxLevel(), bp.Scale, bp.QiFloat),
	}
}

// goldenSize is the checked-in shape of an optimized graph. Op order
// inside a lowered graph is not deterministic (diagonal maps iterate in
// map order) but these counts are. engineCalls counts a recombine and
// the plaintext products it absorbs (ir.Graph.AbsorbedBy) as one call.
type goldenSize struct {
	ops         int
	engineCalls int
	rotateCalls int
	hoists      int
}

func sizeOf(s ir.Stats) goldenSize {
	return goldenSize{ops: s.Ops, engineCalls: s.EngineCalls, rotateCalls: s.RotateCalls(), hoists: s.Hoists}
}

func TestOptimizedGraphGolden(t *testing.T) {
	cases := []struct {
		name  string
		arch  string
		slots int
		logN  int
		k     int // 0 = plain Plan, >0 = RNS front-end with k parts, -1 = sharded (auto grid)
		want  goldenSize
	}{
		{"cnn1/plan", "cnn1", 1024, 11, 0, goldenSize{ops: 2331, engineCalls: 164, rotateCalls: 68, hoists: 3}},
		{"cnn1/rns3", "cnn1", 1024, 11, 3, goldenSize{ops: 4567, engineCalls: 388, rotateCalls: 132, hoists: 5}},
		{"cnn2/plan", "cnn2", 2048, 12, 0, goldenSize{ops: 4700, engineCalls: 183, rotateCalls: 71, hoists: 4}},
		{"cnn2/rns3", "cnn2", 2048, 12, 3, goldenSize{ops: 8514, engineCalls: 491, rotateCalls: 129, hoists: 6}},
		// CIFAR-10 CNN3 over a 2×1 shard grid: the 3072-pixel input splits
		// across two 2048-slot ciphertexts, so the lowered graph carries
		// per-shard block products plus cross-shard recombines.
		{"cnn3/sharded2", "cnn3", 2048, 12, -1, goldenSize{ops: 7022, engineCalls: 248, rotateCalls: 105, hoists: 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var depth int
			var lowerFor func(e Engine) *ir.Graph
			if tc.k < 0 {
				sp, err := CompileShardedAuto(paperShardModel(tc.arch), tc.slots)
				if err != nil {
					t.Fatal(err)
				}
				if sp.NumShards() != 2 {
					t.Fatalf("%s: %d shards, want 2", tc.name, sp.NumShards())
				}
				depth = sp.Depth
				lowerFor = func(e Engine) *ir.Graph {
					g, err := sp.Lower(e)
					if err != nil {
						t.Fatal(err)
					}
					return g
				}
			} else {
				plan := paperModel(t, tc.arch, tc.slots)
				depth = plan.Depth
				lowerFor = func(e Engine) *ir.Graph {
					var g *ir.Graph
					var err error
					if tc.k == 0 {
						g, err = plan.Lower(e)
					} else {
						var rp *Plan
						rp, err = NewRNSPlan(plan, tc.k, false)
						if err == nil {
							g, err = rp.Lower(e)
						}
					}
					if err != nil {
						t.Fatal(err)
					}
					return g
				}
			}
			var ref goldenSize
			for i, e := range goldenEngines(t, tc.logN, depth) {
				g := lowerFor(e)
				before := g.Stats()
				res, err := opt.Optimize(e, g, nil)
				if err != nil {
					t.Fatal(err)
				}
				after := res.After
				got := sizeOf(after)
				t.Logf("%s %s: before=%+v after=%+v", tc.name, e.Name(), sizeOf(before), got)

				// Both backends lower and optimize to the same shape —
				// the graph depends on params, not on the arithmetic.
				if i == 0 {
					ref = got
				} else if got != ref {
					t.Fatalf("%s: graph shape differs across backends: rns=%+v big=%+v", e.Name(), ref, got)
				}

				if got != tc.want {
					t.Errorf("%s %s: optimized graph size %+v, want golden %+v\n"+
						"(intended change? update the golden table in opt_golden_test.go)",
						tc.name, e.Name(), got, tc.want)
				}

				// The acceptance floor: ≥15%% fewer engine calls than the
				// unoptimized lowering, and ≥15%% fewer rotation calls.
				if float64(after.EngineCalls) > 0.85*float64(before.EngineCalls) {
					t.Errorf("%s %s: engine calls %d → %d, reduction below 15%%",
						tc.name, e.Name(), before.EngineCalls, after.EngineCalls)
				}
				if float64(after.RotateCalls()) > 0.85*float64(before.RotateCalls()) {
					t.Errorf("%s %s: rotation calls %d → %d, reduction below 15%%",
						tc.name, e.Name(), before.RotateCalls(), after.RotateCalls())
				}
				// Optimization must never deepen the circuit.
				if after.MinLevel < before.MinLevel {
					t.Errorf("%s %s: min level dropped %d → %d", tc.name, e.Name(), before.MinLevel, after.MinLevel)
				}
			}
		})
	}
}

// TestOptimizeOffPreservesLowering pins the escape hatch: -opt=off
// executes the canonical lowering unchanged.
func TestOptimizeOffPreservesLowering(t *testing.T) {
	plan := paperModel(t, "cnn1", 1024)
	e := goldenEngines(t, 11, plan.Depth)[0]
	g, err := plan.Lower(e)
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Optimize(e, g, opt.Disabled())
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph != g {
		t.Fatal("opt=off rebuilt the graph instead of passing it through")
	}
	if len(res.Passes) != 0 || res.Setting != "off" {
		t.Fatalf("opt=off ran passes: %+v (%s)", res.Passes, res.Setting)
	}
}
