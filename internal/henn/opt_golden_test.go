package henn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"cnnhe/internal/ckks"
	"cnnhe/internal/ckksbig"
	"cnnhe/internal/henn/ir"
	"cnnhe/internal/henn/ir/opt"
	"cnnhe/internal/henn/shard"
	"cnnhe/internal/nn"
)

// The golden graph-size gate. Lowering and optimization are symbolic:
// the tracer only reads Slots/MaxLevel/Scale/QiFloat from the engine,
// so the paper models can be lowered at full CNN2 scale against a
// params-only stub — no key generation, milliseconds instead of
// minutes. The checked-in numbers below are the contract: a change that
// grows the optimized graph (fuse regressing, lowering emitting redundant
// ops) or changes its structure fails here before it shows up as a
// benchmark regression. Update the table deliberately,
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

// shapeDigest is a structural digest of a graph that does not depend on
// op order (which follows map order inside a lowering). Every op hashes
// its kind, rotation amount, hoisted-ness, level, scale, drop, input
// index, plaintext scale and bits, and its arguments' hashes — as a
// multiset of (hash, weight) pairs for Add and Recombine, in order
// otherwise. The digest is SHA-256 over the sorted op hashes, the stage
// rows (name, record flag, output hash), the graph output, and the hoist
// groups (each a sorted member multiset, the groups sorted).
func shapeDigest(g *ir.Graph) string {
	type arg struct {
		h string
		w int64
	}
	hashes := make([]string, len(g.Ops))
	var b [8]byte
	for i, op := range g.Ops {
		h := sha256.New()
		put := func(v uint64) {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
		put(uint64(op.Kind))
		put(uint64(op.K))
		if op.Kind == ir.OpRotate && op.Hoist >= 0 {
			put(1)
		} else {
			put(0)
		}
		put(uint64(op.Level))
		put(math.Float64bits(op.Scale))
		put(uint64(op.Drop))
		put(uint64(op.InputIdx))
		put(math.Float64bits(op.PtScale))
		put(uint64(len(op.Plain)))
		for _, v := range op.Plain {
			put(math.Float64bits(v))
		}
		args := make([]arg, len(op.Args))
		for j, a := range op.Args {
			args[j] = arg{hashes[a], 1}
			if op.Kind == ir.OpRecombine {
				args[j].w = op.Weights[j]
			}
		}
		if op.Kind == ir.OpAdd || op.Kind == ir.OpRecombine {
			sort.Slice(args, func(x, y int) bool {
				if args[x].h != args[y].h {
					return args[x].h < args[y].h
				}
				return args[x].w < args[y].w
			})
		}
		put(uint64(len(args)))
		for _, a := range args {
			h.Write([]byte(a.h))
			put(uint64(a.w))
		}
		hashes[i] = string(h.Sum(nil))
	}
	h := sha256.New()
	sorted := append([]string(nil), hashes...)
	sort.Strings(sorted)
	for _, s := range sorted {
		h.Write([]byte(s))
	}
	for _, st := range g.Stages {
		fmt.Fprintf(h, "%s|%v|", st.Name, st.Record)
		if st.Out >= 0 {
			h.Write([]byte(hashes[st.Out]))
		}
	}
	h.Write([]byte(hashes[g.Output]))
	groups := make([]string, len(g.Hoists))
	for gi, members := range g.Hoists {
		ms := make([]string, len(members))
		for j, m := range members {
			ms[j] = hashes[m]
		}
		sort.Strings(ms)
		groups[gi] = strings.Join(ms, "")
	}
	sort.Strings(groups)
	for _, s := range groups {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkCanonicalRotations asserts the lowering's rotation plan: one hoist
// group per rotated source and no (source, k) rotation emitted twice, so
// every rotated ciphertext is decomposed once per key-switch algorithm.
func checkCanonicalRotations(g *ir.Graph) error {
	groupOf := map[int]int{}
	seen := map[[3]int]bool{}
	for _, op := range g.Ops {
		if op.Kind != ir.OpRotate {
			continue
		}
		src, hoisted := op.Args[0], 0
		if op.Hoist >= 0 {
			hoisted = 1
			if h, ok := groupOf[src]; ok && h != op.Hoist {
				return fmt.Errorf("source op %d rotated in hoist groups %d and %d", src, h, op.Hoist)
			}
			groupOf[src] = op.Hoist
		}
		key := [3]int{src, op.K, hoisted}
		if seen[key] {
			return fmt.Errorf("source op %d rotated by %d twice (hoisted=%d)", src, op.K, hoisted)
		}
		seen[key] = true
	}
	return nil
}

// shardedAuto compiles a paper architecture over the smallest shard grid
// that fits slots.
func shardedAuto(arch string, slots int) func(t *testing.T) *Plan {
	return func(t *testing.T) *Plan {
		sp, err := CompileShardedAuto(paperShardModel(arch), slots)
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
}

func TestOptimizedGraphGolden(t *testing.T) {
	compiled := func(arch string, slots int) func(t *testing.T) *Plan {
		return func(t *testing.T) *Plan { return paperModel(t, arch, slots) }
	}
	rns3 := func(arch string, slots int) func(t *testing.T) *Plan {
		return func(t *testing.T) *Plan {
			rp, err := NewRNSPlan(paperModel(t, arch, slots), 3)
			if err != nil {
				t.Fatal(err)
			}
			return rp
		}
	}
	batched := func(arch string, slots, batch int) func(t *testing.T) *Plan {
		return func(t *testing.T) *Plan {
			bp, err := CompileBatched(paperShardModel(arch), slots, batch)
			if err != nil {
				t.Fatal(err)
			}
			return bp.Plan
		}
	}
	cases := []struct {
		name   string
		logN   int
		plan   func(t *testing.T) *Plan
		shards int // input ciphertexts the plan must split into
		want   goldenSize
		shape  string // the optimized graph's shapeDigest
	}{
		{"cnn1/plan", 11, compiled("cnn1", 1024), 1, goldenSize{ops: 1349, engineCalls: 135, rotateCalls: 53, hoists: 3}, "d995adfd20f65b28ff195039170f8c7c31d8b6b6d44a992e4baaf640cd80b1c9"},
		// The Fig. 5 front-end: stage 0 is one row over the 3 digit
		// parts, so each giant-step sum spans all parts before one
		// rotation, and the parts recompose there.
		{"cnn1/rns3", 11, rns3("cnn1", 1024), 3, goldenSize{ops: 3463, engineCalls: 141, rotateCalls: 55, hoists: 5},
			"50c43b40fde4d32401c85770e9c948c69370d63fc21f5f27dfb55b39981aa12e"},
		{"cnn2/plan", 12, compiled("cnn2", 2048), 1, goldenSize{ops: 3167, engineCalls: 208, rotateCalls: 83, hoists: 4}, "4a41c02ef3acc8c99b84a9a62bf08a1471b98368cf4d6cb8af7316cf46dc74bf"},
		{"cnn2/rns3", 12, rns3("cnn2", 2048), 3, goldenSize{ops: 6871, engineCalls: 214, rotateCalls: 85, hoists: 6},
			"3072c52b7735aa9d3978e4c083de81263d3047f956183099855648007b9d38a9"},
		// CIFAR-10 CNN3 over a 2×1 shard grid: the 3072-pixel input splits
		// across two 2048-slot ciphertexts, so a block row sums every
		// block's products per giant step before its one rotation.
		{"cnn3/sharded2", 12, shardedAuto("cnn3", 2048), 2, goldenSize{ops: 5486, engineCalls: 194, rotateCalls: 77, hoists: 4},
			"e69ae59dc205d4cff5eebef421d5b55c71521cb32636bfa0ea3fd68bbb4da6b5"},
		// The benchmark's cnn3_sharded grid: block rows hoist the same
		// input shard's baby steps, and each (row, giant step) pair is one
		// standalone rotation (TestShardedRowGiantSteps).
		{"cnn3/sharded4", 11, shardedAuto("cnn3", 1024), 4, goldenSize{ops: 7470, engineCalls: 278, rotateCalls: 109, hoists: 7},
			"69786330ea9bbb544feb8bdac217ef135a32f38d9400b4f83ad845b0dc0e3c35"},
		// serve_batched's shape: two CNN1 images per 2048-slot ciphertext.
		{"cnn1/batch2", 12, batched("cnn1", 2048, 2), 1, goldenSize{ops: 2628, engineCalls: 109, rotateCalls: 40, hoists: 3},
			"d890e758aebc6ef73949b91dbe0cf2a35e2948780654cce3b0638e259813aa29"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan := tc.plan(t)
			if got := plan.numInputs(); got != tc.shards {
				t.Fatalf("%s: %d input ciphertexts, want %d", tc.name, got, tc.shards)
			}
			var ref goldenSize
			for i, e := range goldenEngines(t, tc.logN, plan.Depth) {
				g, err := plan.Lower(e)
				if err != nil {
					t.Fatal(err)
				}
				before := g.Stats()
				res, err := opt.Optimize(e, g, nil)
				if err != nil {
					t.Fatal(err)
				}
				after := res.After
				got := sizeOf(after)
				shape := shapeDigest(res.Graph)
				t.Logf("%s %s: before=%+v after=%+v shape=%s", tc.name, e.Name(), sizeOf(before), got, shape)

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
				if shape != tc.shape {
					t.Errorf("%s %s: optimized graph shape %s, want %s", tc.name, e.Name(), shape, tc.shape)
				}
				if err := checkCanonicalRotations(g); err != nil {
					t.Errorf("%s %s: lowering: %v", tc.name, e.Name(), err)
				}
				// The acceptance floor: ≥15%% fewer engine calls than the
				// unoptimized lowering.
				if float64(after.EngineCalls) > 0.85*float64(before.EngineCalls) {
					t.Errorf("%s %s: engine calls %d → %d, reduction below 15%%",
						tc.name, e.Name(), before.EngineCalls, after.EngineCalls)
				}
				// Optimization must never deepen the circuit.
				if after.MinLevel < before.MinLevel {
					t.Errorf("%s %s: min level dropped %d → %d", tc.name, e.Name(), before.MinLevel, after.MinLevel)
				}
			}
		})
	}
}

// TestOptimizeOffPreservesLowering pins the parity reference: -opt=off
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
}

// TestShardedRowGiantSteps checks the row rule stage by stage: a
// ShardedLinear output row is one BSGS over its period p, so each of its
// distinct non-zero giant steps is rotated once, however many of the
// row's blocks have a diagonal there, and the row then folds
// log2(slots/p) times. A stage's standalone (non-hoisted) rotations must
// number Σ_rows |∪_blocks {(k mod p) / baby : k ∈ Diags} ∖ {0}| +
// log2(slots/p), with baby from split(p), computed from the plan's own
// blocks, in the lowering and after fuse; no other stage rotates outside
// a hoist group. Symbolic: no keys.
func TestShardedRowGiantSteps(t *testing.T) {
	// TestExecutorParityGoldenTiny's dense2 fixture: one row over 2 shards.
	dense2 := func(t *testing.T) *Plan {
		dense := &nn.Model{Layers: []nn.Layer{nn.NewDense(rand.New(rand.NewSource(32)), 1001, 10)}}
		sp, err := CompileSharded(dense, 512, shard.Grid{Gy: 1, Gx: 2})
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
	for _, tc := range []struct {
		name string
		logN int
		plan func(t *testing.T) *Plan
	}{
		{"cnn3/sharded4", 11, shardedAuto("cnn3", 1024)},
		{"cnn3/sharded2", 12, shardedAuto("cnn3", 2048)},
		{"dense2", 10, dense2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := tc.plan(t)
			if plan.NumShards() < 2 {
				t.Fatalf("%d shards, want a sharded plan", plan.NumShards())
			}
			want := map[string]int{}
			var perStage []int
			for i, s := range plan.Stages {
				lin, ok := s.(*ShardedLinear)
				if !ok {
					continue
				}
				n := 0
				for _, row := range lin.Blocks {
					b := shapeOf(row)
					giants := map[int]bool{}
					for _, blk := range row {
						if blk == nil {
							continue
						}
						for k := range blk.Diags {
							if g := k % b.p / b.baby; g != 0 {
								giants[g] = true
							}
						}
					}
					for f := b.p; f < plan.Slots; f *= 2 {
						n++ // one rotation per fold
					}
					n += len(giants)
				}
				want[fmt.Sprintf("stage %d (%s)", i, s.Describe())] = n
				perStage = append(perStage, n)
			}
			t.Logf("%s: standalone rotations per linear stage %v", tc.name, perStage)
			e := goldenEngines(t, tc.logN, plan.Depth)[0]
			lowered, err := plan.Lower(e)
			if err != nil {
				t.Fatal(err)
			}
			res, err := opt.Optimize(e, lowered, nil)
			if err != nil {
				t.Fatal(err)
			}
			for gi, g := range []*ir.Graph{lowered, res.Graph} {
				which := [...]string{"lowered", "optimized"}[gi]
				got := map[string]int{}
				for _, op := range g.Ops {
					if op.Kind == ir.OpRotate && op.Hoist < 0 {
						got[g.Stages[op.Stage].Name]++
					}
				}
				for name, n := range got {
					if _, ok := want[name]; !ok {
						t.Errorf("%s %s: %d standalone rotations outside a linear stage", which, name, n)
					}
				}
				for name, n := range want {
					if got[name] != n {
						t.Errorf("%s %s: %d standalone rotations, want %d (one per row and non-zero giant step)", which, name, got[name], n)
					}
				}
			}
		})
	}
}
