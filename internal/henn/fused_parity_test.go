package henn

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"runtime/debug"
	"testing"

	"cnnhe/internal/ckks"
	"cnnhe/internal/henn/exec"
	"cnnhe/internal/henn/ir"
	"cnnhe/internal/henn/shard"
)

// The fused-vs-fallback parity suite. The executor evaluates every
// OpRecombine together with the products it absorbs through ir.Combine:
// one call on an engine offering ir.PlainRecombiner, MulPlainPt per
// product and Recombine on one offering only ir.Recombiner. Both must leave the same bits: the
// same optimized graph is prepared twice over ONE backend — once as is,
// once behind a wrapper that hides PlainRecombine — fed the same encrypted
// inputs, and the serialized output ciphertexts compared.

// chainOnly hides everything but ir.Engine and ir.Recombiner, forcing the
// executor's unfused path on the wrapped backend.
type chainOnly struct{ Engine }

func (c chainOnly) Recombine(args []Ct, weights []int64) Ct {
	return c.Engine.(ir.Recombiner).Recombine(args, weights)
}

func checkFusedParity(t *testing.T, e *RNSEngine, lowered *ir.Graph, inputs [][]float64) {
	t.Helper()
	res, err := optimizeLowered(e, lowered, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := res.Graph
	// The fixture must exercise what it claims to: absorbed products,
	// and recombines that mix them with other arguments.
	absorbed, mixed := 0, 0
	by := g.AbsorbedBy()
	for i := range g.Ops {
		if by[i] >= 0 {
			absorbed++
		}
		if g.Ops[i].Kind != ir.OpRecombine {
			continue
		}
		in, out := 0, 0
		for _, a := range g.Ops[i].Args {
			if by[a] == i {
				in++
			} else {
				out++
			}
		}
		if in > 0 && out > 0 {
			mixed++
		}
	}
	if absorbed == 0 || mixed == 0 {
		t.Fatalf("fixture has %d absorbed products and %d mixed-argument recombines; want both > 0", absorbed, mixed)
	}
	if st := g.Stats(); st.EngineCalls != st.Ops-absorbed-(st.ByKind[ir.OpRotate]-st.RotateCalls()) {
		t.Fatalf("Stats counts %d engine calls for %d ops, %d absorbed, %d rotations in %d calls",
			st.EngineCalls, st.Ops, absorbed, st.ByKind[ir.OpRotate], st.RotateCalls())
	}

	// One Prepared at a time: at CNN3 scale the pre-encoded plaintext set
	// is gigabytes, so the fused leg's is released before the chain leg
	// encodes its own. The encrypted inputs are shared.
	ctx := context.Background()
	var cts []ir.Ct
	type outcome struct {
		out    []byte
		stages []exec.StageStat
	}
	leg := func(eng Engine) outcome {
		pr, err := exec.Prepare(eng, g)
		if err != nil {
			t.Fatal(err)
		}
		if cts == nil {
			if cts, _, _, err = pr.EncryptInputs(ctx, inputs); err != nil {
				t.Fatal(err)
			}
		}
		res, err := pr.RunEncrypted(ctx, cts, exec.Options{})
		if err != nil {
			t.Fatalf("%T: %v", eng, err)
		}
		var b bytes.Buffer
		if err := e.Ctx.WriteCiphertext(&b, res.Out.(*ckks.Ciphertext)); err != nil {
			t.Fatal(err)
		}
		return outcome{b.Bytes(), res.Stages}
	}
	fused := leg(e)
	debug.FreeOSMemory()
	chain := leg(chainOnly{e})
	debug.FreeOSMemory()
	if !bytes.Equal(fused.out, chain.out) {
		t.Fatal("fused output ciphertext differs from the MulPlainPt+Recombine chain's")
	}
	if len(fused.stages) != len(chain.stages) {
		t.Fatalf("%d vs %d stage rows", len(fused.stages), len(chain.stages))
	}
	for j := range fused.stages {
		f, c := fused.stages[j], chain.stages[j]
		if f.Name != c.Name || f.Level != c.Level || f.Scale != c.Scale || f.Ops != c.Ops {
			t.Fatalf("stage row %d: fused %+v, chain %+v", j, f, c)
		}
	}
}

func parityChain(depth int) []int {
	bits := make([]int, depth+2)
	bits[0] = 40
	for i := 1; i < len(bits); i++ {
		bits[i] = 30
	}
	return bits
}

// TestExecutorParityFusedTiny runs in short mode too: the tiny model
// unsharded, and over a 2×1 shard grid whose block rows sum both shards'
// products per giant step, mixing absorbed and plain arguments.
func TestExecutorParityFusedTiny(t *testing.T) {
	plan, err := Compile(tinyModel(1), 512)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := CompileSharded(tinyModel(1), 512, shard.Grid{Gy: 2, Gx: 1})
	if err != nil {
		t.Fatal(err)
	}
	params, err := ckks.NewParameters(10, []int{40, 30, 30, 30, 30}, 60, 1, math.Exp2(30))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewRNSEngine(params, rotsUnion(plan.Rotations(), sp.Rotations()), 611)
	if err != nil {
		t.Fatal(err)
	}
	img := testImage(rand.New(rand.NewSource(15)), plan.InputDim)

	g, err := plan.Lower(e)
	if err != nil {
		t.Fatal(err)
	}
	checkFusedParity(t, e, g, [][]float64{img})

	g, err = sp.Lower(e)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := sp.Input.Split(img)
	if err != nil {
		t.Fatal(err)
	}
	checkFusedParity(t, e, g, parts)
}

// TestExecutorParityFusedCNN covers the two benchmark shapes: CNN1 on one
// ciphertext and CIFAR-10 CNN3 over two shards.
func TestExecutorParityFusedCNN(t *testing.T) {
	if testing.Short() {
		t.Skip("CNN-scale parity skipped in short mode")
	}
	t.Run("cnn1", func(t *testing.T) {
		plan := paperModel(t, "cnn1", 1024)
		params, err := ckks.NewParameters(11, parityChain(plan.Depth), 60, 1, math.Exp2(30))
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewRNSEngine(params, plan.Rotations(), 612)
		if err != nil {
			t.Fatal(err)
		}
		g, err := plan.Lower(e)
		if err != nil {
			t.Fatal(err)
		}
		checkFusedParity(t, e, g, [][]float64{testImage(rand.New(rand.NewSource(16)), plan.InputDim)})
	})
	t.Run("cnn3-2shards", func(t *testing.T) {
		sp, err := CompileShardedAuto(paperShardModel("cnn3"), 2048)
		if err != nil {
			t.Fatal(err)
		}
		if sp.NumShards() != 2 {
			t.Fatalf("%d shards, want 2", sp.NumShards())
		}
		params, err := ckks.NewParameters(12, parityChain(sp.Depth), 60, 1, math.Exp2(30))
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewRNSEngine(params, sp.Rotations(), 613)
		if err != nil {
			t.Fatal(err)
		}
		g, err := sp.Lower(e)
		if err != nil {
			t.Fatal(err)
		}
		parts, err := sp.Input.Split(testImage(rand.New(rand.NewSource(17)), sp.InputDim))
		if err != nil {
			t.Fatal(err)
		}
		checkFusedParity(t, e, g, parts)
	})
}

// TestFusedCallCapability pins who offers the fused calls: both RNS
// engines offer PlainRecombine, so the keyed route's guard delegates its
// linear stages instead of unrolling them; the big-integer baseline (the
// paper's CNN-HE stays the baseline and is the in-tree fallback fixture)
// offers neither call, so ir.Combine runs its chain. Only the full engine
// adds Recombine: the benchmark decorator forwards that call alone, and
// its TestTracedEngineKeepsOptionalInterfaces pins that the
// evaluation-only engine has none.
func TestFusedCallCapability(t *testing.T) {
	for name, e := range map[string]Engine{"RNSEngine": &RNSEngine{}, "RNSEvalEngine": &RNSEvalEngine{}} {
		if _, ok := e.(ir.PlainRecombiner); !ok {
			t.Errorf("%s lost PlainRecombine", name)
		}
	}
	if _, ok := Engine(&BigEngine{}).(ir.PlainRecombiner); ok {
		t.Error("BigEngine gained PlainRecombine")
	}
	if _, ok := Engine(&BigEngine{}).(ir.Recombiner); ok {
		t.Error("BigEngine gained Recombine")
	}
	if _, ok := Engine(&RNSEngine{}).(ir.Recombiner); !ok {
		t.Error("RNSEngine lost Recombine")
	}
	if _, ok := Engine(&RNSEvalEngine{}).(ir.Recombiner); ok {
		t.Error("RNSEvalEngine gained Recombine")
	}
}
