package henn

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime/debug"
	"testing"

	"cnnhe/internal/ckks"
	"cnnhe/internal/ckksbig"
	"cnnhe/internal/henn/ir/opt"
	"cnnhe/internal/henn/shard"
	"cnnhe/internal/nn"
)

// The golden executor digests freeze what every front-end computes. The
// oracle-vs-executor parity suite proves two interpreters agree with each
// other; a change both sides share would pass it. These digests pin the
// answer itself: SHA-256 over the raw float64 bits of the logits followed
// by the ordered report stage names, per configuration and backend. Key
// generation and encryption are seeded, so every bit is reproducible.
// A digest moves only when the arithmetic, the lowered graph or a stage
// name does; update the table deliberately, never to make a refactor pass.

// goldenDigest hashes logits (all images, in order) and stage names.
func goldenDigest(logits []Logits, rep *Report) string {
	h := sha256.New()
	var b [8]byte
	for _, lg := range logits {
		for _, v := range lg {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	for _, s := range rep.Stages {
		h.Write([]byte(s.Stage))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenPlan is the part of a compiled front-end a golden leg drives.
type goldenPlan interface {
	InferCtx(ctx context.Context, e Engine, image []float64) (Logits, *Report, error)
}

// engineFor builds a fresh, seeded engine holding the given rotation keys.
type engineFor func(rots []int) Engine

// goldenLeg is one pinned configuration: it compiles its own plan (so no
// prepared graph outlives the leg), keys an engine for it and infers.
type goldenLeg struct {
	name string
	run  func(ctx context.Context, mk engineFor) ([]Logits, *Report, error)
}

// singleLeg runs one image through the plan build returns, on an engine
// keyed for the rotations it returns.
func singleLeg(name string, img []float64, build func() (goldenPlan, []int)) goldenLeg {
	return goldenLeg{name, func(ctx context.Context, mk engineFor) ([]Logits, *Report, error) {
		p, rots := build()
		lg, rep, err := p.InferCtx(ctx, mk(rots), img)
		return []Logits{lg}, rep, err
	}}
}

// frontEndLegs builds the plan (-opt off/on), RNS k=3 (-opt on/off) and
// sharded legs for one model. The RNS and sharded legs run on one
// executor worker per input ciphertext; their digests were recorded on a
// single worker, so they also pin that the concurrent schedule changes no
// bit.
func frontEndLegs(t *testing.T, m *nn.Model, slots int, grid shard.Grid, img []float64) []goldenLeg {
	compile := func() *Plan {
		p, err := Compile(m, slots)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	var legs []goldenLeg
	for _, mode := range parityModes() {
		mode := mode
		legs = append(legs, singleLeg("plan/"+mode.name, img, func() (goldenPlan, []int) {
			p := compile()
			p.Opt = mode.opts
			return p, p.Rotations()
		}))
	}
	for _, leg := range []struct {
		name string
		opts *opt.Options
	}{{"rns3", nil}, {"rns3/off", opt.Disabled()}} {
		leg := leg
		legs = append(legs, singleLeg(leg.name, img, func() (goldenPlan, []int) {
			base := compile()
			rp, err := NewRNSPlan(base, 3)
			if err != nil {
				t.Fatal(err)
			}
			rp.Opt = leg.opts
			return rp, base.Rotations()
		}))
	}
	legs = append(legs, singleLeg("sharded", img, func() (goldenPlan, []int) {
		sp, err := CompileSharded(m, slots, grid)
		if err != nil {
			t.Fatal(err)
		}
		if sp.NumShards() != grid.Gy*grid.Gx {
			t.Fatalf("%d shards, want %d", sp.NumShards(), grid.Gy*grid.Gx)
		}
		return sp, sp.Rotations()
	}))
	return legs
}

// runGolden evaluates every leg on each backend and compares its digest
// with the table.
func runGolden(t *testing.T, legs []goldenLeg, engines map[string]engineFor, want map[string]string) {
	ctx := context.Background()
	for _, backend := range []string{"rns", "big"} {
		mk, ok := engines[backend]
		if !ok {
			continue
		}
		for _, leg := range legs {
			key := backend + "/" + leg.name
			lg, rep, err := leg.run(ctx, mk)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if got := goldenDigest(lg, rep); got != want[key] {
				t.Errorf("%s: digest %s, want %s", key, got, want[key])
			}
			debug.FreeOSMemory()
		}
	}
}

func goldenParams(t *testing.T, logN int, bits []int) ckks.Parameters {
	p, err := ckks.NewParameters(logN, bits, 60, 1, math.Exp2(30))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func goldenRNS(t *testing.T, p ckks.Parameters, seed int64) engineFor {
	return func(rots []int) Engine {
		e, err := NewRNSEngine(p, rots, seed)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
}

func goldenBig(t *testing.T, p ckks.Parameters, seed int64) engineFor {
	bp, err := ckksbig.FromRNSParameters(p)
	if err != nil {
		t.Fatal(err)
	}
	return func(rots []int) Engine {
		e, err := NewBigEngine(bp, rots, seed)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
}

// TestExecutorParityGoldenTiny pins the tiny model on both backends, plus
// the batch-2 packed plan and the two-shard cross-shard dense fixture of
// TestShardedCrossShardDense.
func TestExecutorParityGoldenTiny(t *testing.T) {
	m := tinyModel(1)
	img := testImage(rand.New(rand.NewSource(81)), 64)
	batch := [][]float64{img, testImage(rand.New(rand.NewSource(82)), 64)}
	legs := append(frontEndLegs(t, m, 512, shard.Grid{Gy: 2, Gx: 1}, img), goldenLeg{"batch2",
		func(ctx context.Context, mk engineFor) ([]Logits, *Report, error) {
			bp, err := CompileBatched(m, 512, 2)
			if err != nil {
				return nil, nil, err
			}
			return bp.InferBatchCtx(ctx, mk(bp.Plan.Rotations()), batch)
		}})
	p := goldenParams(t, 10, []int{40, 30, 30, 30, 30})
	runGolden(t, legs, map[string]engineFor{"rns": goldenRNS(t, p, 811), "big": goldenBig(t, p, 812)},
		map[string]string{
			"rns/plan/opt=off": "492fd3cde5f5b7566120ab974b7c9a6de396447cc9c54d056848eec5df2401db",
			"rns/plan/opt=on":  "492fd3cde5f5b7566120ab974b7c9a6de396447cc9c54d056848eec5df2401db",
			"rns/rns3":         "1d5fc9fc74df3ff688cf3d397af233002a290963f4f44150d98d4eb0efe38ed4",
			"rns/rns3/off":     "1d5fc9fc74df3ff688cf3d397af233002a290963f4f44150d98d4eb0efe38ed4",
			"rns/sharded":      "50ab95d30d4b48441f9290bdb4f7b40fb6cab9b762183393f5630d5797addaf4",
			"rns/batch2":       "eee3b41f9cc0ce5a18a41e36a3eb5e797ffe3787c3d0c02710f30ec610fbdc21",
			"big/plan/opt=off": "263fdcf1a8b4e21663400754548236a5972ce330d4d5ea76929d17b6e6dfaca1",
			"big/plan/opt=on":  "263fdcf1a8b4e21663400754548236a5972ce330d4d5ea76929d17b6e6dfaca1",
			"big/rns3":         "7a6c2937687fe71525a986442109c3c6569bdb48b873bb68de085d0e4d26a649",
			"big/rns3/off":     "7a6c2937687fe71525a986442109c3c6569bdb48b873bb68de085d0e4d26a649",
			"big/sharded":      "e1ed361b87af81d0fc743b04e17815f30427a50f618012416bf25cce7b5b4bbd",
			"big/batch2":       "f7fb3ae8dd4ef14100850e0d3e5ce4682f132df1cbbfedf86d9150106ba9163c",
		})

	rng := rand.New(rand.NewSource(32))
	dense := &nn.Model{Layers: []nn.Layer{nn.NewDense(rng, 1001, 10)}}
	denseLeg := singleLeg("dense2", testImage(rng, 1001), func() (goldenPlan, []int) {
		sp, err := CompileSharded(dense, 512, shard.Grid{Gy: 1, Gx: 2})
		if err != nil {
			t.Fatal(err)
		}
		return sp, sp.Rotations()
	})
	runGolden(t, []goldenLeg{denseLeg},
		map[string]engineFor{"rns": goldenRNS(t, goldenParams(t, 10, []int{40, 30, 30}), 813)},
		map[string]string{"rns/dense2": "6ead9aef32236e870cef37faf94fc800d4c0a60078d7a2e9aaa0e63f094fb3e1"})
}

// TestExecutorParityGoldenCNN1 pins the paper's CNN1 shape at logN 11 on
// the RNS backend (CNN-scale multiprecision runs belong to the benchmark
// suite, as in the other parity tests).
func TestExecutorParityGoldenCNN1(t *testing.T) {
	if testing.Short() {
		t.Skip("CNN-scale parity skipped in short mode")
	}
	m := paperShardModel("cnn1")
	plan, err := Compile(m, 1024)
	if err != nil {
		t.Fatal(err)
	}
	legs := frontEndLegs(t, m, 1024, shard.Grid{Gy: 2, Gx: 1}, testImage(rand.New(rand.NewSource(83)), 784))
	runGolden(t, legs, map[string]engineFor{"rns": goldenRNS(t, goldenParams(t, 11, parityChain(plan.Depth)), 814)},
		map[string]string{
			"rns/plan/opt=off": "6d51db2217489c4e9fc2f6a6e3858010d8939944686e09866737ca701e2f24f1",
			"rns/plan/opt=on":  "6d51db2217489c4e9fc2f6a6e3858010d8939944686e09866737ca701e2f24f1",
			"rns/rns3":         "f843b3b3b55cbfd3884383a6efb779f3950bbb03bbd39dccc3cdafa557f8c1ac",
			"rns/rns3/off":     "f843b3b3b55cbfd3884383a6efb779f3950bbb03bbd39dccc3cdafa557f8c1ac",
			"rns/sharded":      "97f2b031b531af78532712a2223b781464322a51b4aa9f4189dd43b0076f7c3f",
		})
}
