package henn

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"cnnhe/internal/ckks"
	"cnnhe/internal/henn/ir"
)

func TestLowerTinyModel(t *testing.T) {
	m := tinyModel(1)
	plan, err := Compile(m, 512)
	if err != nil {
		t.Fatal(err)
	}
	e := rnsEngineFor(t, plan, 10, []int{40, 30, 30, 30, 30})
	g, err := plan.Lower(e)
	if err != nil {
		t.Fatal(err)
	}
	if g.Inputs != 1 {
		t.Fatalf("inputs %d, want 1", g.Inputs)
	}
	if got, want := len(g.Stages), 1+len(plan.Stages); got != want {
		t.Fatalf("%d stages, want %d", got, want)
	}
	if g.Stages[0].Name != "encrypt" || g.Stages[0].Record {
		t.Fatalf("stage 0 = %+v, want unrecorded encrypt", g.Stages[0])
	}
	for i, s := range plan.Stages {
		name := g.Stages[i+1].Name
		if !strings.Contains(name, s.Describe()) || !strings.HasPrefix(name, "stage ") {
			t.Fatalf("stage %d lowered as %q", i, name)
		}
		if !g.Stages[i+1].Record {
			t.Fatalf("stage %d not recorded", i)
		}
		if g.Stages[i+1].Out < 0 {
			t.Fatalf("stage %d has no output op", i)
		}
	}
	// Static level inference: the output sits Depth rescales below the top.
	out := g.Ops[g.Output]
	if want := e.MaxLevel() - plan.Depth; out.Level != want {
		t.Fatalf("output level %d, want %d", out.Level, want)
	}
	st := g.Stats()
	if st.ByKind[ir.OpEncrypt] != 1 {
		t.Fatalf("%d encrypts, want 1", st.ByKind[ir.OpEncrypt])
	}
	if st.ByKind[ir.OpMulPlain] == 0 || st.ByKind[ir.OpRotate] == 0 || st.ByKind[ir.OpRescale] == 0 {
		t.Fatalf("implausible op mix: %+v", st.ByKind)
	}
	if st.Hoists == 0 {
		t.Fatal("no hoist groups lowered from RotateMany")
	}
}

// TestLowerRNSPlan pins the Fig. 5 front-end's shape: stage 0 is one
// block row over the digit parts, block i the base block's diagonals
// times Bⁱ, so the parts recompose in stage 0's giant-step sums with one
// hoist group per part, no OpRecombine and no rotation key beyond the
// base plan's. It also pins the digit base, the smallest B with Bᵏ ≥ 256.
func TestLowerRNSPlan(t *testing.T) {
	m := tinyModel(1)
	plan, err := Compile(m, 512)
	if err != nil {
		t.Fatal(err)
	}
	for k, base := range map[int]int64{1: 256, 2: 16, 3: 7, 8: 2, 13: 2} {
		rp, err := NewRNSPlan(plan, k)
		if err != nil {
			t.Fatal(err)
		}
		if rp.Digits.Base != base || rp.Digits.Digits != k {
			t.Errorf("k=%d: digit basis %+v, want base %d", k, *rp.Digits, base)
		}
	}
	rp, err := NewRNSPlan(plan, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rp.Rotations(), plan.Rotations()) {
		t.Fatalf("RNS rotations %v, want the base plan's %v", rp.Rotations(), plan.Rotations())
	}
	blk := plan.Stages[0].(*ShardedLinear).Blocks[0][0]
	row := rp.Stages[0].(*ShardedLinear).Blocks
	if len(row) != 1 || len(row[0]) != 3 {
		t.Fatalf("stage 0 has %d rows, want one row of 3 blocks", len(row))
	}
	for i, w := range rp.Digits.Weights() {
		part := row[0][i]
		if len(part.Diags) != len(blk.Diags) || !reflect.DeepEqual(part.Bias, blk.Bias) {
			t.Fatalf("block %d: %d diagonals, bias %v; want %d, %v", i, len(part.Diags), part.Bias, len(blk.Diags), blk.Bias)
		}
		for d, diag := range blk.Diags {
			for s, v := range diag {
				if part.Diags[d][s] != w*v {
					t.Fatalf("block %d diagonal %d slot %d = %g, want %g·%g", i, d, s, part.Diags[d][s], w, v)
				}
			}
		}
	}
	e := rnsEngineFor(t, plan, 10, []int{40, 30, 30, 30, 30})
	g, err := rp.Lower(e)
	if err != nil {
		t.Fatal(err)
	}
	if g.Inputs != 3 {
		t.Fatalf("inputs %d, want 3", g.Inputs)
	}
	if got, want := len(g.Stages), 3+len(rp.Stages); got != want {
		t.Fatalf("%d stages, want %d", got, want)
	}
	for i, st := range g.Stages {
		want := fmt.Sprintf("encrypt part %d", i)
		if i >= 3 {
			want = fmt.Sprintf("stage %d (%s)", i-3, rp.describeStage(i-3))
		}
		// Stage 0 reads the digit parts of one image, not shards.
		if parts := fmt.Sprintf("stage 0 (linear %s: 3 digit parts -> 1", rp.Stages[0].(*ShardedLinear).Label); i == 3 && !strings.HasPrefix(want, parts) {
			t.Fatalf("stage 0 named %q, want the prefix %q", want, parts)
		}
		if st.Name != want || st.Record != (i >= 3) {
			t.Fatalf("stage %d = %q (record %v), want %q", i, st.Name, st.Record, want)
		}
	}
	st := g.Stats()
	if st.ByKind[ir.OpEncrypt] != 3 || st.ByKind[ir.OpRecombine] != 0 {
		t.Fatalf("%d encrypts, %d recombines; want 3, 0", st.ByKind[ir.OpEncrypt], st.ByKind[ir.OpRecombine])
	}
	// One hoist group per part in stage 0, each rotating that part's
	// (dropped) input.
	sources := map[int]bool{}
	for _, members := range g.Hoists {
		if op := g.Ops[members[0]]; op.Stage == 3 {
			sources[op.Args[0]] = true
		}
	}
	if len(sources) != 3 {
		t.Fatalf("stage 0 hoists %d sources, want one per part", len(sources))
	}
}

func TestLowerDepthExhausted(t *testing.T) {
	m := tinyModel(1)
	plan, err := Compile(m, 512)
	if err != nil {
		t.Fatal(err)
	}
	// Two levels for a depth-4 plan: lowering must fail cleanly, not panic.
	p, err := ckks.NewParameters(10, []int{40, 30, 30}, 60, 1, math.Exp2(30))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewRNSEngine(p, plan.Rotations(), 501)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Lower(e); err == nil {
		t.Fatal("lowering a too-deep plan succeeded")
	} else if !strings.Contains(err.Error(), "level") {
		t.Fatalf("unexpected error: %v", err)
	}
}
