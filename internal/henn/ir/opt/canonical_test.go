package opt_test

import (
	"math"
	"testing"

	"cnnhe/internal/henn"
	"cnnhe/internal/henn/ir"
	"cnnhe/internal/henn/ir/opt"
	"cnnhe/internal/henn/shard"
)

// Lowering hands Optimize a canonical graph: repeated rotations shared,
// all-zero adds folded away, hoisted rotations grouped per source. These
// tests drive henn's tracer with hand-written stages and check the graph
// Optimize receives and returns.

// progStage is a stage whose evaluation is an arbitrary engine program.
type progStage func(e henn.Engine, in []henn.Ct) []henn.Ct

func (s progStage) Eval(e henn.Engine, in []henn.Ct) []henn.Ct { return s(e, in) }
func (progStage) Rotations() []int                             { return nil }
func (progStage) Depth() int                                   { return 0 }
func (progStage) Describe() string                             { return "prog" }

// lowerProg lowers the stages over `inputs` input ciphertexts, checks the
// optimizer keeps the lowering's rotations, and returns the lowered graph.
// The engine's chain is exactly as deep as the stages (0 levels): a
// spare level would be dropped before the first stage, and these programs
// carry ciphertexts from one stage into the next, which no real stage
// does.
func lowerProg(t *testing.T, inputs int, stages ...progStage) *ir.Graph {
	t.Helper()
	e := henn.ParamsOnlyEngine("params", 8, 0, math.Exp2(26), func(int) float64 { return math.Exp2(26) })
	p := &henn.Plan{Slots: 8, Input: shard.Manifest{Grid: shard.Grid{Gy: inputs, Gx: 1}}}
	for _, s := range stages {
		p.Stages = append(p.Stages, s)
	}
	g, err := p.Lower(e)
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Optimize(e, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b, a := res.Before, res.After; a.ByKind[ir.OpRotate] != b.ByKind[ir.OpRotate] || a.RotateCalls() != b.RotateCalls() || a.Hoists != b.Hoists {
		t.Fatalf("optimizer moved rotations: %s → %s", b, a)
	}
	return g
}

// rotations returns the graph's rotation ops.
func rotations(g *ir.Graph) []ir.Op {
	var out []ir.Op
	for _, op := range g.Ops {
		if op.Kind == ir.OpRotate {
			out = append(out, op)
		}
	}
	return out
}

// sum adds every ciphertext of cts.
func sum(e henn.Engine, cts ...henn.Ct) henn.Ct {
	acc := cts[0]
	for _, c := range cts[1:] {
		acc = e.Add(acc, c)
	}
	return acc
}

// A repeated hoisted (source, k) rotation, within one stage or across
// stages, returns the op already emitted.
func TestCSEMergesDuplicateRotations(t *testing.T) {
	g := lowerProg(t, 1, func(e henn.Engine, in []henn.Ct) []henn.Ct {
		r := e.RotateMany(in[0], []int{1, 2, 1, 0})
		if r[0] != in[0] {
			t.Fatal("RotateMany by 0 did not return its source")
		}
		return []henn.Ct{sum(e, r[0], r[1], r[2])}
	})
	if rs := rotations(g); len(rs) != 2 || len(g.Hoists) != 1 {
		t.Fatalf("want 2 rotations in 1 hoist group, got %d in %d", len(rs), len(g.Hoists))
	}

	var a, b henn.Ct
	g = lowerProg(t, 1,
		func(e henn.Engine, in []henn.Ct) []henn.Ct {
			a = e.RotateMany(in[0], []int{3})[3]
			return in
		},
		func(e henn.Engine, in []henn.Ct) []henn.Ct {
			b = e.RotateMany(in[0], []int{3, 5})[3]
			return []henn.Ct{e.Add(a, b)}
		},
	)
	if a != b {
		t.Fatal("a hoisted (source, k) repeated in a later stage was emitted twice")
	}
	if rs := rotations(g); len(rs) != 2 {
		t.Fatalf("want rotations by 3 and 5 once each, got %d rotations", len(rs))
	}
}

// A standalone Rotate and a hoisted rotation by the same k use different
// key-switch algorithms with different rounding, so neither replaces the
// other.
func TestCSEKeepsStandaloneAndHoistedApart(t *testing.T) {
	g := lowerProg(t, 1, func(e henn.Engine, in []henn.Ct) []henn.Ct {
		alone := e.Rotate(in[0], 1)
		hoisted := e.RotateMany(in[0], []int{1})[1]
		return []henn.Ct{e.Add(alone, hoisted)}
	})
	rs := rotations(g)
	if len(rs) != 2 || rs[0].Hoist != -1 || rs[1].Hoist != 0 {
		t.Fatalf("want one standalone and one hoisted rotation, got %+v", rs)
	}
}

// An all-zero AddPlain is the identity and emits nothing; a stage whose
// output it would have been reports its operand instead.
func TestFoldDropsZeroAddPlain(t *testing.T) {
	g := lowerProg(t, 1,
		func(e henn.Engine, in []henn.Ct) []henn.Ct {
			return []henn.Ct{e.AddPlainVecCached(in[0], "zero bias", make([]float64, 8))}
		},
		func(e henn.Engine, in []henn.Ct) []henn.Ct {
			z := e.AddPlainVec(in[0], []float64{0, math.Copysign(0, -1), 0, 0})
			return []henn.Ct{e.AddPlainVec(z, []float64{1, 0, 0, 0})}
		},
	)
	if got := g.Stats().ByKind[ir.OpAddPlain]; got != 1 {
		t.Fatalf("want only the non-zero AddPlain, got %d", got)
	}
	if out := g.Ops[g.Stages[1].Out]; out.Kind != ir.OpEncrypt {
		t.Fatalf("zero-add stage reports a %v, want its operand (the encrypt)", out.Kind)
	}
	if out := g.Ops[g.Output]; out.Kind != ir.OpAddPlain || out.Args[0] != g.Stages[1].Out {
		t.Fatalf("non-zero AddPlain not applied to the encrypt: %+v", out)
	}
}

// Hoisted rotations of one source join one group whichever stage asks
// for them, members in first-appearance order; standalone rotations
// stay outside.
func TestReplanMergesSameSourceHoistGroups(t *testing.T) {
	var src henn.Ct
	g := lowerProg(t, 1,
		func(e henn.Engine, in []henn.Ct) []henn.Ct {
			src = e.AddPlainVec(in[0], []float64{1, 2, 3, 4, 5, 6, 7, 8})
			r := e.RotateMany(src, []int{2})
			return []henn.Ct{sum(e, r[2], e.Rotate(src, 3))}
		},
		func(e henn.Engine, in []henn.Ct) []henn.Ct {
			r := e.RotateMany(src, []int{1, 4})
			return []henn.Ct{sum(e, in[0], r[1], r[4])}
		},
	)
	if len(g.Hoists) != 1 || len(g.Hoists[0]) != 3 {
		t.Fatalf("want one group of 3, got %v", g.Hoists)
	}
	var ks []int
	for _, m := range g.Hoists[0] {
		ks = append(ks, g.Ops[m].K)
	}
	if ks[0] != 2 || ks[1] != 1 || ks[2] != 4 {
		t.Fatalf("group members by k %v, want first appearance [2 1 4]", ks)
	}
	if got := g.Stats().RotateCalls(); got != 2 {
		t.Fatalf("want 2 rotation calls (1 group + 1 standalone), got %d", got)
	}
}

// Different sources get different groups, numbered by first appearance.
func TestReplanKeepsDifferentSourcesApart(t *testing.T) {
	g := lowerProg(t, 2, func(e henn.Engine, in []henn.Ct) []henn.Ct {
		b := e.RotateMany(in[1], []int{1})[1]
		a := e.RotateMany(in[0], []int{1, 2})
		return []henn.Ct{sum(e, a[1], a[2], b)}
	})
	if len(g.Hoists) != 2 || len(g.Hoists[0]) != 1 || len(g.Hoists[1]) != 2 {
		t.Fatalf("want groups of 1 (input 1) then 2 (input 0), got %v", g.Hoists)
	}
	if src := g.Ops[g.Ops[g.Hoists[0][0]].Args[0]]; src.InputIdx != 1 {
		t.Fatalf("group 0 rotates input %d, want 1", src.InputIdx)
	}
}
