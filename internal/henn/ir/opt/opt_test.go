package opt

import (
	"math"
	"strings"
	"testing"

	"cnnhe/internal/henn/ir"
)

type fakeParams struct{}

func (fakeParams) MaxLevel() int             { return 7 }
func (fakeParams) Scale() float64            { return math.Exp2(26) }
func (fakeParams) QiFloat(level int) float64 { return math.Exp2(26) }

// derive sets every op's (level, scale) through ir.Graph.Derive.
func derive(g *ir.Graph) error {
	for i := range g.Ops {
		if err := g.Derive(fakeParams{}, i); err != nil {
			return err
		}
	}
	return nil
}

// Op constructors for synthetic graphs. Hoist defaults to -1; levels and
// scales are filled by derive in mk.
func enc(idx int) ir.Op { return ir.Op{Kind: ir.OpEncrypt, InputIdx: idx, Hoist: -1} }
func rot(arg, k, hoist int) ir.Op {
	return ir.Op{Kind: ir.OpRotate, Args: []int{arg}, K: k, Hoist: hoist}
}
func mulp(arg int, v []float64, scale float64) ir.Op {
	return ir.Op{Kind: ir.OpMulPlain, Args: []int{arg}, Plain: v, PtScale: scale, Hoist: -1}
}
func addp(arg int, v []float64) ir.Op {
	return ir.Op{Kind: ir.OpAddPlain, Args: []int{arg}, Plain: v, Hoist: -1}
}
func add(a, b int) ir.Op { return ir.Op{Kind: ir.OpAdd, Args: []int{a, b}, Hoist: -1} }
func resc(a int) ir.Op   { return ir.Op{Kind: ir.OpRescale, Args: []int{a}, Hoist: -1} }
func recomb(args []int, w []int64) ir.Op {
	return ir.Op{Kind: ir.OpRecombine, Args: args, Weights: w, Hoist: -1}
}

// mk assembles a one-stage graph, infers levels/scales, and validates.
func mk(t *testing.T, output int, hoists [][]int, ops ...ir.Op) *ir.Graph {
	t.Helper()
	inputs := 1
	for i := range ops {
		ops[i].ID = i
		if ops[i].Kind == ir.OpEncrypt && ops[i].InputIdx >= inputs {
			inputs = ops[i].InputIdx + 1
		}
	}
	g := &ir.Graph{
		Slots:  4,
		Inputs: inputs,
		Ops:    ops,
		Output: output,
		Stages: []ir.StageInfo{{Name: "s", Out: output, Record: true}},
		Hoists: hoists,
	}
	if err := derive(g); err != nil {
		t.Fatalf("derive: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	return g
}

// optimize runs the default pipeline and validates its output.
func optimize(t *testing.T, g *ir.Graph) *ir.Graph {
	t.Helper()
	res, err := Optimize(fakeParams{}, g, nil)
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	if err := res.Graph.Validate(); err != nil {
		t.Fatalf("optimized graph invalid: %v", err)
	}
	return res.Graph
}

// fuse runs the fuse pass alone and validates its output.
func fuse(t *testing.T, g *ir.Graph) *ir.Graph {
	t.Helper()
	out, err := passFuse(g, fakeParams{})
	if err != nil {
		t.Fatalf("fuse: %v", err)
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("fused graph invalid: %v", err)
	}
	return out
}

// The optimizer must never merge encrypts: each is a fresh-randomness
// PRNG call and the prologue's call order is part of the bit-parity
// contract between optimized and unoptimized runs.
func TestCSENeverMergesEncrypts(t *testing.T) {
	g := mk(t, 2, nil, enc(0), enc(0), add(0, 1))
	if got := optimize(t, g).Stats().ByKind[ir.OpEncrypt]; got != 2 {
		t.Fatalf("encrypts must never merge (fresh randomness), got %d", got)
	}
}

// An op that only a stage row references stays: the report reads it.
func TestDCEKeepsStageOutputs(t *testing.T) {
	v := []float64{1, 1, 1, 1}
	g := mk(t, 2, nil,
		enc(0),
		mulp(0, v, math.Exp2(26)), // only referenced by an extra stage row
		mulp(0, v, math.Exp2(26)),
	)
	g.Stages = append(g.Stages, ir.StageInfo{Name: "extra", Out: 1, Record: true})
	out := optimize(t, g)
	if got := out.Stats().ByKind[ir.OpMulPlain]; got != 2 {
		t.Fatalf("optimizer dropped a stage output: %d mulplains", got)
	}
	if mid := out.Ops[out.Stages[1].Out]; mid.Kind != ir.OpMulPlain {
		t.Fatalf("stage row points at %v, want the MulPlain", mid.Kind)
	}
}

// Every optimized run must equal -opt=off bit for bit, so the optimizer
// never sinks a rescale past a sum: rounding once after the sum instead
// of once per addend changes the bits.
func TestRescaleSinkSkippedInExactMode(t *testing.T) {
	v := []float64{1, 2, 3, 4}
	g := mk(t, 5, nil,
		enc(0),
		mulp(0, v, math.Exp2(26)),
		mulp(0, v, math.Exp2(26)),
		resc(1),
		resc(2),
		add(3, 4),
	)
	if got := optimize(t, g).Stats().ByKind[ir.OpRescale]; got != 2 {
		t.Fatalf("rescale sunk past a sum: %d rescales", got)
	}
}

// Nor does it merge plaintext chains: one encoding of v1+v2 rounds
// differently from two encodings.
func TestFoldChainMergeSkippedInExactMode(t *testing.T) {
	s := math.Exp2(26)
	g := mk(t, 4, nil,
		enc(0),
		addp(0, []float64{1, 1, 1, 1}),
		addp(1, []float64{4, 4, 4, 4}),
		mulp(2, []float64{2, 2, 2, 2}, s),
		mulp(3, []float64{3, 3, 3, 3}, s),
	)
	st := optimize(t, g).Stats()
	if st.ByKind[ir.OpAddPlain] != 2 || st.ByKind[ir.OpMulPlain] != 2 {
		t.Fatalf("plaintext chain merged: %s", st)
	}
}

func TestFuseReductionTree(t *testing.T) {
	v := []float64{1, 2, 3, 4}
	s := math.Exp2(26)
	g := mk(t, 7, nil,
		enc(0),
		mulp(0, v, s),
		mulp(0, []float64{2, 2, 2, 2}, s),
		mulp(0, []float64{3, 3, 3, 3}, s),
		mulp(0, []float64{4, 4, 4, 4}, s),
		add(1, 2),
		add(5, 3),
		add(6, 4),
	)
	out := fuse(t, g)
	st := out.Stats()
	if st.ByKind[ir.OpAdd] != 0 || st.ByKind[ir.OpRecombine] != 1 {
		t.Fatalf("tree not fused: %s", st)
	}
	rc := out.Ops[out.Output]
	if len(rc.Args) != 4 {
		t.Fatalf("fused recombine has %d leaves, want 4", len(rc.Args))
	}
	for i, w := range rc.Weights {
		if w != 1 {
			t.Fatalf("weight[%d] = %d, want 1", i, w)
		}
	}
	// 3 add calls become 1 fused call, which also absorbs its 4
	// single-use weight-1 products: encrypt + one PlainRecombine remain.
	if before, after := g.Stats().EngineCalls, st.EngineCalls; before != 8 || after != 2 {
		t.Fatalf("engine calls %d → %d, want 8 → 2", before, after)
	}
}

func TestFuseAccumulatesNestedWeights(t *testing.T) {
	v := []float64{1, 1, 1, 1}
	s := math.Exp2(26)
	g := mk(t, 5, nil,
		enc(0),
		mulp(0, v, s),
		mulp(0, []float64{2, 2, 2, 2}, s),
		mulp(0, []float64{3, 3, 3, 3}, s),
		recomb([]int{1, 2}, []int64{1, 5}),
		add(4, 3),
	)
	out := fuse(t, g)
	rc := out.Ops[out.Output]
	if rc.Kind != ir.OpRecombine || len(rc.Args) != 3 {
		t.Fatalf("nested recombine not fused: %+v", rc)
	}
	want := []int64{1, 5, 1}
	for i, w := range rc.Weights {
		if w != want[i] {
			t.Fatalf("weights %v, want %v", rc.Weights, want)
		}
	}
}

func TestFuseLeavesSmallAndSharedTreesAlone(t *testing.T) {
	v := []float64{1, 1, 1, 1}
	s := math.Exp2(26)
	// Two leaves only: below the fusion threshold.
	g := mk(t, 3, nil, enc(0), mulp(0, v, s), mulp(0, []float64{2, 2, 2, 2}, s), add(1, 2))
	out := fuse(t, g)
	if got := out.Stats().ByKind[ir.OpAdd]; got != 1 {
		t.Fatalf("2-leaf add fused: %s", out.Stats())
	}
	// Interior node that is also a stage output: must stay materialized.
	g2 := mk(t, 6, nil,
		enc(0),
		mulp(0, v, s),
		mulp(0, []float64{2, 2, 2, 2}, s),
		mulp(0, []float64{3, 3, 3, 3}, s),
		add(1, 2),
		add(4, 3),
		rot(5, 1, -1),
	)
	g2.Stages = append(g2.Stages, ir.StageInfo{Name: "mid", Out: 4, Record: true})
	out2 := fuse(t, g2)
	found := false
	for _, op := range out2.Ops {
		if op.ID == out2.Stages[1].Out && op.Kind == ir.OpAdd {
			found = true
		}
	}
	if !found {
		t.Fatalf("stage-output add was absorbed: %s", out2.Stats())
	}
}

func TestOptimizeOffReturnsInputGraph(t *testing.T) {
	g := mk(t, 1, nil, enc(0), rot(0, 1, -1))
	res, err := Optimize(fakeParams{}, g, Disabled())
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph != g {
		t.Fatal("-opt=off must return the input graph unchanged")
	}
	if res.After.Ops != res.Before.Ops {
		t.Fatalf("stats moved: %d → %d ops", res.Before.Ops, res.After.Ops)
	}
}

func TestOptimizeDefaultPipeline(t *testing.T) {
	v := []float64{1, 2, 3, 4}
	s := math.Exp2(26)
	// A hoisted fan-out, a standalone rotation and a 3-leaf reduction
	// tree: the tree fuses, everything else passes through.
	g := mk(t, 9, [][]int{{1, 2}},
		enc(0),
		rot(0, 1, 0),
		rot(0, 2, 0),
		rot(0, 3, -1),
		mulp(1, v, s),
		mulp(2, v, s),
		mulp(3, v, s),
		add(4, 5),
		add(7, 6),
		resc(8),
	)
	res, err := Optimize(fakeParams{}, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	st := res.Graph.Stats()
	if st.ByKind[ir.OpRotate] != 3 || st.Hoists != 1 || st.ByKind[ir.OpAdd] != 0 || st.ByKind[ir.OpRecombine] != 1 {
		t.Fatalf("pipeline result: %s", st)
	}
	if res.After.Ops != st.Ops || res.Before.Ops != len(g.Ops) {
		t.Fatalf("result stats: before %s, after %s", res.Before, res.After)
	}
	if res.After.EngineCalls >= res.Before.EngineCalls {
		t.Fatalf("no reduction: %d → %d engine calls", res.Before.EngineCalls, res.After.EngineCalls)
	}
}

func TestParseFlag(t *testing.T) {
	for _, s := range []string{"", "on"} {
		if o, err := ParseFlag(s); err != nil || o != nil {
			t.Fatalf("%q: %v %v", s, o, err)
		}
	}
	o, err := ParseFlag("off")
	if err != nil || !o.Off {
		t.Fatalf("off: %v %v", o, err)
	}
	if got := o.Setting(); got != "off" {
		t.Fatalf("off setting %q", got)
	}
	var none *Options
	if got := none.Setting(); got != "on" {
		t.Fatalf("nil setting %q", got)
	}
	for _, s := range []string{"exact", "cse,dce", "fuse", "bogus"} {
		_, err := ParseFlag(s)
		if err == nil {
			t.Fatalf("%q accepted", s)
		}
		if msg := err.Error(); !strings.Contains(msg, "on or off") {
			t.Fatalf("%q: error %q does not name on and off", s, msg)
		}
	}
}

func TestMulInt64Overflow(t *testing.T) {
	for _, tc := range []struct {
		a, b int64
		want int64
		ok   bool
	}{
		{3, -4, -12, true},
		{math.MaxInt64, 1, math.MaxInt64, true},
		{math.MinInt64, 1, math.MinInt64, true},
		{-1, math.MaxInt64, -math.MaxInt64, true},
		{0, math.MinInt64, 0, true},
		{math.MinInt64, -1, 0, false},
		{-1, math.MinInt64, 0, false},
		{math.MaxInt64, 2, 0, false},
		{2, math.MaxInt64, 0, false},
		{math.MinInt64, 2, 0, false},
	} {
		ok := true
		got := mulInt64(tc.a, tc.b, &ok)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("mulInt64(%d, %d) = %d, ok=%v; want %d, ok=%v", tc.a, tc.b, got, ok, tc.want, tc.ok)
		}
	}
}

// A nested recombine whose accumulated weight multiplies MinInt64 by −1
// must stay unfused: the wrapped product would compute another sum.
func TestFuseRejectsMinInt64Weights(t *testing.T) {
	v := []float64{1, 1, 1, 1}
	s := math.Exp2(26)
	g := mk(t, 5, nil,
		enc(0),
		mulp(0, v, s),
		mulp(0, []float64{2, 2, 2, 2}, s),
		recomb([]int{1, 2}, []int64{1, -1}),
		mulp(0, []float64{3, 3, 3, 3}, s),
		recomb([]int{4, 3}, []int64{1, math.MinInt64}),
	)
	out := fuse(t, g)
	if got := out.Stats().ByKind[ir.OpRecombine]; got != 2 {
		t.Fatalf("MinInt64·−1 weight fused: %d recombines, want the 2 of the chain", got)
	}
}
