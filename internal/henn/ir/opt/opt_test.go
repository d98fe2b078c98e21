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

// Op constructors for synthetic graphs. Hoist defaults to -1; levels and
// scales are filled by reinfer in mk.
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
func add(a, b int) ir.Op  { return ir.Op{Kind: ir.OpAdd, Args: []int{a, b}, Hoist: -1} }
func resc(a int) ir.Op    { return ir.Op{Kind: ir.OpRescale, Args: []int{a}, Hoist: -1} }
func drop(a, n int) ir.Op { return ir.Op{Kind: ir.OpDropLevel, Args: []int{a}, Drop: n, Hoist: -1} }
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
	if err := reinfer(fakeParams{}, g); err != nil {
		t.Fatalf("reinfer: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	return g
}

func run(t *testing.T, fn passFunc, g *ir.Graph, exact bool) *ir.Graph {
	t.Helper()
	out, err := fn(g, fakeParams{}, exact)
	if err != nil {
		t.Fatalf("pass: %v", err)
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("pass output invalid: %v", err)
	}
	return out
}

func TestCSEMergesDuplicateRotations(t *testing.T) {
	v := []float64{1, 2, 3, 4}
	// Two singleton hoist groups rotating the same source by the same k,
	// plus a duplicated MulPlain — all collapse; the add becomes (x, x).
	g := mk(t, 5, [][]int{{1}, {2}},
		enc(0),
		rot(0, 1, 0),
		rot(0, 1, 1),
		mulp(1, v, math.Exp2(26)),
		mulp(2, v, math.Exp2(26)),
		add(3, 4),
	)
	out := run(t, passCSE, g, true)
	if got := out.Stats(); got.ByKind[ir.OpRotate] != 1 || got.ByKind[ir.OpMulPlain] != 1 {
		t.Fatalf("want 1 rotate / 1 mulplain after CSE, got %s", got)
	}
	if len(out.Hoists) != 1 {
		t.Fatalf("want 1 hoist group, got %d", len(out.Hoists))
	}
}

func TestCSENeverMergesEncrypts(t *testing.T) {
	g := mk(t, 2, nil, enc(0), enc(0), add(0, 1))
	out := run(t, passCSE, g, true)
	if got := out.Stats().ByKind[ir.OpEncrypt]; got != 2 {
		t.Fatalf("encrypts must never merge (fresh randomness), got %d", got)
	}
}

func TestCSEKeepsStandaloneAndHoistedApart(t *testing.T) {
	// Same (source, k) but different key-switch algorithms: not mergeable.
	g := mk(t, 3, [][]int{{2}},
		enc(0),
		rot(0, 1, -1),
		rot(0, 1, 0),
		add(1, 2),
	)
	out := run(t, passCSE, g, true)
	if got := out.Stats().ByKind[ir.OpRotate]; got != 2 {
		t.Fatalf("standalone and hoisted rotations must not merge, got %d rotations", got)
	}
}

func TestCSEDistinguishesPlainContent(t *testing.T) {
	g := mk(t, 3, nil,
		enc(0),
		mulp(0, []float64{1, 2, 3, 4}, math.Exp2(26)),
		mulp(0, []float64{1, 2, 3, 5}, math.Exp2(26)),
		add(1, 2),
	)
	out := run(t, passCSE, g, true)
	if got := out.Stats().ByKind[ir.OpMulPlain]; got != 2 {
		t.Fatalf("different plaintext contents merged: %d mulplains", got)
	}
}

func TestDCEDropsUnreachableKeepsEncrypts(t *testing.T) {
	v := []float64{1, 1, 1, 1}
	g := mk(t, 3, nil,
		enc(0),
		enc(0),        // unused but pinned (PRNG call order)
		rot(1, 5, -1), // unreachable from output: dropped
		mulp(0, v, math.Exp2(26)),
	)
	out := run(t, passDCE, g, true)
	st := out.Stats()
	if st.ByKind[ir.OpEncrypt] != 2 {
		t.Fatalf("DCE dropped a pinned encrypt: %s", st)
	}
	if st.ByKind[ir.OpRotate] != 0 {
		t.Fatalf("DCE kept an unreachable rotation: %s", st)
	}
	if out.Stages[0].Out != out.Output {
		t.Fatalf("stage out not remapped: %d vs %d", out.Stages[0].Out, out.Output)
	}
}

func TestDCEKeepsStageOutputs(t *testing.T) {
	v := []float64{1, 1, 1, 1}
	g := mk(t, 2, nil,
		enc(0),
		mulp(0, v, math.Exp2(26)), // only referenced by an extra stage row
		mulp(0, v, math.Exp2(26)),
	)
	g.Stages = append(g.Stages, ir.StageInfo{Name: "extra", Out: 1, Record: true})
	out := run(t, passDCE, g, true)
	if got := out.Stats().ByKind[ir.OpMulPlain]; got != 2 {
		t.Fatalf("DCE dropped a stage output: %d mulplains", got)
	}
}

func TestReplanMergesSameSourceHoistGroups(t *testing.T) {
	// Two singleton groups over the same source merge into one fan-out;
	// the standalone rotation is untouched.
	g := mk(t, 5, [][]int{{1}, {2}},
		enc(0),
		rot(0, 1, 0),
		rot(0, 2, 1),
		rot(0, 3, -1),
		add(1, 2),
		add(4, 3),
	)
	out := run(t, passReplan, g, true)
	if len(out.Hoists) != 1 || len(out.Hoists[0]) != 2 {
		t.Fatalf("want one merged group of 2, got %v", out.Hoists)
	}
	var standalone int
	for _, op := range out.Ops {
		if op.Kind == ir.OpRotate && op.Hoist == -1 {
			standalone++
		}
	}
	if standalone != 1 {
		t.Fatalf("standalone rotation count changed: %d", standalone)
	}
	if got := out.Stats(); got.RotateCalls() != 2 {
		t.Fatalf("want 2 rotation calls (1 group + 1 standalone), got %d", got.RotateCalls())
	}
}

func TestReplanKeepsDifferentSourcesApart(t *testing.T) {
	g := mk(t, 4, [][]int{{2}, {3}},
		enc(0),
		enc(0),
		rot(0, 1, 0),
		rot(1, 1, 1),
		add(2, 3),
	)
	out := run(t, passReplan, g, true)
	if len(out.Hoists) != 2 {
		t.Fatalf("groups over different sources merged: %v", out.Hoists)
	}
}

func TestRescaleSinkPastAdd(t *testing.T) {
	v := []float64{1, 2, 3, 4}
	g := mk(t, 5, nil,
		enc(0),
		mulp(0, v, math.Exp2(26)),
		mulp(0, v, math.Exp2(26)),
		resc(1),
		resc(2),
		add(3, 4),
	)
	out := run(t, passRescale, g, false)
	st := out.Stats()
	if st.ByKind[ir.OpRescale] != 1 {
		t.Fatalf("want 1 trailing rescale, got %s", st)
	}
	final := out.Ops[out.Output]
	if final.Kind != ir.OpRescale {
		t.Fatalf("output should be the trailing rescale, got %v", final.Kind)
	}
	if sum := out.Ops[final.Args[0]]; sum.Kind != ir.OpAdd {
		t.Fatalf("trailing rescale should wrap the sum, got %v", sum.Kind)
	}
	if final.Level != 6 || !scaleClose(final.Scale, math.Exp2(26)) {
		t.Fatalf("trailing rescale at (level %d, scale 2^%.2f)", final.Level, math.Log2(final.Scale))
	}
}

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
	out := run(t, passRescale, g, true)
	if got := out.Stats().ByKind[ir.OpRescale]; got != 2 {
		t.Fatalf("rescale sink must not fire in exact mode, got %d rescales", got)
	}
}

func TestDropLevelSinkIsExact(t *testing.T) {
	g := mk(t, 4, nil,
		enc(0),
		drop(0, 2),
		drop(0, 2),
		add(1, 2),
		rot(3, 1, -1),
	)
	out := run(t, passRescale, g, true) // exact mode: droplevel sink still fires
	st := out.Stats()
	if st.ByKind[ir.OpDropLevel] != 1 {
		t.Fatalf("want 1 trailing droplevel, got %s", st)
	}
	if st.MinLevel != 5 {
		t.Fatalf("level inference after sink: min level %d, want 5", st.MinLevel)
	}
}

func TestRescaleSinkSkipsSharedArgs(t *testing.T) {
	v := []float64{1, 2, 3, 4}
	g := mk(t, 5, nil,
		enc(0),
		mulp(0, v, math.Exp2(26)),
		mulp(0, v, math.Exp2(26)),
		resc(1),
		resc(2),
		add(3, 4),
	)
	// A second consumer of one rescale blocks the sink (use > 1).
	g.Ops = append(g.Ops, rot(3, 1, -1))
	g.Ops[len(g.Ops)-1].ID = len(g.Ops) - 1
	g.Ops[len(g.Ops)-1].Stage = 0
	if err := reinfer(fakeParams{}, g); err != nil {
		t.Fatal(err)
	}
	out := run(t, passRescale, g, false)
	if got := out.Stats().ByKind[ir.OpRescale]; got != 2 {
		t.Fatalf("sink fired through a shared rescale: %d rescales", got)
	}
}

func TestRescaleSinkRepointsStageRows(t *testing.T) {
	v := []float64{1, 2, 3, 4}
	g := mk(t, 5, nil,
		enc(0),
		mulp(0, v, math.Exp2(26)),
		mulp(0, v, math.Exp2(26)),
		resc(1),
		resc(2),
		add(3, 4),
	)
	// A stage row on a sunk rescale follows the trailing op (the rns
	// parts / recompose shape).
	g.Stages = append(g.Stages, ir.StageInfo{Name: "parts", Out: 3, Record: true})
	out := run(t, passRescale, g, false)
	if out.Stages[1].Out != out.Output {
		t.Fatalf("sunk stage row not re-pointed at trailing op: %d vs %d",
			out.Stages[1].Out, out.Output)
	}
}

func TestFoldDropsZeroAddPlain(t *testing.T) {
	g := mk(t, 2, nil,
		enc(0),
		addp(0, []float64{0, 0, 0, 0}),
		rot(1, 1, -1),
	)
	out := run(t, passFold, g, true) // exact: zero-add elision is bit-exact
	if got := out.Stats().ByKind[ir.OpAddPlain]; got != 0 {
		t.Fatalf("zero AddPlain survived: %d", got)
	}
	if out.Ops[out.Ops[out.Output].Args[0]].Kind != ir.OpEncrypt {
		t.Fatal("rotation not re-pointed at the encrypt")
	}
}

func TestFoldMergesPlainChains(t *testing.T) {
	s := math.Exp2(26)
	g := mk(t, 4, nil,
		enc(0),
		mulp(0, []float64{2, 2, 2, 2}, s),
		mulp(1, []float64{3, 3, 3, 3}, s),
		addp(2, []float64{1, 1, 1, 1}),
		addp(3, []float64{4, 4, 4, 4}),
	)
	out := run(t, passFold, g, false)
	st := out.Stats()
	if st.ByKind[ir.OpMulPlain] != 1 || st.ByKind[ir.OpAddPlain] != 1 {
		t.Fatalf("chains not merged: %s", st)
	}
	var mp, ap *ir.Op
	for i := range out.Ops {
		switch out.Ops[i].Kind {
		case ir.OpMulPlain:
			mp = &out.Ops[i]
		case ir.OpAddPlain:
			ap = &out.Ops[i]
		}
	}
	if mp.Plain[0] != 6 || mp.PtScale != s*s {
		t.Fatalf("mulplain merge wrong: v=%v scale=2^%.0f", mp.Plain[0], math.Log2(mp.PtScale))
	}
	if ap.Plain[0] != 5 {
		t.Fatalf("addplain merge wrong: %v", ap.Plain[0])
	}
}

func TestFoldMergesLongChains(t *testing.T) {
	// A ≥3-long same-kind chain: each fixpoint round must absorb only
	// ops whose consumer is actually emitted that round (an absorber
	// must never itself be absorbed, or its consumer merges against a
	// dropped op). Collapses fully over iterations.
	g := mk(t, 4, nil,
		enc(0),
		addp(0, []float64{1, 1, 1, 1}),
		addp(1, []float64{2, 2, 2, 2}),
		addp(2, []float64{3, 3, 3, 3}),
		addp(3, []float64{4, 4, 4, 4}),
	)
	out := run(t, passFold, g, false)
	if got := out.Stats().ByKind[ir.OpAddPlain]; got != 1 {
		t.Fatalf("4-long chain not fully merged: %d addplains", got)
	}
	if final := out.Ops[out.Output]; final.Plain[0] != 10 {
		t.Fatalf("merged constant %v, want 10", final.Plain[0])
	}

	s := math.Exp2(26)
	g2 := mk(t, 3, nil,
		enc(0),
		mulp(0, []float64{2, 2, 2, 2}, s),
		mulp(1, []float64{3, 3, 3, 3}, s),
		mulp(2, []float64{4, 4, 4, 4}, s),
	)
	out2 := run(t, passFold, g2, false)
	if got := out2.Stats().ByKind[ir.OpMulPlain]; got != 1 {
		t.Fatalf("3-long mul chain not fully merged: %d mulplains", got)
	}
	if final := out2.Ops[out2.Output]; final.Plain[0] != 24 || !scaleClose(final.PtScale, s*s*s) {
		t.Fatalf("merged product %v at scale 2^%.0f, want 24 at 2^78",
			final.Plain[0], math.Log2(final.PtScale))
	}
}

func TestFoldKeepsStageOutputChainOps(t *testing.T) {
	// The inner op of a foldable chain is a recorded stage output:
	// absorbing it would leave the stage row dangling, so it must stay.
	g := mk(t, 2, nil,
		enc(0),
		addp(0, []float64{1, 1, 1, 1}),
		addp(1, []float64{2, 2, 2, 2}),
	)
	g.Stages = append(g.Stages, ir.StageInfo{Name: "mid", Out: 1, Record: true})
	out := run(t, passFold, g, false)
	if got := out.Stats().ByKind[ir.OpAddPlain]; got != 2 {
		t.Fatalf("stage-output chain op folded away: %d addplains", got)
	}
	mid := out.Ops[out.Stages[1].Out]
	if mid.Kind != ir.OpAddPlain || mid.Plain[0] != 1 {
		t.Fatalf("stage row points at %v (plain %v), want the original AddPlain", mid.Kind, mid.Plain)
	}
}

func TestFoldChainMergeSkippedInExactMode(t *testing.T) {
	g := mk(t, 2, nil,
		enc(0),
		addp(0, []float64{1, 1, 1, 1}),
		addp(1, []float64{4, 4, 4, 4}),
	)
	out := run(t, passFold, g, true)
	if got := out.Stats().ByKind[ir.OpAddPlain]; got != 2 {
		t.Fatalf("chain merge fired in exact mode: %d addplains", got)
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
	out := run(t, passFuse, g, true)
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
	out := run(t, passFuse, g, true)
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
	out := run(t, passFuse, g, true)
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
	out2 := run(t, passFuse, g2, true)
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
	if res.Setting != "off" {
		t.Fatalf("setting %q", res.Setting)
	}
}

func TestOptimizeDefaultPipeline(t *testing.T) {
	v := []float64{1, 2, 3, 4}
	s := math.Exp2(26)
	g := mk(t, 8, [][]int{{1}, {2}},
		enc(0),
		rot(0, 1, 0),
		rot(0, 1, 1), // CSE dup of op 1
		mulp(1, v, s),
		mulp(2, v, s), // becomes dup after CSE
		add(3, 4),
		addp(5, []float64{0, 0, 0, 0}), // zero add: folded away
		rot(0, 9, -1),                  // dead standalone rotation
		resc(6),
	)
	res, err := Optimize(fakeParams{}, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(res.Passes) != len(DefaultPasses) {
		t.Fatalf("ran %d passes, want %d", len(res.Passes), len(DefaultPasses))
	}
	st := res.Graph.Stats()
	if st.ByKind[ir.OpRotate] != 1 || st.ByKind[ir.OpMulPlain] != 1 || st.ByKind[ir.OpAddPlain] != 0 {
		t.Fatalf("pipeline result: %s", st)
	}
	if res.After.Ops >= res.Before.Ops {
		t.Fatalf("no reduction: %d → %d", res.Before.Ops, res.After.Ops)
	}
	if !strings.Contains(res.Summary(), "ops") {
		t.Fatalf("summary: %q", res.Summary())
	}
}

func TestOptimizeRejectsUnknownPass(t *testing.T) {
	g := mk(t, 1, nil, enc(0), rot(0, 1, -1))
	if _, err := Optimize(fakeParams{}, g, &Options{Passes: []string{"nope"}}); err == nil {
		t.Fatal("unknown pass accepted")
	}
}

func TestParseFlag(t *testing.T) {
	if o, err := ParseFlag("on"); err != nil || o != nil {
		t.Fatalf("on: %v %v", o, err)
	}
	if o, err := ParseFlag("off"); err != nil || !o.Off {
		t.Fatalf("off: %v %v", o, err)
	}
	if o, err := ParseFlag("exact"); err != nil || !o.Exact {
		t.Fatalf("exact: %v %v", o, err)
	}
	o, err := ParseFlag("cse,dce")
	if err != nil || len(o.Passes) != 2 {
		t.Fatalf("list: %v %v", o, err)
	}
	if _, err := ParseFlag("cse,bogus"); err == nil {
		t.Fatal("bogus pass accepted")
	}
	if got := o.Setting(); got != "on (cse,dce)" {
		t.Fatalf("setting %q", got)
	}
	if got := (&Options{Exact: true}).Setting(); got != "exact (cse,fold,replan,rescale,fuse,dce)" {
		t.Fatalf("setting %q", got)
	}
	var none *Options
	if got := none.Setting(); got != "on (cse,fold,replan,rescale,fuse,dce)" {
		t.Fatalf("nil setting %q", got)
	}
}
