package henn

import (
	"fmt"
	"math"

	"cnnhe/internal/henn/ir"
)

// This file lowers a compiled Plan to the explicit op graph of
// internal/henn/ir. Lowering runs the plan's steps (Stage.Eval and the
// RNS front-end) against a symbolic tracing engine whose ciphertexts
// carry only an op ID and the statically inferred (level, scale).
// Because every engine primitive transforms level and scale by a fixed
// arithmetic rule (see the ir package doc), the trace is exact: the
// levels and scales recorded here are precisely those a real backend
// with the same parameters produces when the executor replays the graph.
// Inference never runs the steps on a real engine; it runs the graph.

// traceCt is the tracer's symbolic ciphertext: the ID of the producing
// op plus the statically inferred level and scale of its output.
type traceCt struct {
	id    int
	level int
	scale float64
}

// tracer implements Engine symbolically. Parameter queries (Slots,
// MaxLevel, Scale, QiFloat) delegate to the real engine; ciphertext ops
// append ir.Ops to the graph under construction. Invalid programs —
// level mismatches, rescaling at level 0, scale drift — panic with an
// error value that Lower recovers into a compile-time error.
type tracer struct {
	e     Engine
	g     *ir.Graph
	stage int
	// hoistOf maps a hoisted rotation source to its hoist group, and
	// rotated maps (source, k) to the hoisted rotation already emitted.
	hoistOf map[int]int
	rotated map[[2]int]*traceCt
}

func newTracer(e Engine, inputs int) *tracer {
	return &tracer{
		e:       e,
		g:       &ir.Graph{Slots: e.Slots(), Inputs: inputs, Output: -1},
		stage:   -1,
		hoistOf: map[int]int{},
		rotated: map[[2]int]*traceCt{},
	}
}

// beginStage opens a new stage group; subsequent ops belong to it.
func (t *tracer) beginStage(name string, record bool) {
	t.g.Stages = append(t.g.Stages, ir.StageInfo{Name: name, Out: -1, Record: record})
	t.stage = len(t.g.Stages) - 1
}

// setStageOut marks the op whose output is the current stage's result.
func (t *tracer) setStageOut(id int) {
	t.g.Stages[t.stage].Out = id
}

// emit appends op to the graph and returns its symbolic result.
func (t *tracer) emit(op ir.Op) *traceCt {
	op.ID = len(t.g.Ops)
	op.Stage = t.stage
	t.g.Ops = append(t.g.Ops, op)
	return &traceCt{id: op.ID, level: op.Level, scale: op.Scale}
}

// encrypt emits the OpEncrypt for input slot inputIdx. Fresh ciphertexts
// start at MaxLevel with the engine's default scale.
func (t *tracer) encrypt(inputIdx int) *traceCt {
	return t.emit(ir.Op{
		Kind:     ir.OpEncrypt,
		InputIdx: inputIdx,
		Hoist:    -1,
		Level:    t.e.MaxLevel(),
		Scale:    t.e.Scale(),
	})
}

// in unwraps a symbolic ciphertext, failing the trace on foreign handles.
func (t *tracer) in(op string, ct Ct) *traceCt {
	c, ok := ct.(*traceCt)
	if !ok {
		panic(fmt.Errorf("henn: lower: %s received a non-traced ciphertext %T", op, ct))
	}
	return c
}

// traceScaleClose mirrors the backends' scale tolerance (relative 2^-40).
func traceScaleClose(a, b float64) bool {
	return math.Abs(a-b) <= math.Max(a, b)*math.Exp2(-40)
}

// Name implements Engine.
func (t *tracer) Name() string { return "trace(" + t.e.Name() + ")" }

// Slots implements Engine.
func (t *tracer) Slots() int { return t.e.Slots() }

// MaxLevel implements Engine.
func (t *tracer) MaxLevel() int { return t.e.MaxLevel() }

// Scale implements Engine.
func (t *tracer) Scale() float64 { return t.e.Scale() }

// QiFloat implements Engine.
func (t *tracer) QiFloat(level int) float64 { return t.e.QiFloat(level) }

// Level implements Engine.
func (t *tracer) Level(ct Ct) int { return t.in("Level", ct).level }

// ScaleOf implements Engine.
func (t *tracer) ScaleOf(ct Ct) float64 { return t.in("ScaleOf", ct).scale }

// EncryptVec implements Engine. Stages never encrypt — the inference
// driver does — so a traced EncryptVec is a structural bug.
func (t *tracer) EncryptVec(values []float64) Ct {
	panic(fmt.Errorf("henn: lower: EncryptVec called inside a stage"))
}

// DecryptVec implements Engine. Decryption happens after the graph's
// output, never inside a stage.
func (t *tracer) DecryptVec(ct Ct) []float64 {
	panic(fmt.Errorf("henn: lower: DecryptVec called inside a stage"))
}

// Add implements Engine.
func (t *tracer) Add(a, b Ct) Ct {
	x, y := t.in("Add", a), t.in("Add", b)
	if x.level != y.level {
		panic(fmt.Errorf("henn: lower: Add level mismatch %d vs %d", x.level, y.level))
	}
	if !traceScaleClose(x.scale, y.scale) {
		panic(fmt.Errorf("henn: lower: Add scale mismatch 2^%.2f vs 2^%.2f",
			math.Log2(x.scale), math.Log2(y.scale)))
	}
	return t.emit(ir.Op{
		Kind: ir.OpAdd, Args: []int{x.id, y.id}, Hoist: -1,
		Level: x.level, Scale: x.scale,
	})
}

// addPlain emits an OpAddPlain; the plaintext encodes at the operand's
// exact (level, scale), so the sum keeps both. An all-zero vector encodes
// to the zero polynomial, so adding it is the identity and, like a
// rotation by 0, emits nothing.
func (t *tracer) addPlain(op string, ct Ct, key string, v []float64) Ct {
	x := t.in(op, ct)
	if allZero(v) {
		return x
	}
	return t.emit(ir.Op{
		Kind: ir.OpAddPlain, Args: []int{x.id}, Hoist: -1,
		Plain: v, PlainKey: key, PtScale: x.scale,
		Level: x.level, Scale: x.scale,
	})
}

// AddPlainVec implements Engine.
func (t *tracer) AddPlainVec(ct Ct, v []float64) Ct {
	return t.addPlain("AddPlainVec", ct, "", v)
}

// AddPlainVecCached implements Engine.
func (t *tracer) AddPlainVecCached(ct Ct, key string, v []float64) Ct {
	return t.addPlain("AddPlainVecCached", ct, key, v)
}

// mulPlain emits an OpMulPlain at an explicit plaintext scale.
func (t *tracer) mulPlain(op string, ct Ct, key string, v []float64, scale float64) Ct {
	x := t.in(op, ct)
	if scale <= 0 || math.IsInf(scale, 0) || math.IsNaN(scale) {
		panic(fmt.Errorf("henn: lower: %s plaintext scale %v", op, scale))
	}
	return t.emit(ir.Op{
		Kind: ir.OpMulPlain, Args: []int{x.id}, Hoist: -1,
		Plain: v, PlainKey: key, PtScale: scale,
		Level: x.level, Scale: x.scale * scale,
	})
}

// MulPlainVecAtScale implements Engine.
func (t *tracer) MulPlainVecAtScale(ct Ct, v []float64, scale float64) Ct {
	return t.mulPlain("MulPlainVecAtScale", ct, "", v, scale)
}

// MulPlainVecCached implements Engine.
func (t *tracer) MulPlainVecCached(ct Ct, key string, v []float64, scale float64) Ct {
	return t.mulPlain("MulPlainVecCached", ct, key, v, scale)
}

// MulRelin implements Engine.
func (t *tracer) MulRelin(a, b Ct) Ct {
	x, y := t.in("MulRelin", a), t.in("MulRelin", b)
	if x.level != y.level {
		panic(fmt.Errorf("henn: lower: MulRelin level mismatch %d vs %d", x.level, y.level))
	}
	return t.emit(ir.Op{
		Kind: ir.OpMulRelin, Args: []int{x.id, y.id}, Hoist: -1,
		Level: x.level, Scale: x.scale * y.scale,
	})
}

// MulInt implements Engine. Integer recombination lowers to OpRecombine
// through Recombine; no stage multiplies by a bare integer.
func (t *tracer) MulInt(ct Ct, n int64) Ct {
	panic(fmt.Errorf("henn: lower: MulInt called inside a stage (recombination lowers to OpRecombine)"))
}

// Recombine implements ir.Recombiner symbolically, so cross-shard block
// sums and the RNS recomposition lower to one OpRecombine (the executor
// evaluates the op through ir.Combine).
func (t *tracer) Recombine(args []Ct, weights []int64) Ct {
	if len(args) == 0 || len(weights) != len(args) {
		panic(fmt.Errorf("henn: lower: Recombine with %d args, %d weights", len(args), len(weights)))
	}
	if weights[0] != 1 {
		panic(fmt.Errorf("henn: lower: Recombine weight[0] = %d, want 1", weights[0]))
	}
	first := t.in("Recombine", args[0])
	ids := make([]int, len(args))
	for i, a := range args {
		x := t.in("Recombine", a)
		if x.level != first.level {
			panic(fmt.Errorf("henn: lower: Recombine level mismatch %d vs %d", x.level, first.level))
		}
		if !traceScaleClose(x.scale, first.scale) {
			panic(fmt.Errorf("henn: lower: Recombine scale mismatch 2^%.2f vs 2^%.2f",
				math.Log2(x.scale), math.Log2(first.scale)))
		}
		ids[i] = x.id
	}
	return t.emit(ir.Op{
		Kind: ir.OpRecombine, Args: ids, Weights: append([]int64(nil), weights...), Hoist: -1,
		Level: first.level, Scale: first.scale,
	})
}

// Rescale implements Engine.
func (t *tracer) Rescale(ct Ct) Ct {
	x := t.in("Rescale", ct)
	if x.level <= 0 {
		panic(fmt.Errorf("henn: lower: Rescale at level 0 (modulus chain exhausted)"))
	}
	return t.emit(ir.Op{
		Kind: ir.OpRescale, Args: []int{x.id}, Hoist: -1,
		Level: x.level - 1, Scale: x.scale / t.e.QiFloat(x.level),
	})
}

// DropLevel implements Engine.
func (t *tracer) DropLevel(ct Ct, n int) Ct {
	x := t.in("DropLevel", ct)
	if n < 0 || x.level-n < 0 {
		panic(fmt.Errorf("henn: lower: DropLevel by %d from level %d", n, x.level))
	}
	return t.emit(ir.Op{
		Kind: ir.OpDropLevel, Args: []int{x.id}, Drop: n, Hoist: -1,
		Level: x.level - n, Scale: x.scale,
	})
}

// Rotate implements Engine. Rotation by 0 is the identity, mirroring the
// backends, so no op is emitted.
func (t *tracer) Rotate(ct Ct, k int) Ct {
	x := t.in("Rotate", ct)
	if k == 0 {
		return x
	}
	return t.emit(ir.Op{
		Kind: ir.OpRotate, Args: []int{x.id}, K: k, Hoist: -1,
		Level: x.level, Scale: x.scale,
	})
}

// RotateMany implements Engine. Lowering is canonical: every hoisted
// rotation of one source ciphertext joins that source's single hoist
// group, whichever stage asks for it, so one key-switch decomposition
// serves the whole fan-out; a repeated (source, k) returns the rotation
// already emitted. Group ids and member order follow first appearance.
// Grouped and singleton hoisted rotations are bit-identical per k on
// both backends (TestRotateHoistedGroupingBitIdentical), so grouping
// changes the decomposition count, never bits. A standalone Rotate is
// never merged with a hoisted one: the two key-switch algorithms round
// differently.
func (t *tracer) RotateMany(ct Ct, ks []int) map[int]Ct {
	x := t.in("RotateMany", ct)
	out := make(map[int]Ct, len(ks))
	for _, k := range ks {
		if k == 0 {
			out[0] = x
			continue
		}
		if c, ok := t.rotated[[2]int{x.id, k}]; ok {
			out[k] = c
			continue
		}
		h, ok := t.hoistOf[x.id]
		if !ok {
			h = len(t.g.Hoists)
			t.hoistOf[x.id] = h
			t.g.Hoists = append(t.g.Hoists, nil)
		}
		c := t.emit(ir.Op{
			Kind: ir.OpRotate, Args: []int{x.id}, K: k, Hoist: h,
			Level: x.level, Scale: x.scale,
		})
		t.g.Hoists[h] = append(t.g.Hoists[h], c.id)
		t.rotated[[2]int{x.id, k}] = c
		out[k] = c
	}
	return out
}

// EncodeVecsAt implements Engine. Encoding is a Prepare-time activity;
// traced stages only reference plaintext vectors symbolically.
func (t *tracer) EncodeVecsAt(specs []PlainSpec) []Pt {
	panic(fmt.Errorf("henn: lower: EncodeVecsAt called inside a stage"))
}

// MulPlainPt implements Engine.
func (t *tracer) MulPlainPt(ct Ct, pt Pt) Ct {
	panic(fmt.Errorf("henn: lower: MulPlainPt called inside a stage (stages use the vector forms)"))
}

// AddPlainPt implements Engine.
func (t *tracer) AddPlainPt(ct Ct, pt Pt) Ct {
	panic(fmt.Errorf("henn: lower: AddPlainPt called inside a stage (stages use the vector forms)"))
}

var (
	_ Engine        = (*tracer)(nil)
	_ ir.Recombiner = (*tracer)(nil)
)

func allZero(v []float64) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// recoverLowerErr converts a trace panic into a lowering error. Error
// values panic through unwrapped; other panics are formatted.
func recoverLowerErr(err *error) {
	if r := recover(); r != nil {
		if e, ok := r.(error); ok {
			*err = fmt.Errorf("henn: lower: %w", e)
			return
		}
		*err = fmt.Errorf("henn: lower: %v", r)
	}
}

// step is one recorded pipeline step over the current shard set, which
// Lower runs against the symbolic tracer.
type step struct {
	name string
	eval func(e Engine, in []Ct) []Ct
}

// steps lists the plan's recorded steps in order. With the RNS front-end
// the first linear stage runs once per digit part (bias on part 0 only,
// by the linearity argument of §4) and the parts recombine with exact
// integer weights before the remaining stages run on the recomposed
// ciphertext.
func (p *Plan) steps() []step {
	var out []step
	stages, first := p.Stages, 0
	if p.Digits != nil {
		lin := p.Stages[0].(*ShardedLinear)
		weights := make([]int64, p.Digits.Digits)
		for i, w := range p.Digits.Weights() {
			weights[i] = int64(w)
		}
		out = append(out,
			step{"rns parts", func(e Engine, in []Ct) []Ct {
				parts := make([]Ct, len(in))
				for i, ct := range in {
					parts[i] = lin.eval(e, []Ct{ct}, i == 0)[0]
				}
				return parts
			}},
			step{"rns recompose", func(e Engine, in []Ct) []Ct {
				return []Ct{recombine(e, in, weights)}
			}})
		stages, first = stages[1:], 1
	}
	for i, s := range stages {
		out = append(out, step{fmt.Sprintf("stage %d (%s)", first+i, s.Describe()), s.Eval})
	}
	return out
}

// encryptName names the encrypt step of input ciphertext i.
func (p *Plan) encryptName(i int) string {
	switch {
	case p.Digits != nil:
		return fmt.Sprintf("encrypt part %d", i)
	case p.NumShards() > 1:
		return fmt.Sprintf("encrypt shard %d", i)
	}
	return "encrypt"
}

// numInputs is the input ciphertext count: digit parts or shards.
func (p *Plan) numInputs() int {
	if p.Digits != nil {
		return p.Digits.Digits
	}
	return p.NumShards()
}

// Lower compiles the plan into an explicit ir.Graph for the parameters
// of e (slots, modulus chain, default scale), with one input per shard
// (or digit part). The graph is engine-shape specific but data
// independent: one lowering serves every inference on that engine.
// Structural problems — modulus chain too short for the plan's depth,
// scale drift, level mismatches — surface here as errors rather than
// mid-inference panics.
func (p *Plan) Lower(e Engine) (g *ir.Graph, err error) {
	defer recoverLowerErr(&err)
	if len(p.Stages) == 0 {
		return nil, fmt.Errorf("henn: lower: plan has no stages")
	}
	t := newTracer(e, p.numInputs())
	cur := make([]Ct, p.numInputs())
	for i := range cur {
		t.beginStage(p.encryptName(i), false)
		ct := t.encrypt(i)
		t.setStageOut(ct.id)
		cur[i] = ct
	}
	for _, s := range p.steps() {
		t.beginStage(s.name, true)
		cur = s.eval(t, cur)
		t.setStageOut(t.in("stage output", cur[0]).id)
	}
	if len(cur) != 1 {
		return nil, fmt.Errorf("henn: lower: pipeline ended on %d shards", len(cur))
	}
	t.g.Output = t.in("graph output", cur[0]).id
	if err := t.g.Validate(); err != nil {
		return nil, err
	}
	return t.g, nil
}
