package henn

import (
	"fmt"
	"math"

	"cnnhe/internal/henn/ir"
)

// This file lowers a compiled Plan to the explicit op graph of
// internal/henn/ir. Lowering runs the plan's stages (Stage.Eval) against
// a symbolic tracing engine whose ciphertexts carry only an op ID.
// Every op it emits gets its (level, scale) from ir.Graph.Derive, the
// fixed arithmetic rule every engine primitive follows (see the ir
// package doc), so the trace is exact: the levels and scales recorded
// here are precisely those a real backend with the same parameters
// produces when the executor replays the graph, which checks each one.
// Inference never runs the stages on a real engine; it runs the graph.

// traceCt is the tracer's symbolic ciphertext: the ID of the producing
// op, whose graph node holds its level and scale.
type traceCt struct{ id int }

// tracer implements Engine symbolically. Parameter queries (Slots,
// MaxLevel, Scale, QiFloat) delegate to the real engine; ciphertext ops
// append ir.Ops to the graph under construction. Invalid programs —
// level mismatches, rescaling at level 0, scale drift — panic with
// Derive's error, which Lower recovers into a compile-time error.
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

// emit appends op to the graph, derives its (level, scale) and returns
// its symbolic result.
func (t *tracer) emit(op ir.Op) *traceCt {
	op.ID = len(t.g.Ops)
	op.Stage = t.stage
	t.g.Ops = append(t.g.Ops, op)
	if err := t.g.Derive(t.e, op.ID); err != nil {
		panic(err)
	}
	return &traceCt{id: op.ID}
}

// op returns the graph node behind a symbolic ciphertext.
func (t *tracer) op(name string, ct Ct) *ir.Op { return &t.g.Ops[t.in(name, ct).id] }

// encrypt emits the OpEncrypt for input slot inputIdx. Fresh ciphertexts
// start at MaxLevel with the engine's default scale, spare levels
// included, so the input level is a property of the parameters alone.
// Lower drops them at the top of the first stage (dropTo).
func (t *tracer) encrypt(inputIdx int) *traceCt {
	return t.emit(ir.Op{Kind: ir.OpEncrypt, InputIdx: inputIdx, Hoist: -1})
}

// dropTo lowers every ciphertext of cts that sits above level to it, one
// DropLevel each, in place.
func (t *tracer) dropTo(cts []Ct, level int) {
	for i, ct := range cts {
		if n := t.op("DropLevel", ct).Level - level; n > 0 {
			cts[i] = t.DropLevel(ct, n)
		}
	}
}

// in unwraps a symbolic ciphertext, failing the trace on foreign handles.
func (t *tracer) in(op string, ct Ct) *traceCt {
	c, ok := ct.(*traceCt)
	if !ok {
		panic(fmt.Errorf("henn: lower: %s received a non-traced ciphertext %T", op, ct))
	}
	return c
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
func (t *tracer) Level(ct Ct) int { return t.op("Level", ct).Level }

// ScaleOf implements Engine.
func (t *tracer) ScaleOf(ct Ct) float64 { return t.op("ScaleOf", ct).Scale }

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
	return t.emit(ir.Op{Kind: ir.OpAdd, Args: []int{t.in("Add", a).id, t.in("Add", b).id}, Hoist: -1})
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
	return t.emit(ir.Op{Kind: ir.OpAddPlain, Args: []int{x.id}, Hoist: -1, Plain: v, PlainKey: key})
}

// AddPlainVec implements Engine.
func (t *tracer) AddPlainVec(ct Ct, v []float64) Ct {
	return t.addPlain("AddPlainVec", ct, "", v)
}

// AddPlainVecCached implements Engine.
func (t *tracer) AddPlainVecCached(ct Ct, key string, v []float64) Ct {
	return t.addPlain("AddPlainVecCached", ct, key, v)
}

// mulPlain emits an OpMulPlain at an explicit plaintext scale (a scale
// that is not positive and finite fails the graph's Validate).
func (t *tracer) mulPlain(op string, ct Ct, key string, v []float64, scale float64) Ct {
	return t.emit(ir.Op{Kind: ir.OpMulPlain, Args: []int{t.in(op, ct).id}, Hoist: -1,
		Plain: v, PlainKey: key, PtScale: scale})
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
	return t.emit(ir.Op{Kind: ir.OpMulRelin, Args: []int{t.in("MulRelin", a).id, t.in("MulRelin", b).id}, Hoist: -1})
}

// MulInt implements Engine. No stage multiplies by a bare integer.
func (t *tracer) MulInt(ct Ct, n int64) Ct {
	panic(fmt.Errorf("henn: lower: MulInt called inside a stage"))
}

// Rescale implements Engine.
func (t *tracer) Rescale(ct Ct) Ct {
	return t.emit(ir.Op{Kind: ir.OpRescale, Args: []int{t.in("Rescale", ct).id}, Hoist: -1})
}

// DropLevel implements Engine.
func (t *tracer) DropLevel(ct Ct, n int) Ct {
	return t.emit(ir.Op{Kind: ir.OpDropLevel, Args: []int{t.in("DropLevel", ct).id}, Drop: n, Hoist: -1})
}

// Rotate implements Engine. Rotation by 0 is the identity, mirroring the
// backends, so no op is emitted.
func (t *tracer) Rotate(ct Ct, k int) Ct {
	x := t.in("Rotate", ct)
	if k == 0 {
		return x
	}
	return t.emit(ir.Op{Kind: ir.OpRotate, Args: []int{x.id}, K: k, Hoist: -1})
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
		c := t.emit(ir.Op{Kind: ir.OpRotate, Args: []int{x.id}, K: k, Hoist: h})
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

var _ Engine = (*tracer)(nil)

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
//
// Inputs are encrypted at MaxLevel, and stage 0 opens with one
// DropLevel per ciphertext down to level rest+m, where rest = Σ_{i≥1}
// Stages[i].Depth() (summed from the stages: hand-built plans leave
// Plan.Depth at 0) is what the later stages consume, so no op carries
// limbs the plan never uses. A linear first stage takes the m primes at
// levels rest+1 … rest+m together as its plaintext scale (firstPrimes)
// and rescales m times back to the default scale: it keeps the precision
// a plaintext scale as wide as the top prime gives it without running on
// the top level. Any other first stage takes m = its Depth. A chain with
// no spare level lowers unchanged.
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
	rest := 0
	for _, s := range p.Stages[1:] {
		rest += s.Depth()
	}
	m := p.Stages[0].Depth()
	first, linear := p.Stages[0].(*ShardedLinear)
	if linear {
		m = firstPrimes(e, rest)
	}
	for i, s := range p.Stages {
		t.beginStage(fmt.Sprintf("stage %d (%s)", i, p.describeStage(i)), true)
		if i == 0 {
			t.dropTo(cur, rest+m)
		}
		if i == 0 && linear {
			cur = first.eval(t, cur, m)
		} else {
			cur = s.Eval(t, cur)
		}
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

// firstPrimes is the smallest m ≥ 1 such that the primes at levels
// rest+1 … rest+m together have at least as many bits as the top prime,
// never reaching past MaxLevel. Bit widths are compared, not values:
// equal-width chains hold different primes of the same size, and m = 1
// there. A chain too short for rest keeps m = 1, and the trace reports it.
func firstPrimes(e Engine, rest int) int {
	top := e.MaxLevel()
	if rest+1 > top {
		return 1
	}
	want := bitLen(e.QiFloat(top))
	m, have := 1, bitLen(e.QiFloat(rest+1))
	for have < want && rest+m < top {
		m++
		have += bitLen(e.QiFloat(rest + m))
	}
	return m
}

// bitLen is the bit width of a prime given as a float64.
func bitLen(q float64) int {
	_, exp := math.Frexp(q)
	return exp
}
