// Package guard hardens homomorphic inference against silent corruption.
//
// Approximate HE fails quietly: a level-exhausted, scale-skewed, or
// bit-flipped ciphertext decrypts to plausible-looking garbage logits
// rather than an error. GuardedEngine wraps any henn.Engine and turns
// those silent failures into typed, classified errors:
//
//   - engine panics (level/scale assertion failures, injected bugs)
//     become StageError values wrapping ErrEnginePanic;
//   - per-op invariants are validated: residue/limb structure
//     (ErrResidueMissing), coefficient ranges (ErrCorruptCiphertext),
//     scale bookkeeping against an independently tracked mirror
//     (ErrScaleDrift), level underflow (ErrLevelExhausted), and NaN/Inf
//     or over-long plaintext operands (ErrInvalidPlaintext);
//   - the noise budget is a property of the graph, not of a ciphertext:
//     NoiseBits runs the internal/noise canonical-embedding bound over
//     each graph the executor prepares for the guard, so a plan whose
//     messages would drown is refused with ErrNoiseBudgetExhausted
//     before it runs instead of returning drowned logits.
//
// Op errors are raised by panicking with a *StageError; the executor
// recovers the panic, names the failing op's stage around it and returns
// it as the error, so the composition
//
//	g := guard.New(engine, guard.DefaultConfig())
//	logits, report, err := plan.InferCtx(ctx, g, image)
//
// yields typed errors end to end. The guard keeps no per-run state: the
// executor owns the current stage, the request context, cancellation and
// the first failure of each run, so one guard serves any number of runs,
// concurrent or not, and a failed run leaves nothing behind for the next.
// A clean run through the guard computes bit-identical logits to the
// unguarded engine: the guard never alters ciphertexts, only observes
// them.
package guard

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"sync"

	"cnnhe/internal/ckks"
	"cnnhe/internal/ckksbig"
	"cnnhe/internal/henn"
	"cnnhe/internal/henn/ir"
	"cnnhe/internal/noise"
)

// Typed failure classes. Every guard abort is a *StageError whose Cause
// wraps exactly one of these sentinels; match with errors.Is.
var (
	// ErrNoiseBudgetExhausted: the graph's worst-case noise bound leaves
	// some op fewer than DefaultMinNoiseBits bits of precision — the
	// message is (conservatively) drowned and decryption would return
	// garbage.
	ErrNoiseBudgetExhausted = errors.New("guard: noise budget exhausted")
	// ErrLevelExhausted: an op needs a level that is not there (rescaling
	// at level 0, dropping below level 0).
	ErrLevelExhausted = errors.New("guard: ciphertext level exhausted")
	// ErrScaleDrift: the engine's ciphertext scale disagrees with the
	// guard's independently tracked scale beyond a relative 10⁻⁶.
	ErrScaleDrift = errors.New("guard: ciphertext scale drift")
	// ErrResidueMissing: an RNS limb (or multiprecision coefficient)
	// required at the ciphertext's level is absent or mis-sized.
	ErrResidueMissing = errors.New("guard: ciphertext residue missing")
	// ErrCorruptCiphertext: a coefficient is outside [0, q), or decryption
	// produced NaN/Inf slots.
	ErrCorruptCiphertext = errors.New("guard: corrupt ciphertext")
	// ErrInvalidPlaintext: a plaintext operand contains NaN/Inf, exceeds
	// the slot count, or carries a non-positive scale.
	ErrInvalidPlaintext = errors.New("guard: invalid plaintext operand")
	// ErrEnginePanic: the wrapped engine panicked inside an op.
	ErrEnginePanic = errors.New("guard: engine panic")
	// ErrForeignCiphertext: a ciphertext handle that was not produced by
	// this guarded engine was passed to one of its ops.
	ErrForeignCiphertext = errors.New("guard: foreign ciphertext")
)

// StageError locates a failure: the op that detected it and the
// underlying cause (wrapping one of the sentinel errors above). Stage is
// set only where the guard knows it from the graph — the stage whose op
// NoiseBits refused; an op abort leaves it empty, and the executor names
// the failing op's stage around the error.
type StageError struct {
	Stage string
	Op    string
	Cause error
}

// Error implements error.
func (e *StageError) Error() string {
	if e.Stage == "" {
		return fmt.Sprintf("guard: op %s: %v", e.Op, e.Cause)
	}
	return fmt.Sprintf("guard: stage %s, op %s: %v", e.Stage, e.Op, e.Cause)
}

// Unwrap exposes the cause for errors.Is/errors.As.
func (e *StageError) Unwrap() error { return e.Cause }

// Config is empty: the guard has nothing to configure. It stays only
// because benchmark/workloads.go calls DefaultConfig.
type Config struct{}

// DefaultConfig returns the empty Config. It stays only because
// benchmark/workloads.go calls it.
func DefaultConfig() Config { return Config{} }

// DefaultMinNoiseBits is the noise-budget floor: NoiseBits refuses a
// graph in which any op keeps fewer bits. It is calibrated against the
// paper's CNN pipelines at production parameters (Δ = 2^26, depth ≤ 12):
// the conservative canonical-embedding bound over-states real noise by
// tens of bits on those circuits (the shipped CNN1 on the paper chain
// bottoms out at −73.12 "bits" while decrypting perfectly, and the
// sharded CIFAR-10 CNN3 — whose final dense stage sums ~600 BSGS
// diagonal products after two degree-4 activations — at −121.88 while
// still decrypting to ~15 real bits), so the floor sits at −192 —
// comfortably below any healthy plan, while a genuinely exhausted
// budget (scale too small, runaway multiplication) collapses by hundreds
// of bits and still trips.
const DefaultMinNoiseBits = -192

// scaleTol is the relative tolerance of scale-drift detection.
const scaleTol = 1e-6

// trackedCt is the guard's ciphertext handle: the engine's ciphertext
// plus the independently tracked scale mirror.
type trackedCt struct {
	ct    henn.Ct
	scale float64
}

// unwrapper is implemented by engine middleware (e.g. faults.Injector)
// so the guard can find the base backend for parameter discovery.
type unwrapper interface {
	Unwrap() henn.Engine
}

// GuardedEngine wraps a henn.Engine with invariant checking, a noise
// budget and panic conversion. It implements henn.Engine plus
// ir.PlainRecombiner and NoiseBits. Safe for the same concurrency the
// wrapped engine supports: its only mutable state is a cache.
type GuardedEngine struct {
	inner henn.Engine
	model noise.Model
	ks    float64 // per-key-switch noise bound

	// Base-backend contexts for structural/range validation and the
	// noise model (both nil when the base engine is not recognised).
	rnsCtx *ckks.Context
	bigCtx *ckksbig.Context

	mu  sync.Mutex
	qAt map[int]*big.Int // ckksbig: level → Q_ℓ cache
}

// New wraps inner. Its Config argument is empty (see Config).
func New(inner henn.Engine, _ Config) *GuardedEngine {
	g := &GuardedEngine{inner: inner, qAt: map[int]*big.Int{}}

	// Walk middleware to the base backend for noise-model parameters and
	// structural validation handles.
	base := inner
	for {
		u, ok := base.(unwrapper)
		if !ok {
			break
		}
		base = u.Unwrap()
	}
	switch b := base.(type) {
	case *henn.RNSEngine:
		g.rnsCtx = b.Ctx
	case *henn.RNSEvalEngine:
		g.rnsCtx = b.Ctx
	case *henn.BigEngine:
		g.bigCtx = b.Ctx
	}

	// Key-switch noise bound: digits · maxDigit / P, cf.
	// noise.Model.KeySwitch. On CKKS-RNS the digit layout's top level has
	// the most digits and the largest one, so its bound holds at every
	// level; the multiprecision backend counts one digit per prime.
	switch {
	case g.rnsCtx != nil:
		params := g.rnsCtx.Params
		g.model = noise.Model{N: params.N(), Sigma: params.Sigma, H: params.H}
		digits, maxDigit := params.KeySwitchBound(params.MaxLevel())
		p, _ := new(big.Float).SetInt(params.Chain.P()).Float64()
		g.ks = g.model.KeySwitch(digits, maxDigit, p)
	case g.bigCtx != nil:
		params := g.bigCtx.Params
		g.model = noise.Model{N: params.N(), Sigma: params.Sigma, H: params.H}
		var maxDigit float64
		for l := 0; l <= inner.MaxLevel(); l++ {
			maxDigit = math.Max(maxDigit, inner.QiFloat(l))
		}
		p, _ := new(big.Float).SetInt(g.bigCtx.P).Float64()
		g.ks = g.model.KeySwitch(inner.MaxLevel()+1, maxDigit, p)
	}
	g.telConfigured()
	return g
}

// Reset does nothing and returns nil: the guard keeps no per-run state
// to clear. It stays only because benchmark/workloads.go calls it.
func (g *GuardedEngine) Reset() error { return nil }

// NoiseBits runs the internal/noise pass over gr with the guard's noise
// model and returns every op's predicted log2(scale/noiseBound): the
// significant fractional bits its result keeps. The executor calls it
// once per graph it prepares for, or rebinds to, the guard. When some op
// keeps fewer than DefaultMinNoiseBits it returns a *StageError wrapping
// ErrNoiseBudgetExhausted that names the first such op and its stage.
// With telemetry on it publishes the per-stage gauges (telStages). A
// base engine the guard does not recognise has no noise model: nil bits,
// no error.
func (g *GuardedEngine) NoiseBits(gr *ir.Graph) ([]float64, error) {
	if g.rnsCtx == nil && g.bigCtx == nil {
		return nil, nil
	}
	bits := noise.Graph(gr, g.model, g.ks, g.inner.QiFloat)
	for i, b := range bits {
		if b < DefaultMinNoiseBits || math.IsNaN(b) {
			op := &gr.Ops[i]
			return nil, &StageError{Stage: gr.Stages[op.Stage].Name, Op: op.Kind.String(),
				Cause: fmt.Errorf("%w: op %d keeps %.1f bits of precision (< %d)",
					ErrNoiseBudgetExhausted, i, b, DefaultMinNoiseBits)}
		}
	}
	telStages(gr, bits)
	return bits, nil
}

// fail aborts the current op by panicking with a *StageError; the
// executor recovers it into the run's returned error.
func (g *GuardedEngine) fail(op string, cause error) {
	telFailure(op, cause)
	panic(&StageError{Op: op, Cause: cause})
}

// call invokes f, converting panics from the wrapped engine into
// ErrEnginePanic. Guard-originated aborts propagate unchanged.
func (g *GuardedEngine) call(op string, f func() henn.Ct) henn.Ct {
	ct, perr := func() (ct henn.Ct, perr error) {
		defer func() {
			if r := recover(); r != nil {
				if se, ok := r.(*StageError); ok {
					panic(se)
				}
				perr = fmt.Errorf("%v", r)
			}
		}()
		return f(), nil
	}()
	if perr != nil {
		g.fail(op, fmt.Errorf("%w: %v", ErrEnginePanic, perr))
	}
	return ct
}

// in validates an operand ciphertext and unwraps it.
func (g *GuardedEngine) in(op string, ct henn.Ct) *trackedCt {
	t, ok := ct.(*trackedCt)
	if !ok {
		g.fail(op, fmt.Errorf("%w: %T", ErrForeignCiphertext, ct))
	}
	g.validate(op, t.ct)
	got := g.scaleOf(op, t.ct)
	if !scaleClose(got, t.scale) {
		g.fail(op, fmt.Errorf("%w: engine reports scale 2^%.4f, guard tracked 2^%.4f",
			ErrScaleDrift, math.Log2(got), math.Log2(t.scale)))
	}
	return t
}

// out validates an op result against the expected scale and wraps it.
func (g *GuardedEngine) out(op string, ct henn.Ct, wantScale float64) henn.Ct {
	g.validate(op, ct)
	got := g.scaleOf(op, ct)
	if !scaleClose(got, wantScale) {
		g.fail(op, fmt.Errorf("%w: op produced scale 2^%.4f, expected 2^%.4f",
			ErrScaleDrift, math.Log2(got), math.Log2(wantScale)))
	}
	return &trackedCt{ct: ct, scale: got}
}

// scaleOf reads the engine's scale without validation (must not recurse).
func (g *GuardedEngine) scaleOf(op string, ct henn.Ct) float64 {
	var s float64
	g.call(op, func() henn.Ct { s = g.inner.ScaleOf(ct); return nil })
	if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		g.fail(op, fmt.Errorf("%w: non-finite ciphertext scale %v", ErrScaleDrift, s))
	}
	return s
}

func scaleClose(a, b float64) bool {
	return math.Abs(a-b) <= math.Max(math.Abs(a), math.Abs(b))*scaleTol
}

// checkVec rejects plaintext operand vectors with NaN/Inf entries or more
// entries than slots.
func (g *GuardedEngine) checkVec(op string, v []float64) {
	if len(v) > g.inner.Slots() {
		g.fail(op, fmt.Errorf("%w: %d values exceed %d slots", ErrInvalidPlaintext, len(v), g.inner.Slots()))
	}
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			g.fail(op, fmt.Errorf("%w: non-finite value %v at slot %d", ErrInvalidPlaintext, x, i))
		}
	}
}

// ----- henn.Engine implementation -----

// Name implements henn.Engine (the wrapped backend's name, so reports and
// tables are unchanged by guarding).
func (g *GuardedEngine) Name() string { return g.inner.Name() }

// Slots implements henn.Engine.
func (g *GuardedEngine) Slots() int { return g.inner.Slots() }

// MaxLevel implements henn.Engine.
func (g *GuardedEngine) MaxLevel() int { return g.inner.MaxLevel() }

// Scale implements henn.Engine.
func (g *GuardedEngine) Scale() float64 { return g.inner.Scale() }

// QiFloat implements henn.Engine.
func (g *GuardedEngine) QiFloat(level int) float64 { return g.inner.QiFloat(level) }

// peek unwraps without validation (metadata accessors).
func peek(ct henn.Ct) henn.Ct {
	if t, ok := ct.(*trackedCt); ok {
		return t.ct
	}
	return ct
}

// Level implements henn.Engine.
func (g *GuardedEngine) Level(ct henn.Ct) int { return g.inner.Level(peek(ct)) }

// ScaleOf implements henn.Engine.
func (g *GuardedEngine) ScaleOf(ct henn.Ct) float64 { return g.inner.ScaleOf(peek(ct)) }

// EncryptVec implements henn.Engine.
func (g *GuardedEngine) EncryptVec(values []float64) henn.Ct {
	const op = "EncryptVec"
	g.checkVec(op, values)
	ct := g.call(op, func() henn.Ct { return g.inner.EncryptVec(values) })
	return g.out(op, ct, g.inner.Scale())
}

// DecryptVec implements henn.Engine. The decrypted slots are also
// scanned for NaN/Inf.
func (g *GuardedEngine) DecryptVec(ct henn.Ct) []float64 {
	const op = "DecryptVec"
	t, ok := ct.(*trackedCt)
	if !ok {
		g.fail(op, fmt.Errorf("%w: %T", ErrForeignCiphertext, ct))
	}
	g.validate(op, t.ct)
	var out []float64
	g.call(op, func() henn.Ct { out = g.inner.DecryptVec(t.ct); return nil })
	for i, x := range out {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			g.fail(op, fmt.Errorf("%w: decryption produced %v at slot %d", ErrCorruptCiphertext, x, i))
		}
	}
	return out
}

// Add implements henn.Engine.
func (g *GuardedEngine) Add(a, b henn.Ct) henn.Ct {
	const op = "Add"
	ta, tb := g.in(op, a), g.in(op, b)
	if !scaleClose(ta.scale, tb.scale) {
		g.fail(op, fmt.Errorf("%w: operand scales 2^%.4f vs 2^%.4f",
			ErrScaleDrift, math.Log2(ta.scale), math.Log2(tb.scale)))
	}
	ct := g.call(op, func() henn.Ct { return g.inner.Add(ta.ct, tb.ct) })
	return g.out(op, ct, ta.scale)
}

// AddPlainVec implements henn.Engine.
func (g *GuardedEngine) AddPlainVec(ct henn.Ct, v []float64) henn.Ct {
	const op = "AddPlainVec"
	t := g.in(op, ct)
	g.checkVec(op, v)
	out := g.call(op, func() henn.Ct { return g.inner.AddPlainVec(t.ct, v) })
	return g.out(op, out, t.scale)
}

// AddPlainVecCached implements henn.Engine.
func (g *GuardedEngine) AddPlainVecCached(ct henn.Ct, key string, v []float64) henn.Ct {
	const op = "AddPlainVecCached"
	t := g.in(op, ct)
	g.checkVec(op, v)
	out := g.call(op, func() henn.Ct { return g.inner.AddPlainVecCached(t.ct, key, v) })
	return g.out(op, out, t.scale)
}

// checkPtScale validates an explicit plaintext scale.
func (g *GuardedEngine) checkPtScale(op string, scale float64) {
	if scale <= 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		g.fail(op, fmt.Errorf("%w: plaintext scale %v", ErrInvalidPlaintext, scale))
	}
}

// MulPlainVecAtScale implements henn.Engine.
func (g *GuardedEngine) MulPlainVecAtScale(ct henn.Ct, v []float64, scale float64) henn.Ct {
	const op = "MulPlainVecAtScale"
	t := g.in(op, ct)
	g.checkVec(op, v)
	g.checkPtScale(op, scale)
	out := g.call(op, func() henn.Ct { return g.inner.MulPlainVecAtScale(t.ct, v, scale) })
	return g.out(op, out, t.scale*scale)
}

// MulPlainVecCached implements henn.Engine.
func (g *GuardedEngine) MulPlainVecCached(ct henn.Ct, key string, v []float64, scale float64) henn.Ct {
	const op = "MulPlainVecCached"
	t := g.in(op, ct)
	g.checkVec(op, v)
	g.checkPtScale(op, scale)
	out := g.call(op, func() henn.Ct { return g.inner.MulPlainVecCached(t.ct, key, v, scale) })
	return g.out(op, out, t.scale*scale)
}

// MulRelin implements henn.Engine.
func (g *GuardedEngine) MulRelin(a, b henn.Ct) henn.Ct {
	const op = "MulRelin"
	ta, tb := g.in(op, a), g.in(op, b)
	ct := g.call(op, func() henn.Ct { return g.inner.MulRelin(ta.ct, tb.ct) })
	return g.out(op, ct, ta.scale*tb.scale)
}

// MulInt implements henn.Engine.
func (g *GuardedEngine) MulInt(ct henn.Ct, n int64) henn.Ct {
	const op = "MulInt"
	t := g.in(op, ct)
	out := g.call(op, func() henn.Ct { return g.inner.MulInt(t.ct, n) })
	return g.out(op, out, t.scale)
}

// PlainRecombine implements ir.PlainRecombiner, so a guarded engine keeps
// the executor's fused linear-stage call; nil pts is a pure integer
// recombination. When the inner engine offers the call too, or there are
// no products, the whole combination pays one output validation and
// runs on the inner engine through ir.Combine: every operand is still
// validated and scale-checked, and every absorbed plaintext still
// level-checked. Otherwise each product is first
// evaluated and validated by the guard's own MulPlainPt.
func (g *GuardedEngine) PlainRecombine(args []henn.Ct, pts []henn.Pt, weights []int64) henn.Ct {
	const op = "PlainRecombine"
	if _, fused := g.inner.(ir.PlainRecombiner); !fused && pts != nil {
		terms := make([]henn.Ct, len(args))
		for i, a := range args {
			terms[i] = a
			if pts[i] != nil {
				terms[i] = g.MulPlainPt(a, pts[i])
			}
		}
		return g.PlainRecombine(terms, nil, weights)
	}
	innerArgs := make([]henn.Ct, len(args))
	var innerPts []henn.Pt
	if pts != nil {
		innerPts = make([]henn.Pt, len(args))
	}
	var scale float64
	for i, a := range args {
		t := g.in(op, a)
		innerArgs[i] = t.ct
		termScale := t.scale
		if pts != nil && pts[i] != nil {
			tp := g.inPt(op, t, pts[i])
			innerPts[i] = tp.pt
			termScale = t.scale * tp.scale
		}
		if i == 0 {
			scale = termScale
		} else if !scaleClose(termScale, scale) {
			g.fail(op, fmt.Errorf("%w: operand %d scale 2^%.4f vs 2^%.4f",
				ErrScaleDrift, i, math.Log2(termScale), math.Log2(scale)))
		}
	}
	ct := g.call(op, func() henn.Ct { return ir.Combine(g.inner, innerArgs, innerPts, weights) })
	return g.out(op, ct, scale)
}

// Rescale implements henn.Engine.
func (g *GuardedEngine) Rescale(ct henn.Ct) henn.Ct {
	const op = "Rescale"
	t := g.in(op, ct)
	level := g.inner.Level(t.ct)
	if level <= 0 {
		g.fail(op, fmt.Errorf("%w: rescale at level %d", ErrLevelExhausted, level))
	}
	q := g.inner.QiFloat(level)
	out := g.call(op, func() henn.Ct { return g.inner.Rescale(t.ct) })
	return g.out(op, out, t.scale/q)
}

// DropLevel implements henn.Engine.
func (g *GuardedEngine) DropLevel(ct henn.Ct, n int) henn.Ct {
	const op = "DropLevel"
	t := g.in(op, ct)
	if n < 0 || g.inner.Level(t.ct)-n < 0 {
		g.fail(op, fmt.Errorf("%w: drop %d levels from level %d", ErrLevelExhausted, n, g.inner.Level(t.ct)))
	}
	out := g.call(op, func() henn.Ct { return g.inner.DropLevel(t.ct, n) })
	return g.out(op, out, t.scale)
}

// Rotate implements henn.Engine.
func (g *GuardedEngine) Rotate(ct henn.Ct, k int) henn.Ct {
	const op = "Rotate"
	t := g.in(op, ct)
	if k == 0 {
		return t
	}
	out := g.call(op, func() henn.Ct { return g.inner.Rotate(t.ct, k) })
	return g.out(op, out, t.scale)
}

// RotateMany implements henn.Engine.
func (g *GuardedEngine) RotateMany(ct henn.Ct, ks []int) map[int]henn.Ct {
	const op = "RotateMany"
	t := g.in(op, ct)
	var outs map[int]henn.Ct
	g.call(op, func() henn.Ct { outs = g.inner.RotateMany(t.ct, ks); return nil })
	// Validate in the caller's order, so the first bad output named is
	// the same on every call.
	m := make(map[int]henn.Ct, len(outs))
	for _, k := range ks {
		o, ok := outs[k]
		if !ok {
			continue // dropped by the backend; the executor reports it
		}
		if k == 0 {
			m[0] = t
			continue
		}
		m[k] = g.out(op, o, t.scale)
	}
	return m
}

// trackedPt is the guard's pre-encoded plaintext handle: the engine's
// plaintext plus the level and scale the checks need (an opaque Pt
// handle carries neither).
type trackedPt struct {
	pt    henn.Pt
	level int
	scale float64
}

// EncodeVecsAt implements henn.Engine: every operand is validated like
// the per-op plaintext paths, then wrapped so MulPlainPt/AddPlainPt can
// check level and scale without re-reading the values.
func (g *GuardedEngine) EncodeVecsAt(specs []henn.PlainSpec) []henn.Pt {
	const op = "EncodeVecsAt"
	for _, s := range specs {
		g.checkVec(op, s.Values)
		g.checkPtScale(op, s.Scale)
		if s.Level < 0 || s.Level > g.inner.MaxLevel() {
			g.fail(op, fmt.Errorf("%w: encode level %d outside [0, %d]", ErrInvalidPlaintext, s.Level, g.inner.MaxLevel()))
		}
	}
	var inner []henn.Pt
	g.call(op, func() henn.Ct { inner = g.inner.EncodeVecsAt(specs); return nil })
	if len(inner) != len(specs) {
		g.fail(op, fmt.Errorf("%w: engine encoded %d of %d specs", ErrInvalidPlaintext, len(inner), len(specs)))
	}
	out := make([]henn.Pt, len(inner))
	for i, pt := range inner {
		out[i] = &trackedPt{pt: pt, level: specs[i].Level, scale: specs[i].Scale}
	}
	return out
}

// inPt validates a pre-encoded plaintext operand against the ciphertext
// it is applied to and unwraps it.
func (g *GuardedEngine) inPt(op string, t *trackedCt, pt henn.Pt) *trackedPt {
	tp, ok := pt.(*trackedPt)
	if !ok {
		g.fail(op, fmt.Errorf("%w: foreign plaintext handle %T", ErrInvalidPlaintext, pt))
	}
	if lvl := g.inner.Level(t.ct); lvl != tp.level {
		g.fail(op, fmt.Errorf("%w: plaintext encoded at level %d applied at level %d",
			ErrInvalidPlaintext, tp.level, lvl))
	}
	return tp
}

// MulPlainPt implements henn.Engine.
func (g *GuardedEngine) MulPlainPt(ct henn.Ct, pt henn.Pt) henn.Ct {
	const op = "MulPlainPt"
	t := g.in(op, ct)
	tp := g.inPt(op, t, pt)
	out := g.call(op, func() henn.Ct { return g.inner.MulPlainPt(t.ct, tp.pt) })
	return g.out(op, out, t.scale*tp.scale)
}

// AddPlainPt implements henn.Engine.
func (g *GuardedEngine) AddPlainPt(ct henn.Ct, pt henn.Pt) henn.Ct {
	const op = "AddPlainPt"
	t := g.in(op, ct)
	tp := g.inPt(op, t, pt)
	if !scaleClose(t.scale, tp.scale) {
		g.fail(op, fmt.Errorf("%w: plaintext scale 2^%.4f vs ciphertext 2^%.4f",
			ErrScaleDrift, math.Log2(tp.scale), math.Log2(t.scale)))
	}
	out := g.call(op, func() henn.Ct { return g.inner.AddPlainPt(t.ct, tp.pt) })
	return g.out(op, out, t.scale)
}

var (
	_ henn.Engine        = (*GuardedEngine)(nil)
	_ ir.PlainRecombiner = (*GuardedEngine)(nil)
)
