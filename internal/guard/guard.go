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
//   - a live per-ciphertext noise budget is tracked with the
//     internal/noise canonical-embedding bounds, so inference fails fast
//     with ErrNoiseBudgetExhausted instead of returning drowned logits;
//   - an optional context is checked on every engine op, so a stalled
//     stage surfaces context.DeadlineExceeded at the next op boundary.
//
// Errors are raised by panicking with a *StageError; henn.Plan.InferCtx
// recovers the panic and returns it as the error, so the composition
//
//	g := guard.New(engine, guard.Config{Ctx: ctx})
//	logits, report, err := plan.InferCtx(ctx, g, image)
//
// yields typed errors end to end. A clean run through the guard computes
// bit-identical logits to the unguarded engine: the guard never alters
// ciphertexts, only observes them.
package guard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/big"
	"sync"
	"sync/atomic"

	"cnnhe/internal/ckks"
	"cnnhe/internal/ckksbig"
	"cnnhe/internal/henn"
	"cnnhe/internal/henn/ir"
	"cnnhe/internal/noise"
	"cnnhe/internal/ring"
)

// Typed failure classes. Every guard abort is a *StageError whose Cause
// wraps exactly one of these sentinels; match with errors.Is.
var (
	// ErrNoiseBudgetExhausted: the tracked worst-case noise bound leaves
	// fewer than Config.MinNoiseBits bits of precision — the message is
	// (conservatively) drowned and decryption would return garbage.
	ErrNoiseBudgetExhausted = errors.New("guard: noise budget exhausted")
	// ErrLevelExhausted: an op needs a level that is not there (rescaling
	// at level 0, dropping below level 0).
	ErrLevelExhausted = errors.New("guard: ciphertext level exhausted")
	// ErrScaleDrift: the engine's ciphertext scale disagrees with the
	// guard's independently tracked scale beyond Config.ScaleTol.
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

// StageError locates a failure: the pipeline stage being evaluated (as
// announced via BeginStage), the engine op that detected it, and the
// underlying cause (wrapping one of the sentinel errors above).
type StageError struct {
	Stage string
	Op    string
	Cause error
}

// Error implements error.
func (e *StageError) Error() string {
	stage := e.Stage
	if stage == "" {
		stage = "?"
	}
	return fmt.Sprintf("guard: stage %s, op %s: %v", stage, e.Op, e.Cause)
}

// Unwrap exposes the cause for errors.Is/errors.As.
func (e *StageError) Unwrap() error { return e.Cause }

// Config tunes the guard's invariants.
type Config struct {
	// MinNoiseBits aborts when the tracked log2(scale/noiseBound) falls
	// below it. The bound is the conservative high-probability
	// canonical-embedding estimate, which over-states real noise by tens
	// of bits on deep circuits, so the enforcement threshold is negative:
	// DefaultMinNoiseBits trips only when the message is provably drowned.
	// Set to math.Inf(-1) to disable enforcement (tracking continues).
	MinNoiseBits float64
	// ScaleTol is the relative tolerance for scale-drift detection.
	ScaleTol float64
	// ValueBound is the assumed slot-magnitude of messages entering
	// ciphertext-ciphertext multiplications (cf. Plan.EstimatePrecision).
	ValueBound float64
	// DeepChecks validates every coefficient of every operand against its
	// modulus on each op (always done at decryption). Costs one linear
	// scan per op — negligible next to the NTTs — and catches corrupted
	// residues at the op that first touches them.
	DeepChecks bool
	// Ctx, when non-nil, is checked before every engine op so deadline
	// and cancellation fire mid-stage instead of at stage boundaries.
	Ctx context.Context
}

// DefaultMinNoiseBits is calibrated against the paper's CNN pipelines at
// production parameters (Δ = 2^26, depth ≤ 12): the conservative
// canonical-embedding bound over-states real noise by tens of bits on
// those circuits (the shipped CNN1 bottoms out near −65 "bits" while
// decrypting perfectly, and the sharded CIFAR-10 CNN3 — whose final
// dense stage sums ~600 BSGS diagonal products after two degree-4
// activations — near −131 while still decrypting to ~15 real bits), so
// enforcement sits at −192 — comfortably below any healthy run, while a
// genuinely exhausted budget (scale too small, runaway multiplication,
// corrupted state) collapses by hundreds of bits and still trips
// immediately.
const DefaultMinNoiseBits = -192

// DefaultConfig returns the production defaults described on Config.
func DefaultConfig() Config {
	return Config{
		MinNoiseBits: DefaultMinNoiseBits,
		ScaleTol:     1e-6,
		ValueBound:   32,
		DeepChecks:   true,
	}
}

// trackedCt is the guard's ciphertext handle: the engine's ciphertext
// plus the independently tracked scale mirror and noise bound.
type trackedCt struct {
	ct    henn.Ct
	noise float64
	scale float64
}

// unwrapper is implemented by engine middleware (e.g. faults.Injector)
// so the guard can find the base backend for parameter discovery.
type unwrapper interface {
	Unwrap() henn.Engine
}

// specialModulus is implemented by backends that expose their
// key-switching modulus P.
type specialModulus interface {
	SpecialPFloat() float64
}

// GuardedEngine wraps a henn.Engine with invariant checking, noise-budget
// tracking, panic conversion, and cancellation. It implements henn.Engine
// plus the optional henn.StageAware interface and NoiseBits. Safe
// for the same concurrency the wrapped engine supports (the guard's own
// state is mutex-protected).
type GuardedEngine struct {
	inner henn.Engine
	cfg   Config
	model noise.Model
	ks    float64 // per-key-switch noise bound

	// Base-backend contexts for structural/range validation (either may
	// be nil when the base engine is not recognised).
	rnsCtx *ckks.Context
	bigCtx *ckksbig.Context

	mu     sync.Mutex
	stage  string
	err    error
	runCtx context.Context  // per-run request context (SetRunContext)
	qAt    map[int]*big.Int // ckksbig: level → Q_ℓ cache

	// Telemetry: per-stage gauges resolved at stage transitions
	// (telemetry.go). curTel is nil whenever telemetry is disabled, so
	// the per-op publish is one atomic load.
	telMu     sync.Mutex
	stageTels map[string]*stageTel
	curTel    atomic.Pointer[stageTel]
}

// New wraps inner. Pass DefaultConfig() (or a zero Config, which is
// normalised to the defaults field-by-field) and set Config.Ctx to bind
// the guard to a request context.
func New(inner henn.Engine, cfg Config) *GuardedEngine {
	if cfg.MinNoiseBits == 0 {
		cfg.MinNoiseBits = DefaultMinNoiseBits
	}
	if cfg.ScaleTol == 0 {
		cfg.ScaleTol = 1e-6
	}
	if cfg.ValueBound == 0 {
		cfg.ValueBound = 32
	}
	g := &GuardedEngine{inner: inner, cfg: cfg, qAt: map[int]*big.Int{}}

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
		g.model = noise.Model{N: b.Ctx.Params.N(), Sigma: b.Ctx.Params.Sigma, H: b.Ctx.Params.H}
	case *henn.RNSEvalEngine:
		g.rnsCtx = b.Ctx
		g.model = noise.Model{N: b.Ctx.Params.N(), Sigma: b.Ctx.Params.Sigma, H: b.Ctx.Params.H}
	case *henn.BigEngine:
		g.bigCtx = b.Ctx
		g.model = noise.Model{N: b.Ctx.Params.N(), Sigma: b.Ctx.Params.Sigma, H: b.Ctx.Params.H}
	default:
		g.model = noise.Model{N: 2 * inner.Slots(), Sigma: ring.DefaultSigma, H: 64}
	}

	// Key-switch noise bound: digits · maxQi / P, cf. noise.Model.KeySwitch.
	maxQi := 0.0
	for l := 0; l <= inner.MaxLevel(); l++ {
		if q := inner.QiFloat(l); q > maxQi {
			maxQi = q
		}
	}
	p := maxQi * math.Exp2(20) // fallback: assume a comfortably large P
	if sm, ok := base.(specialModulus); ok {
		p = sm.SpecialPFloat()
	}
	g.ks = g.model.KeySwitch(inner.MaxLevel()+1, maxQi, p)
	g.telConfigured()
	return g
}

// Err returns the first failure the guard detected (nil while healthy).
// Once set, every subsequent op aborts with the same error.
func (g *GuardedEngine) Err() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

// Reset clears a latched failure and returns it (nil when the guard was
// healthy), so a long-lived guard can be reused for the next independent
// inference — a serving loop keeps one guard per engine because the
// prepared-graph cache is keyed by engine identity, and re-wrapping
// would re-lower and re-encode the whole graph on every failed batch.
//
// Reset is only sound at an inference boundary: ciphertext handles from
// the failed run carry tracked state the failure may have left
// inconsistent and must be discarded, never fed to post-Reset ops. The
// noise/scale mirrors live on the handles themselves, so a fresh
// encrypt-to-decrypt run observes no state from before the Reset.
func (g *GuardedEngine) Reset() error {
	g.mu.Lock()
	err := g.err
	g.err = nil
	g.stage = ""
	g.mu.Unlock()
	return err
}

// SetRunContext binds the guard to the current request's context for
// failure attribution: a trace context attached to it (via
// telemetry.WithTraceContext) is echoed on the guard's failure log
// line, joining a guard abort to the request that caused it. Callers
// that serialize runs (the keyed route evaluates under the client
// entry lock) set it per request and clear it with nil afterwards.
func (g *GuardedEngine) SetRunContext(ctx context.Context) {
	g.mu.Lock()
	g.runCtx = ctx
	g.mu.Unlock()
}

// BeginStage implements henn.StageAware: subsequent failures are labelled
// with name.
func (g *GuardedEngine) BeginStage(name string) {
	g.mu.Lock()
	g.stage = name
	g.mu.Unlock()
	g.telBeginStage(name)
}

// NoiseBits returns log2(scale/noiseBound) of a guarded ciphertext — the
// significant fractional bits remaining (NaN for a foreign handle). The
// executor reads it for every stage output.
func (g *GuardedEngine) NoiseBits(ct henn.Ct) float64 {
	if t, ok := ct.(*trackedCt); ok {
		return math.Log2(t.scale / t.noise)
	}
	return math.NaN()
}

// fail records the first error and aborts the current stage by panicking
// with a *StageError; henn's InferCtx recovers it into a returned error.
func (g *GuardedEngine) fail(op string, cause error) {
	g.mu.Lock()
	se := &StageError{Stage: g.stage, Op: op, Cause: cause}
	first := g.err == nil
	if first {
		g.err = se
	}
	g.mu.Unlock()
	if first {
		g.telFailure(cause)
	}
	panic(se)
}

// pre runs the shared op preamble: context and sticky-error checks.
func (g *GuardedEngine) pre(op string) {
	if g.cfg.Ctx != nil {
		if err := g.cfg.Ctx.Err(); err != nil {
			g.fail(op, err)
		}
	}
	g.mu.Lock()
	err := g.err
	g.mu.Unlock()
	if err != nil {
		// Already poisoned: abort immediately rather than computing on
		// state that a previous failure may have left inconsistent.
		panic(err)
	}
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
	g.validate(op, t.ct, g.cfg.DeepChecks)
	got := g.scaleOf(op, t.ct)
	if !scaleClose(got, t.scale, g.cfg.ScaleTol) {
		g.fail(op, fmt.Errorf("%w: engine reports scale 2^%.4f, guard tracked 2^%.4f",
			ErrScaleDrift, math.Log2(got), math.Log2(t.scale)))
	}
	return t
}

// out validates an op result against the expected scale and noise budget
// and wraps it.
func (g *GuardedEngine) out(op string, ct henn.Ct, noiseBound, wantScale float64) henn.Ct {
	g.validate(op, ct, g.cfg.DeepChecks)
	got := g.scaleOf(op, ct)
	if !scaleClose(got, wantScale, g.cfg.ScaleTol) {
		g.fail(op, fmt.Errorf("%w: op produced scale 2^%.4f, expected 2^%.4f",
			ErrScaleDrift, math.Log2(got), math.Log2(wantScale)))
	}
	bits := math.Log2(got / noiseBound)
	if bits < g.cfg.MinNoiseBits || math.IsNaN(bits) {
		g.fail(op, fmt.Errorf("%w: %.1f bits of precision remain (< %.1f)",
			ErrNoiseBudgetExhausted, bits, g.cfg.MinNoiseBits))
	}
	g.telOut(ct, bits, got)
	return &trackedCt{ct: ct, noise: noiseBound, scale: got}
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

func scaleClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= math.Max(math.Abs(a), math.Abs(b))*tol
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

// maxAbs returns the plaintext canonical-norm proxy used by the noise
// bounds (the maximum slot magnitude, floored at 1 so a contractive
// plaintext never shrinks the tracked bound below additive terms).
func maxAbs(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	if m < 1 {
		return 1
	}
	return m
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
	g.pre(op)
	g.checkVec(op, values)
	ct := g.call(op, func() henn.Ct { return g.inner.EncryptVec(values) })
	return g.out(op, ct, g.model.Fresh(), g.inner.Scale())
}

// DecryptVec implements henn.Engine. The full coefficient range check
// always runs here (regardless of DeepChecks), and the decrypted slots
// are scanned for NaN/Inf.
func (g *GuardedEngine) DecryptVec(ct henn.Ct) []float64 {
	const op = "DecryptVec"
	g.pre(op)
	t, ok := ct.(*trackedCt)
	if !ok {
		g.fail(op, fmt.Errorf("%w: %T", ErrForeignCiphertext, ct))
	}
	g.validate(op, t.ct, true)
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
	g.pre(op)
	ta, tb := g.in(op, a), g.in(op, b)
	if !scaleClose(ta.scale, tb.scale, g.cfg.ScaleTol) {
		g.fail(op, fmt.Errorf("%w: operand scales 2^%.4f vs 2^%.4f",
			ErrScaleDrift, math.Log2(ta.scale), math.Log2(tb.scale)))
	}
	ct := g.call(op, func() henn.Ct { return g.inner.Add(ta.ct, tb.ct) })
	return g.out(op, ct, ta.noise+tb.noise, ta.scale)
}

// AddPlainVec implements henn.Engine.
func (g *GuardedEngine) AddPlainVec(ct henn.Ct, v []float64) henn.Ct {
	const op = "AddPlainVec"
	g.pre(op)
	t := g.in(op, ct)
	g.checkVec(op, v)
	out := g.call(op, func() henn.Ct { return g.inner.AddPlainVec(t.ct, v) })
	return g.out(op, out, t.noise, t.scale)
}

// AddPlainVecCached implements henn.Engine.
func (g *GuardedEngine) AddPlainVecCached(ct henn.Ct, key string, v []float64) henn.Ct {
	const op = "AddPlainVecCached"
	g.pre(op)
	t := g.in(op, ct)
	g.checkVec(op, v)
	out := g.call(op, func() henn.Ct { return g.inner.AddPlainVecCached(t.ct, key, v) })
	return g.out(op, out, t.noise, t.scale)
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
	g.pre(op)
	t := g.in(op, ct)
	g.checkVec(op, v)
	g.checkPtScale(op, scale)
	out := g.call(op, func() henn.Ct { return g.inner.MulPlainVecAtScale(t.ct, v, scale) })
	return g.out(op, out, g.model.MulPlain(t.noise, maxAbs(v)*scale), t.scale*scale)
}

// MulPlainVecCached implements henn.Engine.
func (g *GuardedEngine) MulPlainVecCached(ct henn.Ct, key string, v []float64, scale float64) henn.Ct {
	const op = "MulPlainVecCached"
	g.pre(op)
	t := g.in(op, ct)
	g.checkVec(op, v)
	g.checkPtScale(op, scale)
	out := g.call(op, func() henn.Ct { return g.inner.MulPlainVecCached(t.ct, key, v, scale) })
	return g.out(op, out, g.model.MulPlain(t.noise, maxAbs(v)*scale), t.scale*scale)
}

// MulRelin implements henn.Engine.
func (g *GuardedEngine) MulRelin(a, b henn.Ct) henn.Ct {
	const op = "MulRelin"
	g.pre(op)
	ta, tb := g.in(op, a), g.in(op, b)
	ct := g.call(op, func() henn.Ct { return g.inner.MulRelin(ta.ct, tb.ct) })
	nu := g.cfg.ValueBound
	n := g.model.Mul(nu*ta.scale, ta.noise, nu*tb.scale, tb.noise) + g.ks
	return g.out(op, ct, n, ta.scale*tb.scale)
}

// MulInt implements henn.Engine.
func (g *GuardedEngine) MulInt(ct henn.Ct, n int64) henn.Ct {
	const op = "MulInt"
	g.pre(op)
	t := g.in(op, ct)
	out := g.call(op, func() henn.Ct { return g.inner.MulInt(t.ct, n) })
	return g.out(op, out, t.noise*weightFactor(n), t.scale)
}

// weightFactor is the noise growth of multiplying by the integer n:
// max(|n|, 1), so a zero weight never shrinks the tracked bound.
func weightFactor(n int64) float64 {
	if f := math.Abs(float64(n)); f > 1 {
		return f
	}
	return 1
}

// PlainRecombine implements ir.PlainRecombiner, so a guarded engine keeps
// the executor's fused linear-stage call; nil pts is a pure integer
// recombination. When the inner engine offers the call too, or there are
// no products, the whole combination pays one preamble and one output
// validation and runs on the inner engine through ir.Combine: every
// operand is still validated and scale-checked, every absorbed plaintext
// still level-checked, and the tracked noise bound is the chain's —
// Σ model.MulPlain(noiseᵢ, maxScaledᵢ) over the products plus
// Σ max(|wⱼ|,1)·noiseⱼ over the rest, summed in argument order so the
// float result is the chain's to the bit. Otherwise each product is
// first evaluated and validated by the guard's own MulPlainPt.
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
	g.pre(op)
	innerArgs := make([]henn.Ct, len(args))
	var innerPts []henn.Pt
	if pts != nil {
		innerPts = make([]henn.Pt, len(args))
	}
	var scale, noise float64
	for i, a := range args {
		t := g.in(op, a)
		innerArgs[i] = t.ct
		termScale, termNoise := t.scale, t.noise
		if pts != nil && pts[i] != nil {
			tp := g.inPt(op, t, pts[i])
			innerPts[i] = tp.pt
			termScale, termNoise = t.scale*tp.scale, g.model.MulPlain(t.noise, tp.maxScaled)
		}
		if i == 0 {
			scale = termScale
		} else if !scaleClose(termScale, scale, g.cfg.ScaleTol) {
			g.fail(op, fmt.Errorf("%w: operand %d scale 2^%.4f vs 2^%.4f",
				ErrScaleDrift, i, math.Log2(termScale), math.Log2(scale)))
		}
		noise += termNoise * weightFactor(weights[i])
	}
	ct := g.call(op, func() henn.Ct { return ir.Combine(g.inner, innerArgs, innerPts, weights) })
	return g.out(op, ct, noise, scale)
}

// Rescale implements henn.Engine.
func (g *GuardedEngine) Rescale(ct henn.Ct) henn.Ct {
	const op = "Rescale"
	g.pre(op)
	t := g.in(op, ct)
	level := g.inner.Level(t.ct)
	if level <= 0 {
		g.fail(op, fmt.Errorf("%w: rescale at level %d", ErrLevelExhausted, level))
	}
	q := g.inner.QiFloat(level)
	out := g.call(op, func() henn.Ct { return g.inner.Rescale(t.ct) })
	return g.out(op, out, t.noise/q+g.model.Rescale(), t.scale/q)
}

// DropLevel implements henn.Engine.
func (g *GuardedEngine) DropLevel(ct henn.Ct, n int) henn.Ct {
	const op = "DropLevel"
	g.pre(op)
	t := g.in(op, ct)
	if n < 0 || g.inner.Level(t.ct)-n < 0 {
		g.fail(op, fmt.Errorf("%w: drop %d levels from level %d", ErrLevelExhausted, n, g.inner.Level(t.ct)))
	}
	out := g.call(op, func() henn.Ct { return g.inner.DropLevel(t.ct, n) })
	return g.out(op, out, t.noise, t.scale)
}

// Rotate implements henn.Engine.
func (g *GuardedEngine) Rotate(ct henn.Ct, k int) henn.Ct {
	const op = "Rotate"
	g.pre(op)
	t := g.in(op, ct)
	if k == 0 {
		return t
	}
	out := g.call(op, func() henn.Ct { return g.inner.Rotate(t.ct, k) })
	return g.out(op, out, t.noise+g.ks, t.scale)
}

// RotateMany implements henn.Engine.
func (g *GuardedEngine) RotateMany(ct henn.Ct, ks []int) map[int]henn.Ct {
	const op = "RotateMany"
	g.pre(op)
	t := g.in(op, ct)
	var outs map[int]henn.Ct
	g.call(op, func() henn.Ct { outs = g.inner.RotateMany(t.ct, ks); return nil })
	// Validate in the caller's order, so the first bad output named is
	// the same on every call (and so are the stage gauges it publishes).
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
		m[k] = g.out(op, o, t.noise+g.ks, t.scale)
	}
	return m
}

// trackedPt is the guard's pre-encoded plaintext handle: the engine's
// plaintext plus the metadata the noise and scale mirrors need (an opaque
// Pt handle carries neither the operand magnitude nor its encode scale).
type trackedPt struct {
	pt    henn.Pt
	level int
	scale float64
	// maxScaled is maxAbs(values)·scale: the plaintext canonical-norm
	// proxy the noise model's MulPlain bound takes.
	maxScaled float64
}

// EncodeVecsAt implements henn.Engine: every operand is validated like
// the per-op plaintext paths, then wrapped so MulPlainPt/AddPlainPt can
// track noise and scale without re-reading the values.
func (g *GuardedEngine) EncodeVecsAt(specs []henn.PlainSpec) []henn.Pt {
	const op = "EncodeVecsAt"
	g.pre(op)
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
		out[i] = &trackedPt{pt: pt, level: specs[i].Level, scale: specs[i].Scale,
			maxScaled: maxAbs(specs[i].Values) * specs[i].Scale}
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
	g.pre(op)
	t := g.in(op, ct)
	tp := g.inPt(op, t, pt)
	out := g.call(op, func() henn.Ct { return g.inner.MulPlainPt(t.ct, tp.pt) })
	return g.out(op, out, g.model.MulPlain(t.noise, tp.maxScaled), t.scale*tp.scale)
}

// AddPlainPt implements henn.Engine.
func (g *GuardedEngine) AddPlainPt(ct henn.Ct, pt henn.Pt) henn.Ct {
	const op = "AddPlainPt"
	g.pre(op)
	t := g.in(op, ct)
	tp := g.inPt(op, t, pt)
	if !scaleClose(t.scale, tp.scale, g.cfg.ScaleTol) {
		g.fail(op, fmt.Errorf("%w: plaintext scale 2^%.4f vs ciphertext 2^%.4f",
			ErrScaleDrift, math.Log2(tp.scale), math.Log2(t.scale)))
	}
	out := g.call(op, func() henn.Ct { return g.inner.AddPlainPt(t.ct, tp.pt) })
	return g.out(op, out, t.noise, t.scale)
}

var (
	_ henn.Engine        = (*GuardedEngine)(nil)
	_ henn.StageAware    = (*GuardedEngine)(nil)
	_ ir.PlainRecombiner = (*GuardedEngine)(nil)
)
