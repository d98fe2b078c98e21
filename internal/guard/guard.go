// Package guard hardens homomorphic inference against silent corruption.
//
// Approximate HE fails quietly: a bit-flipped or truncated ciphertext
// decrypts to plausible-looking garbage logits rather than an error.
// GuardedEngine wraps any henn.Engine and turns the failures the op
// graph cannot see into typed, classified errors:
//
//   - engine panics (backend assertion failures, injected bugs) become
//     StageError values wrapping ErrEnginePanic;
//   - every ciphertext an op makes, or Adopt takes in, is scanned once:
//     residue/limb structure (ErrResidueMissing) and coefficient ranges
//     (ErrCorruptCiphertext); NaN/Inf, over-long or badly scaled
//     plaintext operands are refused (ErrInvalidPlaintext);
//   - the noise budget is a property of the graph, not of a ciphertext:
//     NoiseBits runs the internal/noise canonical-embedding bound over
//     each graph the executor prepares for the guard, so a plan whose
//     messages would drown is refused with ErrNoiseBudgetExhausted
//     before it runs instead of returning drowned logits.
//
// Level and scale are the graph's: the executor checks every result
// against the (level, scale) ir.Graph.Derive gave its op, failing the
// run with ir.ErrLevelExhausted or ir.ErrScaleDrift, and RunEncrypted
// passes every input through Adopt. The guard hands the engine's own
// ciphertexts through unwrapped.
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
// wraps exactly one of these sentinels (a ciphertext at a level outside
// the chain wraps ir.ErrLevelExhausted); match with errors.Is.
var (
	// ErrNoiseBudgetExhausted: the graph's worst-case noise bound leaves
	// some op fewer than DefaultMinNoiseBits bits of precision — the
	// message is (conservatively) drowned and decryption would return
	// garbage.
	ErrNoiseBudgetExhausted = errors.New("guard: noise budget exhausted")
	// ErrResidueMissing: an RNS limb (or multiprecision coefficient)
	// required at the ciphertext's level is absent or mis-sized.
	ErrResidueMissing = errors.New("guard: ciphertext residue missing")
	// ErrCorruptCiphertext: a coefficient is outside [0, q), or decryption
	// produced NaN/Inf slots.
	ErrCorruptCiphertext = errors.New("guard: corrupt ciphertext")
	// ErrInvalidPlaintext: a plaintext operand contains NaN/Inf, exceeds
	// the slot count, carries a non-positive scale, or is to be encoded
	// at a level off the chain.
	ErrInvalidPlaintext = errors.New("guard: invalid plaintext operand")
	// ErrEnginePanic: the wrapped engine panicked inside an op.
	ErrEnginePanic = errors.New("guard: engine panic")
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

// unwrapper is implemented by engine middleware (e.g. faults.Injector)
// so the guard can find the base backend for parameter discovery.
type unwrapper interface {
	Unwrap() henn.Engine
}

// GuardedEngine wraps a henn.Engine with ciphertext scans, plaintext
// checks, a noise budget and panic conversion. It implements henn.Engine
// plus ir.PlainRecombiner, ir.Releaser, and the executor's NoiseBits,
// Adopt and Fuses. Safe for the same concurrency the wrapped engine
// supports: its only mutable state is a cache.
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
// ErrNoiseBudgetExhausted that names the first such op and its stage,
// and counts it like an op abort (telFailure). With telemetry on it
// publishes the per-stage gauges (telStages). A base engine the guard
// does not recognise has no noise model: nil bits, no error.
func (g *GuardedEngine) NoiseBits(gr *ir.Graph) ([]float64, error) {
	if g.rnsCtx == nil && g.bigCtx == nil {
		return nil, nil
	}
	bits := noise.Graph(gr, g.model, g.ks, g.inner.QiFloat)
	for i, b := range bits {
		if b < DefaultMinNoiseBits || math.IsNaN(b) {
			op := &gr.Ops[i]
			se := &StageError{Stage: gr.Stages[op.Stage].Name, Op: op.Kind.String(),
				Cause: fmt.Errorf("%w: op %d keeps %.1f bits of precision (< %d)",
					ErrNoiseBudgetExhausted, i, b, DefaultMinNoiseBits)}
			telFailure(se.Op, se.Cause)
			return nil, se
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

// made runs f through call and scans the ciphertext it makes.
func (g *GuardedEngine) made(op string, f func() henn.Ct) henn.Ct {
	ct := g.call(op, f)
	g.validate(op, ct)
	return ct
}

// Release implements ir.Releaser: a dead ciphertext goes back to the
// inner engine when that recycles too.
func (g *GuardedEngine) Release(ct henn.Ct) {
	if r, ok := g.inner.(ir.Releaser); ok {
		r.Release(ct)
	}
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

// checkPtScale validates an explicit plaintext scale.
func (g *GuardedEngine) checkPtScale(op string, scale float64) {
	if scale <= 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		g.fail(op, fmt.Errorf("%w: plaintext scale %v", ErrInvalidPlaintext, scale))
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

// Level implements henn.Engine.
func (g *GuardedEngine) Level(ct henn.Ct) int { return g.inner.Level(ct) }

// ScaleOf implements henn.Engine.
func (g *GuardedEngine) ScaleOf(ct henn.Ct) float64 { return g.inner.ScaleOf(ct) }

// EncryptVec implements henn.Engine.
func (g *GuardedEngine) EncryptVec(values []float64) henn.Ct {
	const op = "EncryptVec"
	g.checkVec(op, values)
	return g.made(op, func() henn.Ct { return g.inner.EncryptVec(values) })
}

// DecryptVec implements henn.Engine. The ciphertext is scanned first and
// the decrypted slots for NaN/Inf.
func (g *GuardedEngine) DecryptVec(ct henn.Ct) []float64 {
	const op = "DecryptVec"
	g.validate(op, ct)
	var out []float64
	g.call(op, func() henn.Ct { out = g.inner.DecryptVec(ct); return nil })
	for i, x := range out {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			g.fail(op, fmt.Errorf("%w: decryption produced %v at slot %d", ErrCorruptCiphertext, x, i))
		}
	}
	return out
}

// Add implements henn.Engine.
func (g *GuardedEngine) Add(a, b henn.Ct) henn.Ct {
	return g.made("Add", func() henn.Ct { return g.inner.Add(a, b) })
}

// AddPlainVec implements henn.Engine.
func (g *GuardedEngine) AddPlainVec(ct henn.Ct, v []float64) henn.Ct {
	const op = "AddPlainVec"
	g.checkVec(op, v)
	return g.made(op, func() henn.Ct { return g.inner.AddPlainVec(ct, v) })
}

// AddPlainVecCached implements henn.Engine.
func (g *GuardedEngine) AddPlainVecCached(ct henn.Ct, key string, v []float64) henn.Ct {
	const op = "AddPlainVecCached"
	g.checkVec(op, v)
	return g.made(op, func() henn.Ct { return g.inner.AddPlainVecCached(ct, key, v) })
}

// MulPlainVecAtScale implements henn.Engine.
func (g *GuardedEngine) MulPlainVecAtScale(ct henn.Ct, v []float64, scale float64) henn.Ct {
	const op = "MulPlainVecAtScale"
	g.checkVec(op, v)
	g.checkPtScale(op, scale)
	return g.made(op, func() henn.Ct { return g.inner.MulPlainVecAtScale(ct, v, scale) })
}

// MulPlainVecCached implements henn.Engine.
func (g *GuardedEngine) MulPlainVecCached(ct henn.Ct, key string, v []float64, scale float64) henn.Ct {
	const op = "MulPlainVecCached"
	g.checkVec(op, v)
	g.checkPtScale(op, scale)
	return g.made(op, func() henn.Ct { return g.inner.MulPlainVecCached(ct, key, v, scale) })
}

// MulRelin implements henn.Engine.
func (g *GuardedEngine) MulRelin(a, b henn.Ct) henn.Ct {
	return g.made("MulRelin", func() henn.Ct { return g.inner.MulRelin(a, b) })
}

// MulInt implements henn.Engine.
func (g *GuardedEngine) MulInt(ct henn.Ct, n int64) henn.Ct {
	return g.made("MulInt", func() henn.Ct { return g.inner.MulInt(ct, n) })
}

// PlainRecombine implements ir.PlainRecombiner, so a guarded engine keeps
// the executor's fused linear-stage call; nil pts is a pure integer
// recombination. The whole combination runs on the inner engine through
// ir.Combine and pays one scan of its result.
func (g *GuardedEngine) PlainRecombine(args []henn.Ct, pts []henn.Pt, weights []int64) henn.Ct {
	return g.made("PlainRecombine", func() henn.Ct { return ir.Combine(g.inner, args, pts, weights) })
}

// Fuses reports whether PlainRecombine is one call on the inner engine.
// When it is not, the executor evaluates a recombine's products itself,
// through MulPlainPt, so each is scanned and checked on its own.
func (g *GuardedEngine) Fuses() bool {
	_, ok := g.inner.(ir.PlainRecombiner)
	return ok
}

// Rescale implements henn.Engine.
func (g *GuardedEngine) Rescale(ct henn.Ct) henn.Ct {
	return g.made("Rescale", func() henn.Ct { return g.inner.Rescale(ct) })
}

// DropLevel implements henn.Engine.
func (g *GuardedEngine) DropLevel(ct henn.Ct, n int) henn.Ct {
	return g.made("DropLevel", func() henn.Ct { return g.inner.DropLevel(ct, n) })
}

// Rotate implements henn.Engine.
func (g *GuardedEngine) Rotate(ct henn.Ct, k int) henn.Ct {
	if k == 0 {
		return ct
	}
	return g.made("Rotate", func() henn.Ct { return g.inner.Rotate(ct, k) })
}

// RotateMany implements henn.Engine. The outputs are scanned in the
// caller's order, so the first bad one named is the same on every call.
func (g *GuardedEngine) RotateMany(ct henn.Ct, ks []int) map[int]henn.Ct {
	const op = "RotateMany"
	var outs map[int]henn.Ct
	g.call(op, func() henn.Ct { outs = g.inner.RotateMany(ct, ks); return nil })
	for _, k := range ks {
		if o, ok := outs[k]; ok && k != 0 { // a dropped k is the executor's to report
			g.validate(op, o)
		}
	}
	return outs
}

// EncodeVecsAt implements henn.Engine: every operand is checked like the
// per-op plaintext paths, and its level must be on the chain.
func (g *GuardedEngine) EncodeVecsAt(specs []henn.PlainSpec) []henn.Pt {
	const op = "EncodeVecsAt"
	for _, s := range specs {
		g.checkVec(op, s.Values)
		g.checkPtScale(op, s.Scale)
		if s.Level < 0 || s.Level > g.inner.MaxLevel() {
			g.fail(op, fmt.Errorf("%w: encode level %d outside [0, %d]", ErrInvalidPlaintext, s.Level, g.inner.MaxLevel()))
		}
	}
	var pts []henn.Pt
	g.call(op, func() henn.Ct { pts = g.inner.EncodeVecsAt(specs); return nil })
	return pts
}

// MulPlainPt implements henn.Engine.
func (g *GuardedEngine) MulPlainPt(ct henn.Ct, pt henn.Pt) henn.Ct {
	return g.made("MulPlainPt", func() henn.Ct { return g.inner.MulPlainPt(ct, pt) })
}

// AddPlainPt implements henn.Engine.
func (g *GuardedEngine) AddPlainPt(ct henn.Ct, pt henn.Pt) henn.Ct {
	return g.made("AddPlainPt", func() henn.Ct { return g.inner.AddPlainPt(ct, pt) })
}

var (
	_ henn.Engine        = (*GuardedEngine)(nil)
	_ ir.PlainRecombiner = (*GuardedEngine)(nil)
	_ ir.Releaser        = (*GuardedEngine)(nil)
)
