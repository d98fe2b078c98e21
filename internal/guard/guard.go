// Package guard hardens homomorphic inference against silent corruption.
//
// Approximate HE fails quietly: a bit-flipped or truncated ciphertext
// decrypts to plausible-looking garbage logits rather than an error.
// GuardedEngine wraps any henn.Engine with the checks the op graph
// cannot make itself, each returning a typed, classified error:
//
//   - Check scans a ciphertext once: residue/limb structure
//     (ErrResidueMissing) and coefficient ranges (ErrCorruptCiphertext).
//     The executor (internal/henn/exec) calls it on every input of a run
//     and on every engine result, before it compares the result's level
//     and scale with the graph's;
//   - EncodeVecsAt refuses NaN/Inf, over-long or badly scaled plaintext
//     operands (the model weights), or one at a level off the chain
//     (ErrInvalidPlaintext);
//   - DecryptVec scans the output ciphertext and refuses non-finite
//     slots (ErrCorruptCiphertext);
//   - the noise budget is a property of the graph, not of a ciphertext:
//     NoiseBits runs the internal/noise canonical-embedding bound over
//     each graph the executor prepares for the guard, so a plan whose
//     messages would drown is refused with ErrNoiseBudgetExhausted
//     before it runs instead of returning drowned logits.
//
// Every other call reaches the wrapped engine unchanged. Level and scale
// are the graph's, and engine panics are the executor's: it checks every
// result against the (level, scale) ir.Graph.Derive gave its op
// (ir.ErrLevelExhausted, ir.ErrScaleDrift) and turns a panic inside an
// op into exec.ErrEnginePanic, naming the op and its stage either way.
// So the composition
//
//	g := guard.New(engine, guard.DefaultConfig())
//	logits, report, err := plan.InferCtx(ctx, g, image)
//
// yields typed errors end to end. The guard keeps no per-run state, so
// one guard serves any number of runs, concurrent or not, and a failed
// run leaves nothing behind for the next. A clean run through the guard
// computes bit-identical logits to the unguarded engine: the guard never
// alters ciphertexts, only observes them.
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

// Typed failure classes. Every guard refusal wraps exactly one of these
// sentinels (a ciphertext at a level outside the chain wraps
// ir.ErrLevelExhausted); match with errors.Is.
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
)

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

// GuardedEngine is a henn.Engine that embeds the engine it guards and
// overrides only EncodeVecsAt and DecryptVec; every other engine call
// reaches the inner engine unchanged. It adds ir.PlainRecombiner,
// ir.Releaser, and the executor's Check, NoiseBits and Fuses. Safe for
// the same concurrency the wrapped engine supports: its only mutable
// state is a cache.
type GuardedEngine struct {
	henn.Engine
	model noise.Model
	ks    float64 // per-key-switch noise bound

	// Base-backend contexts for structural/range validation and the
	// noise model (both nil when the base engine is not recognised).
	rnsCtx *ckks.Context
	bigCtx *ckksbig.Context
	qs     []*big.Int // CKKS-RNS: q_i per limb, read once

	mu  sync.Mutex
	qAt map[int]*big.Int // ckksbig: level → Q_ℓ cache
}

// New wraps inner. Its Config argument is empty (see Config).
func New(inner henn.Engine, _ Config) *GuardedEngine {
	g := &GuardedEngine{Engine: inner, qAt: map[int]*big.Int{}}

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
		for _, sr := range g.rnsCtx.R.SubRings {
			g.qs = append(g.qs, sr.Modulus())
		}
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
// keeps fewer than DefaultMinNoiseBits it returns an error wrapping
// ErrNoiseBudgetExhausted that names the first such op and its stage,
// and counts it like any refusal (telFailure). With telemetry on it
// publishes the per-stage gauges (telStages). A base engine the guard
// does not recognise has no noise model: nil bits, no error.
func (g *GuardedEngine) NoiseBits(gr *ir.Graph) ([]float64, error) {
	if g.rnsCtx == nil && g.bigCtx == nil {
		return nil, nil
	}
	bits := noise.Graph(gr, g.model, g.ks, g.QiFloat)
	for i, b := range bits {
		if b < DefaultMinNoiseBits || math.IsNaN(b) {
			op := &gr.Ops[i]
			err := fmt.Errorf("%w: %s: op %d (%s) keeps %.1f bits of precision (< %d)",
				ErrNoiseBudgetExhausted, gr.Stages[op.Stage].Name, i, op.Kind, b, DefaultMinNoiseBits)
			telFailure(err)
			return nil, err
		}
	}
	telStages(gr, bits)
	return bits, nil
}

// Check scans ct — the structure and coefficient ranges of a backend
// ciphertext (validate) — and returns the first fault it finds, counted
// by telFailure. The executor calls it on every input of a run and on
// every engine result.
func (g *GuardedEngine) Check(ct henn.Ct) error {
	err := g.validate(ct)
	if err != nil {
		telFailure(err)
	}
	return err
}

// fail refuses the current call by panicking with cause, which
// exec.Prepare (EncodeVecsAt) and henn's decrypt (DecryptVec) recover
// with its error chain intact.
func fail(cause error) {
	telFailure(cause)
	panic(cause)
}

// Release implements ir.Releaser: a dead ciphertext goes back to the
// inner engine when that recycles too.
func (g *GuardedEngine) Release(ct henn.Ct) {
	if r, ok := g.Engine.(ir.Releaser); ok {
		r.Release(ct)
	}
}

// DecryptVec implements henn.Engine. The ciphertext is scanned first and
// the decrypted slots for NaN/Inf.
func (g *GuardedEngine) DecryptVec(ct henn.Ct) []float64 {
	if err := g.Check(ct); err != nil {
		panic(err)
	}
	out := g.Engine.DecryptVec(ct)
	for i, x := range out {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			fail(fmt.Errorf("%w: decryption produced %v at slot %d", ErrCorruptCiphertext, x, i))
		}
	}
	return out
}

// PlainRecombine implements ir.PlainRecombiner, so a guarded engine keeps
// the executor's fused linear-stage call; nil pts is a pure integer
// recombination. The whole combination runs on the inner engine through
// ir.Combine; the executor checks its result.
func (g *GuardedEngine) PlainRecombine(args []henn.Ct, pts []henn.Pt, weights []int64) henn.Ct {
	return ir.Combine(g.Engine, args, pts, weights)
}

// Fuses reports whether PlainRecombine is one call on the inner engine.
// When it is not, the executor evaluates a recombine's products itself,
// through MulPlainPt, so each is scanned and checked on its own.
func (g *GuardedEngine) Fuses() bool {
	_, ok := g.Engine.(ir.PlainRecombiner)
	return ok
}

// EncodeVecsAt implements henn.Engine: every operand must be finite, fit
// the slots and carry a positive finite scale, and its level must be on
// the chain.
func (g *GuardedEngine) EncodeVecsAt(specs []henn.PlainSpec) []henn.Pt {
	for _, s := range specs {
		if err := g.checkSpec(s); err != nil {
			fail(err)
		}
	}
	return g.Engine.EncodeVecsAt(specs)
}

// checkSpec returns why s is not a valid plaintext operand, or nil.
func (g *GuardedEngine) checkSpec(s henn.PlainSpec) error {
	if len(s.Values) > g.Slots() {
		return fmt.Errorf("%w: %d values exceed %d slots", ErrInvalidPlaintext, len(s.Values), g.Slots())
	}
	for i, x := range s.Values {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("%w: non-finite value %v at slot %d", ErrInvalidPlaintext, x, i)
		}
	}
	if s.Scale <= 0 || math.IsNaN(s.Scale) || math.IsInf(s.Scale, 0) {
		return fmt.Errorf("%w: plaintext scale %v", ErrInvalidPlaintext, s.Scale)
	}
	if s.Level < 0 || s.Level > g.MaxLevel() {
		return fmt.Errorf("%w: encode level %d outside [0, %d]", ErrInvalidPlaintext, s.Level, g.MaxLevel())
	}
	return nil
}

var (
	_ henn.Engine        = (*GuardedEngine)(nil)
	_ ir.PlainRecombiner = (*GuardedEngine)(nil)
	_ ir.Releaser        = (*GuardedEngine)(nil)
)
