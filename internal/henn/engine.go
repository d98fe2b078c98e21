// Package henn evaluates trained CNNs homomorphically: the paper's
// privacy-preserving CNN-HE and CNN-HE-RNS models.
//
// A trained internal/nn model is compiled into a Plan — a sequence of
// homomorphic stages over the packed ciphertext holding the flattened
// activation vector (or over a shard set of them, when the tensor
// outgrows one ciphertext; DESIGN.md §15). Every linear layer
// (convolutions included, with batch normalization and input scaling
// folded in) becomes an explicit slots×slots matrix evaluated by the
// Halevi–Shoup diagonal method with baby-step/giant-step rotations; every
// SLAF activation becomes a depth-2 polynomial evaluation with per-unit
// coefficient vectors.
//
// The same Plan runs on two interchangeable engines: the RNS engine
// (internal/ckks, the paper's CKKS-RNS) and the multiprecision baseline
// engine (internal/ckksbig, original CKKS). Their latency difference on
// identical plans is the paper's CNN-HE vs CNN-HE-RNS comparison
// (Tables III and V).
package henn

import (
	"math/big"
	"runtime"

	"cnnhe/internal/ckks"
	"cnnhe/internal/ckksbig"
	"cnnhe/internal/henn/ir"
)

// Ct is an opaque ciphertext handle owned by an Engine. It aliases ir.Ct
// so compiled plans, lowered graphs, and the executor share one handle
// type across packages.
type Ct = ir.Ct

// Pt is an opaque pre-encoded plaintext handle (see Engine.EncodeVecsAt).
type Pt = ir.Pt

// PlainSpec describes one plaintext vector to pre-encode at an exact
// (level, scale).
type PlainSpec = ir.PlainSpec

// Engine abstracts the two CKKS backends behind the operations the
// compiled plans and lowered op graphs need; see ir.Engine for the full
// method contract.
type Engine = ir.Engine

// RNSEngine is the CKKS-RNS backend (internal/ckks): the evaluation-only
// engine plus the secret-key half — encryptor, decryptor and secret key.
// The fused linear-stage call (PlainRecombine) is the embedded engine's,
// so both routes run it; only the full engine adds the pure integer
// Recombine: the benchmark's timing decorator forwards only that call,
// and its test pins it here and absent on the eval engine.
type RNSEngine struct {
	*RNSEvalEngine
	Ept *ckks.Encryptor
	Dec *ckks.Decryptor
	SK  *ckks.SecretKey
}

// NewRNSEngine builds a full CKKS-RNS deployment (keys for the given
// rotations) over params.
func NewRNSEngine(params ckks.Parameters, rotations []int, seed int64) (*RNSEngine, error) {
	ctx, err := ckks.NewContext(params)
	if err != nil {
		return nil, err
	}
	kg := ckks.NewKeyGenerator(ctx, seed)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinearizationKey(sk)
	var rtk *ckks.RotationKeySet
	if len(rotations) > 0 {
		rtk = kg.GenRotationKeys(sk, rotations, false)
	}
	return NewRNSEngineFromKeys(ctx, sk, pk, rlk, rtk, seed+1), nil
}

// NewRNSEngineFromKeys builds a full engine from explicit key material
// instead of generating its own — the client-side reference engine: the
// e2e parity tests run the plaintext-path inference on exactly the keys
// the client registered with the server. encSeed seeds the encryptor's
// randomness so a wire round trip can be replayed bit-for-bit.
func NewRNSEngineFromKeys(ctx *ckks.Context, sk *ckks.SecretKey, pk *ckks.PublicKey,
	rlk *ckks.RelinearizationKey, rtk *ckks.RotationKeySet, encSeed int64) *RNSEngine {
	return &RNSEngine{
		RNSEvalEngine: NewRNSEvalEngine(ctx, rlk, rtk),
		Ept:           ckks.NewEncryptor(ctx, pk, encSeed),
		Dec:           ckks.NewDecryptor(ctx, sk),
		SK:            sk,
	}
}

// Name implements Engine.
func (e *RNSEngine) Name() string { return "ckks-rns" }

// EncryptVec implements Engine.
func (e *RNSEngine) EncryptVec(values []float64) Ct {
	pt := e.Enc.Encode(values, e.MaxLevel(), e.Scale())
	return e.Ept.Encrypt(pt)
}

// DecryptVec implements Engine.
func (e *RNSEngine) DecryptVec(ct Ct) []float64 {
	return e.Enc.Decode(e.Dec.DecryptNew(ct.(*ckks.Ciphertext)))
}

// Recombine implements ir.Recombiner: Σᵢ weights[i]·args[i] accumulated
// in place into one fresh ciphertext. Modular addition is exact, so the
// result is bit-identical to the MulInt/Add chain.
func (e *RNSEngine) Recombine(args []Ct, weights []int64) Ct {
	return e.PlainRecombine(args, nil, weights)
}

func nonZero(ks []int) []int {
	out := ks[:0:0]
	for _, k := range ks {
		if k != 0 {
			out = append(out, k)
		}
	}
	return out
}

// BigEngine is the multiprecision (non-RNS) baseline backend.
type BigEngine struct {
	Ctx *ckksbig.Context
	Enc *ckksbig.Encoder
	Ept *ckksbig.Encryptor
	Dec *ckksbig.Decryptor
	Ev  *ckksbig.Evaluator
	SK  *ckksbig.SecretKey
}

// NewBigEngine builds the baseline deployment.
func NewBigEngine(params ckksbig.Parameters, rotations []int, seed int64) (*BigEngine, error) {
	ctx, err := ckksbig.NewContext(params)
	if err != nil {
		return nil, err
	}
	kg := ckksbig.NewKeyGenerator(ctx, seed)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinearizationKey(sk)
	var rtk *ckksbig.RotationKeySet
	if len(rotations) > 0 {
		rtk = kg.GenRotationKeys(sk, rotations, false)
	}
	return &BigEngine{
		Ctx: ctx,
		Enc: ckksbig.NewEncoder(ctx),
		Ept: ckksbig.NewEncryptor(ctx, pk, seed+1),
		Dec: ckksbig.NewDecryptor(ctx, sk),
		Ev:  ckksbig.NewEvaluator(ctx, rlk, rtk),
		SK:  sk,
	}, nil
}

// MulPlainVecCached implements Engine: the key is ignored, the vector
// encoded afresh (graphs pre-encode through EncodeVecsAt instead).
func (e *BigEngine) MulPlainVecCached(ct Ct, _ string, v []float64, scale float64) Ct {
	return e.MulPlainVecAtScale(ct, v, scale)
}

// AddPlainVecCached implements Engine like MulPlainVecCached.
func (e *BigEngine) AddPlainVecCached(ct Ct, _ string, v []float64) Ct {
	return e.AddPlainVec(ct, v)
}

// Name implements Engine.
func (e *BigEngine) Name() string { return "ckks-big" }

// Slots implements Engine.
func (e *BigEngine) Slots() int { return e.Ctx.Params.Slots() }

// MaxLevel implements Engine.
func (e *BigEngine) MaxLevel() int { return e.Ctx.Params.MaxLevel() }

// Scale implements Engine.
func (e *BigEngine) Scale() float64 { return e.Ctx.Params.Scale }

// QiFloat implements Engine.
func (e *BigEngine) QiFloat(level int) float64 { return e.Ctx.Params.QiFloat(level) }

// SpecialPFloat returns the key-switching modulus P as a float64 (used by
// the guard's key-switch noise bound).
func (e *BigEngine) SpecialPFloat() float64 {
	f, _ := new(big.Float).SetInt(e.Ctx.P).Float64()
	return f
}

// EncryptVec implements Engine.
func (e *BigEngine) EncryptVec(values []float64) Ct {
	pt := e.Enc.Encode(values, e.MaxLevel(), e.Scale())
	return e.Ept.Encrypt(pt)
}

// DecryptVec implements Engine.
func (e *BigEngine) DecryptVec(ct Ct) []float64 {
	return e.Enc.Decode(e.Dec.DecryptNew(ct.(*ckksbig.Ciphertext)))
}

// Level implements Engine.
func (e *BigEngine) Level(ct Ct) int { return ct.(*ckksbig.Ciphertext).Level }

// ScaleOf implements Engine.
func (e *BigEngine) ScaleOf(ct Ct) float64 { return ct.(*ckksbig.Ciphertext).Scale }

// Add implements Engine.
func (e *BigEngine) Add(a, b Ct) Ct {
	return e.Ev.Add(a.(*ckksbig.Ciphertext), b.(*ckksbig.Ciphertext))
}

// AddPlainVec implements Engine.
func (e *BigEngine) AddPlainVec(ct Ct, v []float64) Ct {
	c := ct.(*ckksbig.Ciphertext)
	pt := e.Enc.Encode(v, c.Level, c.Scale)
	return e.Ev.AddPlain(c, pt)
}

// MulPlainVecAtScale implements Engine.
func (e *BigEngine) MulPlainVecAtScale(ct Ct, v []float64, scale float64) Ct {
	c := ct.(*ckksbig.Ciphertext)
	pt := e.Enc.Encode(v, c.Level, scale)
	return e.Ev.MulPlain(c, pt)
}

// MulRelin implements Engine.
func (e *BigEngine) MulRelin(a, b Ct) Ct {
	return e.Ev.Mul(a.(*ckksbig.Ciphertext), b.(*ckksbig.Ciphertext))
}

// MulInt implements Engine.
func (e *BigEngine) MulInt(ct Ct, n int64) Ct {
	return e.Ev.MulInt(ct.(*ckksbig.Ciphertext), n)
}

// Rescale implements Engine.
func (e *BigEngine) Rescale(ct Ct) Ct { return e.Ev.Rescale(ct.(*ckksbig.Ciphertext)) }

// DropLevel implements Engine.
func (e *BigEngine) DropLevel(ct Ct, n int) Ct {
	return e.Ev.DropLevel(ct.(*ckksbig.Ciphertext), n)
}

// Rotate implements Engine.
func (e *BigEngine) Rotate(ct Ct, k int) Ct {
	if k == 0 {
		return ct
	}
	return e.Ev.Rotate(ct.(*ckksbig.Ciphertext), k)
}

// RotateMany implements Engine using hoisted rotations.
func (e *BigEngine) RotateMany(ct Ct, ks []int) map[int]Ct {
	c := ct.(*ckksbig.Ciphertext)
	outs := e.Ev.RotateHoisted(c, nonZero(ks))
	m := make(map[int]Ct, len(ks))
	for _, k := range ks {
		if k == 0 {
			m[0] = ct
			continue
		}
		m[k] = outs[k]
	}
	return m
}

// EncodeVecsAt implements Engine: the ahead-of-time encoding pass.
func (e *BigEngine) EncodeVecsAt(specs []PlainSpec) []Pt {
	es := make([]ckksbig.EncodeSpec, len(specs))
	for i, s := range specs {
		es[i] = ckksbig.EncodeSpec{Values: s.Values, Level: s.Level, Scale: s.Scale}
	}
	pts := e.Enc.EncodeBatch(es, runtime.NumCPU())
	out := make([]Pt, len(pts))
	for i, pt := range pts {
		out[i] = pt
	}
	return out
}

// MulPlainPt implements Engine.
func (e *BigEngine) MulPlainPt(ct Ct, pt Pt) Ct {
	return e.Ev.MulPlain(ct.(*ckksbig.Ciphertext), pt.(*ckksbig.Plaintext))
}

// AddPlainPt implements Engine.
func (e *BigEngine) AddPlainPt(ct Ct, pt Pt) Ct {
	return e.Ev.AddPlain(ct.(*ckksbig.Ciphertext), pt.(*ckksbig.Plaintext))
}

var (
	_ Engine             = (*RNSEngine)(nil)
	_ Engine             = (*BigEngine)(nil)
	_ ir.PlainRecombiner = (*RNSEngine)(nil)
)
