package henn

import (
	"runtime"

	"cnnhe/internal/ckks"
	"cnnhe/internal/henn/ir"
)

// RNSEvalEngine is the CKKS-RNS backend restricted to evaluation-key
// material: it can run a lowered op graph over ciphertexts that arrive
// already encrypted, and nothing else. The struct deliberately has no
// secret-key, decryptor, or encryptor field — the server-side engine for
// client-held-key inference is private by construction, not by
// discipline. EncryptVec and DecryptVec exist only to satisfy the Engine
// interface and panic if reached; the executor's RunEncrypted path never
// calls them. It offers the fused linear-stage call (ir.PlainRecombiner)
// and recycles dead results (ir.Releaser), but not ir.Recombiner; see
// RNSEngine for why.
type RNSEvalEngine struct {
	Ctx *ckks.Context
	Enc *ckks.Encoder
	Ev  *ckks.Evaluator
}

// NewRNSEvalEngine builds an evaluation-only engine from a client's
// registered key material. rtk may be nil when the plan needs no
// rotations.
func NewRNSEvalEngine(ctx *ckks.Context, rlk *ckks.RelinearizationKey, rtk *ckks.RotationKeySet) *RNSEvalEngine {
	return &RNSEvalEngine{
		Ctx: ctx,
		Enc: ckks.NewEncoder(ctx),
		Ev:  ckks.NewEvaluator(ctx, rlk, rtk),
	}
}

// MulPlainVecCached implements Engine: the key is ignored, the vector
// encoded afresh (graphs pre-encode through EncodeVecsAt instead).
func (e *RNSEvalEngine) MulPlainVecCached(ct Ct, _ string, v []float64, scale float64) Ct {
	return e.MulPlainVecAtScale(ct, v, scale)
}

// AddPlainVecCached implements Engine like MulPlainVecCached.
func (e *RNSEvalEngine) AddPlainVecCached(ct Ct, _ string, v []float64) Ct {
	return e.AddPlainVec(ct, v)
}

// Name implements Engine.
func (e *RNSEvalEngine) Name() string { return "ckks-rns-eval" }

// Slots implements Engine.
func (e *RNSEvalEngine) Slots() int { return e.Ctx.Params.Slots() }

// MaxLevel implements Engine.
func (e *RNSEvalEngine) MaxLevel() int { return e.Ctx.Params.MaxLevel() }

// Scale implements Engine.
func (e *RNSEvalEngine) Scale() float64 { return e.Ctx.Params.Scale }

// QiFloat implements Engine.
func (e *RNSEvalEngine) QiFloat(level int) float64 { return e.Ctx.Params.QiFloat(level) }

// EncryptVec implements Engine by panicking: an evaluation-only engine
// holds no encryption key path on purpose. Inputs must arrive as
// ciphertexts (exec.Prepared.RunEncrypted).
func (e *RNSEvalEngine) EncryptVec([]float64) Ct {
	panic("henn: RNSEvalEngine cannot encrypt: evaluation-only engine")
}

// DecryptVec implements Engine by panicking: there is no secret key
// here. Results must be returned as ciphertexts for the key holder to
// decrypt.
func (e *RNSEvalEngine) DecryptVec(Ct) []float64 {
	panic("henn: RNSEvalEngine cannot decrypt: no secret key")
}

// Level implements Engine.
func (e *RNSEvalEngine) Level(ct Ct) int { return ct.(*ckks.Ciphertext).Level }

// ScaleOf implements Engine.
func (e *RNSEvalEngine) ScaleOf(ct Ct) float64 { return ct.(*ckks.Ciphertext).Scale }

// Add implements Engine.
func (e *RNSEvalEngine) Add(a, b Ct) Ct {
	return e.Ev.Add(a.(*ckks.Ciphertext), b.(*ckks.Ciphertext))
}

// AddPlainVec implements Engine.
func (e *RNSEvalEngine) AddPlainVec(ct Ct, v []float64) Ct {
	c := ct.(*ckks.Ciphertext)
	pt := e.Enc.Encode(v, c.Level, c.Scale)
	return e.Ev.AddPlain(c, pt)
}

// MulPlainVecAtScale implements Engine.
func (e *RNSEvalEngine) MulPlainVecAtScale(ct Ct, v []float64, scale float64) Ct {
	c := ct.(*ckks.Ciphertext)
	pt := e.Enc.Encode(v, c.Level, scale)
	return e.Ev.MulPlain(c, pt)
}

// MulRelin implements Engine.
func (e *RNSEvalEngine) MulRelin(a, b Ct) Ct {
	return e.Ev.Mul(a.(*ckks.Ciphertext), b.(*ckks.Ciphertext))
}

// MulInt implements Engine.
func (e *RNSEvalEngine) MulInt(ct Ct, n int64) Ct {
	return e.Ev.MulInt(ct.(*ckks.Ciphertext), n)
}

// Rescale implements Engine.
func (e *RNSEvalEngine) Rescale(ct Ct) Ct { return e.Ev.Rescale(ct.(*ckks.Ciphertext)) }

// DropLevel implements Engine.
func (e *RNSEvalEngine) DropLevel(ct Ct, n int) Ct {
	return e.Ev.DropLevel(ct.(*ckks.Ciphertext), n)
}

// Rotate implements Engine.
func (e *RNSEvalEngine) Rotate(ct Ct, k int) Ct {
	if k == 0 {
		return ct
	}
	return e.Ev.Rotate(ct.(*ckks.Ciphertext), k)
}

// RotateMany implements Engine using hoisted rotations.
func (e *RNSEvalEngine) RotateMany(ct Ct, ks []int) map[int]Ct {
	c := ct.(*ckks.Ciphertext)
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
func (e *RNSEvalEngine) EncodeVecsAt(specs []PlainSpec) []Pt {
	es := make([]ckks.EncodeSpec, len(specs))
	for i, s := range specs {
		es[i] = ckks.EncodeSpec{Values: s.Values, Level: s.Level, Scale: s.Scale}
	}
	pts := e.Enc.EncodeBatch(es, runtime.NumCPU())
	out := make([]Pt, len(pts))
	for i, pt := range pts {
		out[i] = pt
	}
	return out
}

// MulPlainPt implements Engine.
func (e *RNSEvalEngine) MulPlainPt(ct Ct, pt Pt) Ct {
	return e.Ev.MulPlain(ct.(*ckks.Ciphertext), pt.(*ckks.Plaintext))
}

// AddPlainPt implements Engine.
func (e *RNSEvalEngine) AddPlainPt(ct Ct, pt Pt) Ct {
	return e.Ev.AddPlain(ct.(*ckks.Ciphertext), pt.(*ckks.Plaintext))
}

// Release implements ir.Releaser: ct's limbs go back to the ring, and
// later results are built from them.
func (e *RNSEvalEngine) Release(ct Ct) { e.Ev.Recycle(ct.(*ckks.Ciphertext)) }

// PlainRecombine implements ir.PlainRecombiner: the recombination and the
// plaintext products it absorbs as one evaluator call (see
// ckks.Evaluator.PlainRecombine for the bit-identity argument).
func (e *RNSEvalEngine) PlainRecombine(args []Ct, pts []Pt, weights []int64) Ct {
	cts := make([]*ckks.Ciphertext, len(args))
	for i, a := range args {
		cts[i] = a.(*ckks.Ciphertext)
	}
	var plains []*ckks.Plaintext
	if pts != nil {
		plains = make([]*ckks.Plaintext, len(pts))
		for i, pt := range pts {
			if pt != nil {
				plains[i] = pt.(*ckks.Plaintext)
			}
		}
	}
	return e.Ev.PlainRecombine(cts, plains, weights)
}

var (
	_ Engine             = (*RNSEvalEngine)(nil)
	_ ir.PlainRecombiner = (*RNSEvalEngine)(nil)
	_ ir.Releaser        = (*RNSEvalEngine)(nil)
)
