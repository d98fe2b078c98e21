package ckks

import (
	"fmt"
	"math"
	"math/big"

	"cnnhe/internal/ring"
)

// Evaluator performs homomorphic operations. It holds only the context
// and the evaluation keys, all read-only, and draws its scratch and its
// results from the ring's recycled limbs (ring.GetPoly), so one evaluator
// serves any number of goroutines at once. Every result overwrites all of
// its limbs; hand a dead result back with Recycle.
type Evaluator struct {
	ctx *Context
	rlk *RelinearizationKey
	rtk *RotationKeySet
}

// NewEvaluator returns an evaluator with the given keys (either may be nil
// when the corresponding operations are not used).
func NewEvaluator(ctx *Context, rlk *RelinearizationKey, rtk *RotationKeySet) *Evaluator {
	return &Evaluator{ctx: ctx, rlk: rlk, rtk: rtk}
}

// Recycle hands ct's limbs back to the ring for later results to reuse.
// ct must be dead: no later op may read it, and no live ciphertext may
// share its polynomials. No Evaluator result shares an operand's, except
// DropLevel by 0 and RescaleTo ct's own level, which return ct itself.
func (ev *Evaluator) Recycle(ct *Ciphertext) {
	ev.ctx.R.PutPoly(ct.C0)
	ev.ctx.R.PutPoly(ct.C1)
}

// scaleClose reports whether two scales agree to within 1 part in 2^40.
func scaleClose(a, b float64) bool {
	return math.Abs(a-b) <= math.Max(a, b)*math.Exp2(-40)
}

func (ev *Evaluator) checkPair(a, b *Ciphertext) int {
	if a.Level != b.Level {
		panic(fmt.Sprintf("ckks: level mismatch %d vs %d (use DropLevel)", a.Level, b.Level))
	}
	if !scaleClose(a.Scale, b.Scale) {
		panic(fmt.Sprintf("ckks: scale mismatch 2^%.4f vs 2^%.4f", math.Log2(a.Scale), math.Log2(b.Scale)))
	}
	return a.Level
}

// Add returns a + b.
func (ev *Evaluator) Add(a, b *Ciphertext) *Ciphertext {
	level := ev.checkPair(a, b)
	r := ev.ctx.R
	limbs := r.Limbs(level, false)
	out := &Ciphertext{C0: r.GetPolyQ(level), C1: r.GetPolyQ(level), Level: level, Scale: a.Scale}
	r.Add(limbs, a.C0, b.C0, out.C0)
	r.Add(limbs, a.C1, b.C1, out.C1)
	return out
}

// AddInPlace sets a += b.
func (ev *Evaluator) AddInPlace(a, b *Ciphertext) {
	level := ev.checkPair(a, b)
	r := ev.ctx.R
	limbs := r.Limbs(level, false)
	r.Add(limbs, a.C0, b.C0, a.C0)
	r.Add(limbs, a.C1, b.C1, a.C1)
}

// Sub returns a − b.
func (ev *Evaluator) Sub(a, b *Ciphertext) *Ciphertext {
	level := ev.checkPair(a, b)
	r := ev.ctx.R
	limbs := r.Limbs(level, false)
	out := &Ciphertext{C0: r.GetPolyQ(level), C1: r.GetPolyQ(level), Level: level, Scale: a.Scale}
	r.Sub(limbs, a.C0, b.C0, out.C0)
	r.Sub(limbs, a.C1, b.C1, out.C1)
	return out
}

// Neg returns −a.
func (ev *Evaluator) Neg(a *Ciphertext) *Ciphertext {
	r := ev.ctx.R
	limbs := r.Limbs(a.Level, false)
	out := &Ciphertext{C0: r.GetPolyQ(a.Level), C1: r.GetPolyQ(a.Level), Level: a.Level, Scale: a.Scale}
	r.Neg(limbs, a.C0, out.C0)
	r.Neg(limbs, a.C1, out.C1)
	return out
}

// AddPlain returns ct + pt (levels must match; scales must agree).
func (ev *Evaluator) AddPlain(ct *Ciphertext, pt *Plaintext) *Ciphertext {
	if ct.Level != pt.Level {
		panic("ckks: AddPlain level mismatch")
	}
	if !scaleClose(ct.Scale, pt.Scale) {
		panic(fmt.Sprintf("ckks: AddPlain scale mismatch 2^%.4f vs 2^%.4f",
			math.Log2(ct.Scale), math.Log2(pt.Scale)))
	}
	if !pt.IsNTT {
		panic("ckks: AddPlain requires NTT plaintext")
	}
	r := ev.ctx.R
	limbs := r.Limbs(ct.Level, false)
	out := ct.CopyNew(ev.ctx)
	r.Add(limbs, out.C0, pt.Value, out.C0)
	return out
}

// MulPlain returns ct ⊙ pt. The output scale is the product of scales;
// rescale afterwards.
func (ev *Evaluator) MulPlain(ct *Ciphertext, pt *Plaintext) *Ciphertext {
	if ct.Level != pt.Level {
		panic("ckks: MulPlain level mismatch")
	}
	if !pt.IsNTT {
		panic("ckks: MulPlain requires NTT plaintext")
	}
	r := ev.ctx.R
	limbs := r.Limbs(ct.Level, false)
	out := &Ciphertext{C0: r.GetPolyQ(ct.Level), C1: r.GetPolyQ(ct.Level), Level: ct.Level, Scale: ct.Scale * pt.Scale}
	r.MulCoeffs(limbs, ct.C0, pt.Value, out.C0)
	r.MulCoeffs(limbs, ct.C1, pt.Value, out.C1)
	return out
}

// MulConst multiplies every slot by the real constant c, using scale
// constScale for the encoding (pass 0 for the default: the current level's
// prime, so that one rescale restores the input scale).
func (ev *Evaluator) MulConst(ct *Ciphertext, c float64, constScale float64) *Ciphertext {
	if constScale == 0 {
		constScale = ev.ctx.Params.QiFloat(ct.Level)
	}
	s := EncodeConstant(c, constScale)
	r := ev.ctx.R
	limbs := r.Limbs(ct.Level, false)
	out := &Ciphertext{C0: r.GetPolyQ(ct.Level), C1: r.GetPolyQ(ct.Level), Level: ct.Level, Scale: ct.Scale * constScale}
	neg := s.Sign() < 0
	abs := new(big.Int).Abs(s)
	r.MulScalar(limbs, ct.C0, abs, out.C0)
	r.MulScalar(limbs, ct.C1, abs, out.C1)
	if neg {
		r.Neg(limbs, out.C0, out.C0)
		r.Neg(limbs, out.C1, out.C1)
	}
	return out
}

// MulInt multiplies every slot by the exact integer n (scale unchanged).
func (ev *Evaluator) MulInt(ct *Ciphertext, n int64) *Ciphertext {
	r := ev.ctx.R
	limbs := r.Limbs(ct.Level, false)
	out := &Ciphertext{C0: r.GetPolyQ(ct.Level), C1: r.GetPolyQ(ct.Level), Level: ct.Level, Scale: ct.Scale}
	neg := n < 0
	if neg {
		n = -n
	}
	s := big.NewInt(n)
	r.MulScalar(limbs, ct.C0, s, out.C0)
	r.MulScalar(limbs, ct.C1, s, out.C1)
	if neg {
		r.Neg(limbs, out.C0, out.C0)
		r.Neg(limbs, out.C1, out.C1)
	}
	return out
}

// AddConst adds the real constant c to every slot.
func (ev *Evaluator) AddConst(ct *Ciphertext, c float64) *Ciphertext {
	// Encode c at the ciphertext's exact scale: constant vectors encode to
	// a polynomial with a single nonzero coefficient ⌊c·scale⌉ at degree 0,
	// which is invariant under NTT limb-wise scalar representation only
	// after transform — so go through the encoder for correctness.
	enc := NewEncoder(ev.ctx)
	vals := make([]float64, ev.ctx.Params.Slots())
	for i := range vals {
		vals[i] = c
	}
	pt := enc.Encode(vals, ct.Level, ct.Scale)
	return ev.AddPlain(ct, pt)
}

// Mul returns a·b, relinearized back to degree 1. The output scale is
// a.Scale·b.Scale; rescale afterwards.
func (ev *Evaluator) Mul(a, b *Ciphertext) *Ciphertext {
	if ev.rlk == nil {
		panic("ckks: Mul requires a relinearization key")
	}
	level := ev.checkMulPair(a, b)
	r := ev.ctx.R
	limbs := r.Limbs(level, false)

	d0, d1, d2, tmp := r.GetPoly(), r.GetPoly(), r.GetPoly(), r.GetPoly()
	r.MulCoeffs(limbs, a.C0, b.C0, d0)
	r.MulCoeffs(limbs, a.C0, b.C1, d1)
	r.MulCoeffs(limbs, a.C1, b.C0, tmp)
	r.Add(limbs, d1, tmp, d1)
	r.MulCoeffs(limbs, a.C1, b.C1, d2)

	// Relinearize d2·s² via key switching; the digit raise takes d2 in
	// both domains.
	r.Copy(limbs, d2, tmp)
	r.INTT(limbs, tmp)
	ks0, ks1 := ev.keySwitchCoeff(level, tmp, d2, &ev.rlk.SwitchingKey)
	r.Add(limbs, ks0, d0, ks0)
	r.Add(limbs, ks1, d1, ks1)
	for _, p := range []*ring.Poly{d0, d1, d2, tmp} {
		r.PutPoly(p)
	}
	return &Ciphertext{C0: ks0, C1: ks1, Level: level, Scale: a.Scale * b.Scale}
}

func (ev *Evaluator) checkMulPair(a, b *Ciphertext) int {
	if a.Level != b.Level {
		panic(fmt.Sprintf("ckks: Mul level mismatch %d vs %d", a.Level, b.Level))
	}
	return a.Level
}

// Square returns a·a relinearized.
func (ev *Evaluator) Square(a *Ciphertext) *Ciphertext { return ev.Mul(a, a) }

// Rescale divides the ciphertext by its top prime q_level, dropping one
// level and dividing the scale accordingly. Only limb `level` leaves the
// NTT domain, in scratch: the other limbs of ct are read in place and ct
// is never written, since the parallel executor shares input ciphertexts
// across tasks.
func (ev *Evaluator) Rescale(ct *Ciphertext) *Ciphertext {
	if ct.Level == 0 {
		panic("ckks: cannot rescale at level 0")
	}
	r := ev.ctx.R
	level := ct.Level
	out := &Ciphertext{
		C0: r.GetPolyQ(level - 1), C1: r.GetPolyQ(level - 1),
		Level: level - 1,
		Scale: ct.Scale / ev.ctx.Params.QiFloat(level),
	}
	top := []int{level}
	top0, top1 := r.GetPoly(), r.GetPoly()
	r.Copy(top, ct.C0, top0)
	r.Copy(top, ct.C1, top1)
	r.INTT(top, top0)
	r.INTT(top, top1)
	r.DivideExactByLimbNTT(level, r.Limbs(level-1, false),
		[]*ring.Poly{top0, top1}, []*ring.Poly{ct.C0, ct.C1}, []*ring.Poly{out.C0, out.C1})
	r.PutPoly(top0)
	r.PutPoly(top1)
	return out
}

// RescaleTo repeatedly rescales until the ciphertext level equals level.
func (ev *Evaluator) RescaleTo(ct *Ciphertext, level int) *Ciphertext {
	out := ct
	for out.Level > level {
		out = ev.Rescale(out)
	}
	return out
}

// DropLevel reduces the ciphertext level by n without dividing (limbs are
// simply discarded; the scale is unchanged).
func (ev *Evaluator) DropLevel(ct *Ciphertext, n int) *Ciphertext {
	if n == 0 {
		return ct
	}
	if n < 0 || ct.Level-n < 0 {
		panic("ckks: invalid DropLevel")
	}
	r := ev.ctx.R
	level := ct.Level - n
	limbs := r.Limbs(level, false)
	out := &Ciphertext{C0: r.GetPolyQ(level), C1: r.GetPolyQ(level), Level: level, Scale: ct.Scale}
	r.Copy(limbs, ct.C0, out.C0)
	r.Copy(limbs, ct.C1, out.C1)
	return out
}
