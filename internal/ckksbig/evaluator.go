package ckksbig

import (
	"fmt"
	"math"
	"math/big"

	"cnnhe/internal/bigring"
	"cnnhe/internal/ring"
)

// Evaluator performs homomorphic operations on the multiprecision backend.
type Evaluator struct {
	ctx *Context
	rlk *SwitchingKey
	rtk *RotationKeySet
}

// NewEvaluator returns an evaluator with the given keys (either may be nil
// when the corresponding operations are unused).
func NewEvaluator(ctx *Context, rlk *SwitchingKey, rtk *RotationKeySet) *Evaluator {
	return &Evaluator{ctx: ctx, rlk: rlk, rtk: rtk}
}

func scaleClose(a, b float64) bool {
	return math.Abs(a-b) <= math.Max(a, b)*math.Exp2(-40)
}

func (ev *Evaluator) checkPair(a, b *Ciphertext) int {
	if a.Level != b.Level {
		panic(fmt.Sprintf("ckksbig: level mismatch %d vs %d", a.Level, b.Level))
	}
	if !scaleClose(a.Scale, b.Scale) {
		panic(fmt.Sprintf("ckksbig: scale mismatch 2^%.4f vs 2^%.4f", logScale(a.Scale), logScale(b.Scale)))
	}
	return a.Level
}

// Add returns a + b.
func (ev *Evaluator) Add(a, b *Ciphertext) *Ciphertext {
	level := ev.checkPair(a, b)
	r := ev.ctx.RingQ(level)
	out := &Ciphertext{C0: r.NewPoly(), C1: r.NewPoly(), Level: level, Scale: a.Scale}
	r.Add(a.C0, b.C0, out.C0)
	r.Add(a.C1, b.C1, out.C1)
	return out
}

// AddInPlace sets a += b.
func (ev *Evaluator) AddInPlace(a, b *Ciphertext) {
	level := ev.checkPair(a, b)
	r := ev.ctx.RingQ(level)
	r.Add(a.C0, b.C0, a.C0)
	r.Add(a.C1, b.C1, a.C1)
}

// Sub returns a − b.
func (ev *Evaluator) Sub(a, b *Ciphertext) *Ciphertext {
	level := ev.checkPair(a, b)
	r := ev.ctx.RingQ(level)
	out := &Ciphertext{C0: r.NewPoly(), C1: r.NewPoly(), Level: level, Scale: a.Scale}
	r.Sub(a.C0, b.C0, out.C0)
	r.Sub(a.C1, b.C1, out.C1)
	return out
}

// Neg returns −a.
func (ev *Evaluator) Neg(a *Ciphertext) *Ciphertext {
	r := ev.ctx.RingQ(a.Level)
	out := &Ciphertext{C0: r.NewPoly(), C1: r.NewPoly(), Level: a.Level, Scale: a.Scale}
	r.Neg(a.C0, out.C0)
	r.Neg(a.C1, out.C1)
	return out
}

// AddPlain returns ct + pt (matching level and scale).
func (ev *Evaluator) AddPlain(ct *Ciphertext, pt *Plaintext) *Ciphertext {
	if ct.Level != pt.Level {
		panic("ckksbig: AddPlain level mismatch")
	}
	if !scaleClose(ct.Scale, pt.Scale) {
		panic(fmt.Sprintf("ckksbig: AddPlain scale mismatch 2^%.4f vs 2^%.4f", logScale(ct.Scale), logScale(pt.Scale)))
	}
	out := ct.CopyNew(ev.ctx)
	ev.ctx.RingQ(ct.Level).Add(out.C0, pt.Value, out.C0)
	return out
}

// MulPlain returns ct ⊙ pt; the scale multiplies.
func (ev *Evaluator) MulPlain(ct *Ciphertext, pt *Plaintext) *Ciphertext {
	if ct.Level != pt.Level {
		panic("ckksbig: MulPlain level mismatch")
	}
	r := ev.ctx.RingQ(ct.Level)
	out := &Ciphertext{C0: r.NewPoly(), C1: r.NewPoly(), Level: ct.Level, Scale: ct.Scale * pt.Scale}
	r.MulCoeffs(ct.C0, pt.Value, out.C0)
	r.MulCoeffs(ct.C1, pt.Value, out.C1)
	return out
}

// MulConst multiplies every slot by c encoded at constScale (0 for the
// default: the current level's prime, so one rescale restores the scale).
func (ev *Evaluator) MulConst(ct *Ciphertext, c float64, constScale float64) *Ciphertext {
	if constScale == 0 {
		constScale = ev.ctx.Params.QiFloat(ct.Level)
	}
	s := EncodeConstant(c, constScale)
	r := ev.ctx.RingQ(ct.Level)
	out := &Ciphertext{C0: r.NewPoly(), C1: r.NewPoly(), Level: ct.Level, Scale: ct.Scale * constScale}
	neg := s.Sign() < 0
	abs := new(big.Int).Abs(s)
	r.MulScalar(ct.C0, abs, out.C0)
	r.MulScalar(ct.C1, abs, out.C1)
	if neg {
		r.Neg(out.C0, out.C0)
		r.Neg(out.C1, out.C1)
	}
	return out
}

// MulInt multiplies every slot by the exact integer n (scale unchanged).
func (ev *Evaluator) MulInt(ct *Ciphertext, n int64) *Ciphertext {
	r := ev.ctx.RingQ(ct.Level)
	out := &Ciphertext{C0: r.NewPoly(), C1: r.NewPoly(), Level: ct.Level, Scale: ct.Scale}
	neg := n < 0
	if neg {
		n = -n
	}
	s := big.NewInt(n)
	r.MulScalar(ct.C0, s, out.C0)
	r.MulScalar(ct.C1, s, out.C1)
	if neg {
		r.Neg(out.C0, out.C0)
		r.Neg(out.C1, out.C1)
	}
	return out
}

// AddConst adds the constant c to every slot.
func (ev *Evaluator) AddConst(ct *Ciphertext, c float64) *Ciphertext {
	enc := NewEncoder(ev.ctx)
	vals := make([]float64, ev.ctx.Params.Slots())
	for i := range vals {
		vals[i] = c
	}
	return ev.AddPlain(ct, enc.Encode(vals, ct.Level, ct.Scale))
}

// Mul returns a·b relinearized; the scale multiplies.
func (ev *Evaluator) Mul(a, b *Ciphertext) *Ciphertext {
	if ev.rlk == nil {
		panic("ckksbig: Mul requires a relinearization key")
	}
	if a.Level != b.Level {
		panic("ckksbig: Mul level mismatch")
	}
	level := a.Level
	r := ev.ctx.RingQ(level)
	d0 := r.NewPoly()
	d1 := r.NewPoly()
	d2 := r.NewPoly()
	tmp := r.NewPoly()
	r.MulCoeffs(a.C0, b.C0, d0)
	r.MulCoeffs(a.C0, b.C1, d1)
	r.MulCoeffs(a.C1, b.C0, tmp)
	r.Add(d1, tmp, d1)
	r.MulCoeffs(a.C1, b.C1, d2)
	r.INTT(d2)
	ks0, ks1 := ev.keySwitch(level, d2, ev.rlk)
	out := &Ciphertext{C0: d0, C1: d1, Level: level, Scale: a.Scale * b.Scale}
	r.Add(out.C0, ks0, out.C0)
	r.Add(out.C1, ks1, out.C1)
	return out
}

// Square returns a·a.
func (ev *Evaluator) Square(a *Ciphertext) *Ciphertext { return ev.Mul(a, a) }

// Rescale divides the ciphertext by its top prime factor, dropping one
// level.
func (ev *Evaluator) Rescale(ct *Ciphertext) *Ciphertext {
	if ct.Level == 0 {
		panic("ckksbig: cannot rescale at level 0")
	}
	level := ct.Level
	rIn := ev.ctx.RingQ(level)
	rOut := ev.ctx.RingQ(level - 1)
	q := ev.ctx.Params.Factors[level]
	halfQ := new(big.Int).Rsh(q, 1)
	out := &Ciphertext{
		Level: level - 1,
		Scale: ct.Scale / ev.ctx.Params.QiFloat(level),
	}
	for _, pair := range [2]*bigring.Poly{ct.C0, ct.C1} {
		tmp := rIn.Copy(pair)
		rIn.INTT(tmp)
		res := rOut.NewPoly()
		rem := new(big.Int)
		for i, v := range tmp.Coeffs {
			// Centered remainder mod q, exact division, reduce mod Q_{ℓ−1}.
			rem.Mod(v, q)
			t := new(big.Int).Sub(v, rem)
			if rem.Cmp(halfQ) > 0 {
				t.Add(t, q)
			}
			t.Quo(t, q)
			res.Coeffs[i].Mod(t, rOut.Q)
		}
		rOut.NTT(res)
		if out.C0 == nil {
			out.C0 = res
		} else {
			out.C1 = res
		}
	}
	return out
}

// RescaleTo rescales until ct reaches the given level.
func (ev *Evaluator) RescaleTo(ct *Ciphertext, level int) *Ciphertext {
	out := ct
	for out.Level > level {
		out = ev.Rescale(out)
	}
	return out
}

// DropLevel reduces the level by n without dividing.
func (ev *Evaluator) DropLevel(ct *Ciphertext, n int) *Ciphertext {
	if n == 0 {
		return ct
	}
	if n < 0 || ct.Level-n < 0 {
		panic("ckksbig: invalid DropLevel")
	}
	level := ct.Level - n
	rIn := ev.ctx.RingQ(ct.Level)
	rOut := ev.ctx.RingQ(level)
	out := &Ciphertext{Level: level, Scale: ct.Scale}
	for _, pair := range [2]*bigring.Poly{ct.C0, ct.C1} {
		tmp := rIn.Copy(pair)
		rIn.INTT(tmp)
		res := rOut.NewPoly()
		for i, v := range tmp.Coeffs {
			res.Coeffs[i].Mod(v, rOut.Q)
		}
		rOut.NTT(res)
		if out.C0 == nil {
			out.C0 = res
		} else {
			out.C1 = res
		}
	}
	return out
}

// keySwitch takes a coefficient-domain polynomial c mod Q_ℓ and a switching
// key for s', returning NTT-domain (p0, p1) mod Q_ℓ with p0 + p1·s ≈ c·s'.
// Following the original scheme: lift c to mod Q_ℓ·P, multiply by the key,
// divide by P with rounding.
func (ev *Evaluator) keySwitch(level int, c *bigring.Poly, swk *SwitchingKey) (*bigring.Poly, *bigring.Poly) {
	rqp := ev.ctx.RingQP(level)
	rq := ev.ctx.RingQ(level)
	kb, ka := swk.atLevel(ev.ctx, level)
	lift := rqp.NewPoly()
	for i, v := range c.Coeffs {
		lift.Coeffs[i].Set(v)
	}
	rqp.NTT(lift)
	a0 := rqp.NewPoly()
	a1 := rqp.NewPoly()
	rqp.MulCoeffs(lift, kb, a0)
	rqp.MulCoeffs(lift, ka, a1)
	rqp.INTT(a0)
	rqp.INTT(a1)
	p0 := ev.modDownP(level, a0)
	p1 := ev.modDownP(level, a1)
	rq.NTT(p0)
	rq.NTT(p1)
	return p0, p1
}

// modDownP divides a coefficient-domain polynomial mod Q_ℓ·P by P with
// rounding, returning a polynomial mod Q_ℓ.
func (ev *Evaluator) modDownP(level int, x *bigring.Poly) *bigring.Poly {
	rq := ev.ctx.RingQ(level)
	out := rq.NewPoly()
	r := new(big.Int)
	for i, v := range x.Coeffs {
		r.Mod(v, ev.ctx.P)
		t := new(big.Int).Sub(v, r)
		if r.Cmp(ev.ctx.halfP) > 0 {
			t.Add(t, ev.ctx.P)
		}
		t.Quo(t, ev.ctx.P)
		out.Coeffs[i].Mod(t, rq.Q)
	}
	return out
}

// Rotate returns ct with slots rotated left by k. A rotation by a multiple
// of the slot count is the identity and returns a copy.
func (ev *Evaluator) Rotate(ct *Ciphertext, k int) *Ciphertext {
	galEl := ring.GaloisElementForRotation(ev.ctx.Params.LogN, k)
	if galEl == 1 {
		return ct.CopyNew(ev.ctx)
	}
	return ev.automorphism(ct, galEl)
}

// Conjugate returns ct with conjugated slots.
func (ev *Evaluator) Conjugate(ct *Ciphertext) *Ciphertext {
	return ev.automorphism(ct, ring.GaloisElementConjugate(ev.ctx.Params.LogN))
}

// RotateHoisted returns rotations of ct by each k in ks, hoisting the
// expensive lift-and-NTT of c1 modulo Q·P across all rotations; each
// rotation then costs only an NTT-domain permutation, the key product and
// the mod-down. Rotations by a multiple of the slot count are copies.
func (ev *Evaluator) RotateHoisted(ct *Ciphertext, ks []int) map[int]*Ciphertext {
	logN := ev.ctx.Params.LogN
	out := make(map[int]*Ciphertext, len(ks))
	var rest []int
	for _, k := range ks {
		if ring.GaloisElementForRotation(logN, k) == 1 {
			out[k] = ct.CopyNew(ev.ctx)
		} else {
			rest = append(rest, k)
		}
	}
	if len(rest) == 0 {
		return out
	}
	if ev.rtk == nil {
		panic("ckksbig: rotation requires rotation keys")
	}
	level := ct.Level
	rq := ev.ctx.RingQ(level)
	rqp := ev.ctx.RingQP(level)

	// Hoist: lift c1 to mod Q·P and transform once.
	c1 := rq.Copy(ct.C1)
	rq.INTT(c1)
	lift := rqp.NewPoly()
	for i, v := range c1.Coeffs {
		lift.Coeffs[i].Set(v)
	}
	rqp.NTT(lift)

	for _, k := range rest {
		galEl := ring.GaloisElementForRotation(logN, k)
		swk, ok := ev.rtk.Keys[galEl]
		if !ok {
			panic(fmt.Sprintf("ckksbig: missing rotation key for galois element %d", galEl))
		}
		kb, ka := swk.atLevel(ev.ctx, level)
		perm := ring.AutomorphismNTTIndex(logN, galEl)
		pl := rqp.NewPoly()
		rqp.PermuteNTT(lift, perm, pl)
		a0 := rqp.NewPoly()
		a1 := rqp.NewPoly()
		rqp.MulCoeffs(pl, kb, a0)
		rqp.MulCoeffs(pl, ka, a1)
		rqp.INTT(a0)
		rqp.INTT(a1)
		p0 := ev.modDownP(level, a0)
		p1 := ev.modDownP(level, a1)
		rq.NTT(p0)
		rq.NTT(p1)
		rc0 := rq.NewPoly()
		rq.PermuteNTT(ct.C0, perm, rc0)
		rq.Add(rc0, p0, rc0)
		out[k] = &Ciphertext{C0: rc0, C1: p1, Level: level, Scale: ct.Scale}
	}
	return out
}

func (ev *Evaluator) automorphism(ct *Ciphertext, galEl uint64) *Ciphertext {
	if ev.rtk == nil {
		panic("ckksbig: rotation requires rotation keys")
	}
	swk, ok := ev.rtk.Keys[galEl]
	if !ok {
		panic(fmt.Sprintf("ckksbig: missing rotation key for galois element %d", galEl))
	}
	rq := ev.ctx.RingQ(ct.Level)
	c0 := rq.Copy(ct.C0)
	c1 := rq.Copy(ct.C1)
	rq.INTT(c0)
	rq.INTT(c1)
	a0 := rq.NewPoly()
	a1 := rq.NewPoly()
	rq.Automorphism(c0, galEl, a0)
	rq.Automorphism(c1, galEl, a1)
	ks0, ks1 := ev.keySwitch(ct.Level, a1, swk)
	rq.NTT(a0)
	out := &Ciphertext{C0: a0, C1: ks1, Level: ct.Level, Scale: ct.Scale}
	rq.Add(out.C0, ks0, out.C0)
	return out
}
