package ckks

import (
	"cnnhe/internal/ring"
)

// keySwitchCoeff applies the RNS-decomposition key switch to the
// coefficient-domain polynomial c at the given level: it returns NTT-domain
// polynomials (p0, p1) on limbs 0..level such that
//
//	p0 + p1·s ≈ c·s'
//
// where s' is the key the switching key was generated for (s² for
// relinearization, φ(s) for rotations).
//
// Procedure (one digit per ciphertext limb, special primes P):
//  1. raise digit i = [c]_{q_i} to all QP limbs by modular reduction;
//  2. take the inner products Σ_i NTT(digit_i) ⊙ swk.B[i] and ⊙ swk.A[i]
//     over QP, lazily reduced (ring.InnerProduct: one Barrett per
//     coefficient instead of one per digit);
//  3. divide by P with rounding (ModDown) back to Q.
func (ev *Evaluator) keySwitchCoeff(level int, c *ring.Poly, swk *SwitchingKey) (*ring.Poly, *ring.Poly) {
	r := ev.ctx.R
	limbsQP := r.Limbs(level, true)

	digits := ev.decompose(level, c)
	acc0 := r.NewPoly(level)
	acc1 := r.NewPoly(level)
	r.InnerProduct(limbsQP, digits, swk.B[:level+1], acc0)
	r.InnerProduct(limbsQP, digits, swk.A[:level+1], acc1)
	ev.releaseDigits(digits)

	ev.modDownNTT(level, acc0)
	ev.modDownNTT(level, acc1)
	return acc0, acc1
}

// decompose raises every RNS digit [c]_{q_i}, i ≤ level, of the
// coefficient-domain polynomial c to all QP limbs and transforms it to the
// NTT domain. The digits are pooled polynomials: hand them back with
// releaseDigits.
func (ev *Evaluator) decompose(level int, c *ring.Poly) []*ring.Poly {
	r := ev.ctx.R
	limbsQP := r.Limbs(level, true)
	digits := make([]*ring.Poly, level+1)
	for i := range digits {
		d := r.GetPoly()
		r.ExtendLimb(i, limbsQP, c, d)
		r.NTT(limbsQP, d)
		digits[i] = d
	}
	return digits
}

func (ev *Evaluator) releaseDigits(digits []*ring.Poly) {
	for _, d := range digits {
		ev.ctx.R.PutPoly(d)
	}
}

// modDownNTT takes the NTT-domain key-switch accumulator p on QP limbs to
// its final form: divided by P with rounding, NTT domain, limbs 0..level.
func (ev *Evaluator) modDownNTT(level int, p *ring.Poly) {
	r := ev.ctx.R
	r.INTT(r.Limbs(level, true), p)
	ev.modDown(level, p)
	r.NTT(r.Limbs(level, false), p)
}

// modDown divides the coefficient-domain polynomial p (on limbs
// 0..level + specials) by the full special modulus P with rounding,
// leaving the result on limbs 0..level.
func (ev *Evaluator) modDown(level int, p *ring.Poly) {
	r := ev.ctx.R
	nLimbs := len(r.SubRings)
	special := make([]int, 0, r.Special)
	for i := nLimbs - r.Special; i < nLimbs; i++ {
		special = append(special, i)
	}
	// Divide by one special prime at a time; remaining specials stay live
	// as targets until their own turn.
	for si := len(special) - 1; si >= 0; si-- {
		targets := r.Limbs(level, false)
		targets = append(targets, special[:si]...)
		r.DivideExactByLimb(special[si], targets, p, p)
	}
}
