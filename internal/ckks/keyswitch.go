package ckks

import (
	"cnnhe/internal/ring"
)

// keySwitchCoeff applies the hybrid key switch to a polynomial given in
// both domains on limbs 0..level — c in coefficient form, cNTT in NTT
// form — and returns NTT-domain polynomials (p0, p1) on limbs 0..level
// only, built from recycled limbs (see modDown), such that
//
//	p0 + p1·s ≈ c·s'
//
// where s' is the key the switching key was generated for (s² for
// relinearization, φ(s) for rotations).
//
// Procedure (d digits live at level, Parameters.Digits; special primes P):
//  1. raise each digit [c]_{Q_g} to all QP limbs by fast basis
//     conversion and transform it (ring.DecomposeNTT: the digit's own
//     limbs are cNTT's, copied);
//  2. take the inner products Σ_g digit_g ⊙ swk.B[g] and ⊙ swk.A[g]
//     over QP, lazily reduced (ring.InnerProduct: one Barrett per
//     coefficient instead of one per digit);
//  3. divide by P (modDown, an exact division that floors) back to Q, in
//     the NTT domain.
//
// With n = level+1 and one special prime that is d(n+1)+n limb NTTs:
// d(n+1)−n for the raise, 2n for modDown.
func (ev *Evaluator) keySwitchCoeff(level int, c, cNTT *ring.Poly, swk *SwitchingKey) (*ring.Poly, *ring.Poly) {
	r := ev.ctx.R
	limbsQP := r.Limbs(level, true)

	digits := ev.decompose(level, c, cNTT)
	acc0, acc1 := r.GetPoly(), r.GetPoly()
	r.InnerProduct(limbsQP, digits, swk.B[:len(digits)], acc0)
	r.InnerProduct(limbsQP, digits, swk.A[:len(digits)], acc1)
	ev.releaseDigits(digits)
	return ev.modDown(level, acc0, acc1)
}

// decompose raises every key-switch digit live at level of the polynomial
// given as c (coefficient domain) and cNTT (NTT domain) to all QP limbs,
// in the NTT domain. The digits are pooled polynomials: hand them back
// with releaseDigits.
func (ev *Evaluator) decompose(level int, c, cNTT *ring.Poly) []*ring.Poly {
	r := ev.ctx.R
	ds := ev.ctx.digits[level]
	digits := make([]*ring.Poly, len(ds))
	for i := range digits {
		digits[i] = r.GetPoly()
	}
	r.DecomposeNTT(r.Limbs(level, true), c, cNTT, ds, digits)
	return digits
}

func (ev *Evaluator) releaseDigits(digits []*ring.Poly) {
	for _, d := range digits {
		ev.ctx.R.PutPoly(d)
	}
}

// modDown divides the NTT-domain key-switch accumulators acc0 and acc1 (on
// limbs 0..level + specials) by the special modulus P, flooring, and
// returns the quotients as NTT-domain polynomials on limbs 0..level, built
// from recycled limbs and fully overwritten.
// It divides by one special prime at a time, the last first, and the
// remaining specials stay targets until their own turn; only the prime
// being divided out leaves the NTT domain. The accumulators are pooled
// scratch and are handed back here.
func (ev *Evaluator) modDown(level int, acc0, acc1 *ring.Poly) (*ring.Poly, *ring.Poly) {
	r := ev.ctx.R
	limbsQ := r.Limbs(level, false)
	accs := []*ring.Poly{acc0, acc1}
	outs := []*ring.Poly{r.GetPolyQ(level), r.GetPolyQ(level)}
	first := len(r.SubRings) - r.Special
	if r.Special == 0 { // nothing to divide out
		r.Copy(limbsQ, acc0, outs[0])
		r.Copy(limbsQ, acc1, outs[1])
	}
	for src := len(r.SubRings) - 1; src >= first; src-- {
		targets, dst := limbsQ, outs
		if src > first {
			targets, dst = r.Limbs(level, true)[:level+1+src-first], accs
		}
		r.INTT([]int{src}, acc0)
		r.INTT([]int{src}, acc1)
		r.DivideExactByLimbNTT(src, targets, accs, accs, dst)
	}
	r.PutPoly(acc0)
	r.PutPoly(acc1)
	return outs[0], outs[1]
}
