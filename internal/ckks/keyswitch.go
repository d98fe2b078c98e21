package ckks

import (
	"cnnhe/internal/ring"
)

// keySwitchCoeff applies the RNS-decomposition key switch to a polynomial
// given in both domains on limbs 0..level — c in coefficient form, cNTT in
// NTT form — and returns fresh NTT-domain polynomials (p0, p1) on limbs
// 0..level only, such that
//
//	p0 + p1·s ≈ c·s'
//
// where s' is the key the switching key was generated for (s² for
// relinearization, φ(s) for rotations).
//
// Procedure (one digit per ciphertext limb, special primes P):
//  1. raise digit i = [c]_{q_i} to all QP limbs and transform it
//     (ring.DecomposeNTT: digit i's own limb is cNTT's, copied);
//  2. take the inner products Σ_i digit_i ⊙ swk.B[i] and ⊙ swk.A[i]
//     over QP, lazily reduced (ring.InnerProduct: one Barrett per
//     coefficient instead of one per digit);
//  3. divide by P with rounding (modDown) back to Q, in the NTT domain.
func (ev *Evaluator) keySwitchCoeff(level int, c, cNTT *ring.Poly, swk *SwitchingKey) (*ring.Poly, *ring.Poly) {
	r := ev.ctx.R
	limbsQP := r.Limbs(level, true)

	digits := ev.decompose(level, c, cNTT)
	acc0, acc1 := r.GetPoly(), r.GetPoly()
	r.InnerProduct(limbsQP, digits, swk.B[:level+1], acc0)
	r.InnerProduct(limbsQP, digits, swk.A[:level+1], acc1)
	ev.releaseDigits(digits)
	return ev.modDown(level, acc0, acc1)
}

// decompose raises every RNS digit [c]_{q_i}, i ≤ level, of the polynomial
// given as c (coefficient domain) and cNTT (NTT domain) to all QP limbs,
// in the NTT domain. The digits are pooled polynomials: hand them back
// with releaseDigits.
func (ev *Evaluator) decompose(level int, c, cNTT *ring.Poly) []*ring.Poly {
	r := ev.ctx.R
	digits := make([]*ring.Poly, level+1)
	for i := range digits {
		digits[i] = r.GetPoly()
	}
	r.DecomposeNTT(r.Limbs(level, true), c, cNTT, digits)
	return digits
}

func (ev *Evaluator) releaseDigits(digits []*ring.Poly) {
	for _, d := range digits {
		ev.ctx.R.PutPoly(d)
	}
}

// modDown divides the NTT-domain key-switch accumulators acc0 and acc1 (on
// limbs 0..level + specials) by the special modulus P with rounding and
// returns the quotients as fresh NTT-domain polynomials on limbs 0..level.
// It divides by one special prime at a time, the last first, and the
// remaining specials stay targets until their own turn; only the prime
// being divided out leaves the NTT domain. The accumulators are pooled
// scratch and are handed back here.
func (ev *Evaluator) modDown(level int, acc0, acc1 *ring.Poly) (*ring.Poly, *ring.Poly) {
	r := ev.ctx.R
	limbsQ := r.Limbs(level, false)
	accs := []*ring.Poly{acc0, acc1}
	outs := []*ring.Poly{r.NewPolyQ(level), r.NewPolyQ(level)}
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
