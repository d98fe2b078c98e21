package ckks

import (
	"fmt"

	"cnnhe/internal/ring"
)

// Rotate returns the ciphertext whose slot vector is ct's rotated left by k
// positions (k may be negative for right rotations). The required rotation
// key must have been generated. A rotation by a multiple of the slot count
// is the identity and returns a copy.
func (ev *Evaluator) Rotate(ct *Ciphertext, k int) *Ciphertext {
	galEl := ring.GaloisElementForRotation(ev.ctx.Params.LogN, k)
	if galEl == 1 {
		return ct.CopyNew(ev.ctx)
	}
	return ev.automorphism(ct, galEl)
}

// Conjugate returns the ciphertext whose slots are complex-conjugated.
func (ev *Evaluator) Conjugate(ct *Ciphertext) *Ciphertext {
	galEl := ring.GaloisElementConjugate(ev.ctx.Params.LogN)
	return ev.automorphism(ct, galEl)
}

func (ev *Evaluator) rotationKey(galEl uint64) *SwitchingKey {
	if ev.rtk == nil {
		panic("ckks: rotation requires rotation keys")
	}
	swk, ok := ev.rtk.Keys[galEl]
	if !ok {
		panic(fmt.Sprintf("ckks: missing rotation key for galois element %d", galEl))
	}
	return swk
}

func (ev *Evaluator) automorphism(ct *Ciphertext, galEl uint64) *Ciphertext {
	swk := ev.rotationKey(galEl)
	r := ev.ctx.R
	level := ct.Level
	limbs := r.Limbs(level, false)

	// φ acts on the NTT domain as an index permutation. Only φ(c1) also
	// needs its coefficient form, for the digit raise.
	perm := ring.AutomorphismNTTIndex(ev.ctx.Params.LogN, galEl)
	a0, a1, a1Coeff := r.GetPoly(), r.GetPoly(), r.GetPoly()
	r.PermuteNTT(limbs, ct.C0, perm, a0)
	r.PermuteNTT(limbs, ct.C1, perm, a1)
	r.Copy(limbs, a1, a1Coeff)
	r.INTT(limbs, a1Coeff)

	// (φ(c0), φ(c1)) decrypts under φ(s); switch φ(c1)·φ(s) back to s.
	ks0, ks1 := ev.keySwitchCoeff(level, a1Coeff, a1, swk)
	r.Add(limbs, ks0, a0, ks0)
	for _, p := range []*ring.Poly{a0, a1, a1Coeff} {
		r.PutPoly(p)
	}
	return &Ciphertext{C0: ks0, C1: ks1, Level: level, Scale: ct.Scale}
}

// RotateHoisted returns rotations of ct by each k in ks using hoisting:
// the RNS digit decomposition of c1 — the dominant cost of a rotation —
// is computed once and reused for every rotation, with the Galois
// automorphism applied as an NTT-domain permutation of the precomputed
// digits. All rotation keys must be available; rotations by a multiple of
// the slot count are copies and need none.
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
	r := ev.ctx.R
	level := ct.Level
	limbsQ := r.Limbs(level, false)
	limbsQP := r.Limbs(level, true)

	// Hoist: decompose c1 once.
	c1 := r.GetPoly()
	r.Copy(limbsQ, ct.C1, c1)
	r.INTT(limbsQ, c1)
	digits := ev.decompose(level, c1, ct.C1)
	r.PutPoly(c1)

	rc0 := r.GetPoly()
	for _, k := range rest {
		galEl := ring.GaloisElementForRotation(logN, k)
		swk := ev.rotationKey(galEl)
		// φ acts on the NTT-domain digits as an index permutation, which
		// the inner product gathers through instead of materializing
		// φ(digit_i) per digit.
		perm := ring.AutomorphismNTTIndex(logN, galEl)
		acc0, acc1 := r.GetPoly(), r.GetPoly()
		r.InnerProductPermuted(limbsQP, digits, swk.B[:level+1], perm, acc0)
		r.InnerProductPermuted(limbsQP, digits, swk.A[:level+1], perm, acc1)
		p0, p1 := ev.modDown(level, acc0, acc1)
		// φ(c0) is a direct NTT-domain permutation of c0.
		r.PermuteNTT(limbsQ, ct.C0, perm, rc0)
		r.Add(limbsQ, p0, rc0, p0)
		out[k] = &Ciphertext{C0: p0, C1: p1, Level: level, Scale: ct.Scale}
	}
	r.PutPoly(rc0)
	ev.releaseDigits(digits)
	return out
}
