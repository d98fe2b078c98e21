package ckks

import (
	"fmt"

	"cnnhe/internal/ring"
)

// Rotate returns the ciphertext whose slot vector is ct's rotated left by k
// positions (k may be negative for right rotations). The required rotation
// key must have been generated.
func (ev *Evaluator) Rotate(ct *Ciphertext, k int) *Ciphertext {
	if k == 0 {
		return ct.CopyNew(ev.ctx)
	}
	galEl := ring.GaloisElementForRotation(ev.ctx.Params.LogN, k)
	return ev.automorphism(ct, galEl)
}

// Conjugate returns the ciphertext whose slots are complex-conjugated.
func (ev *Evaluator) Conjugate(ct *Ciphertext) *Ciphertext {
	galEl := ring.GaloisElementConjugate(ev.ctx.Params.LogN)
	return ev.automorphism(ct, galEl)
}

func (ev *Evaluator) automorphism(ct *Ciphertext, galEl uint64) *Ciphertext {
	if ev.rtk == nil {
		panic("ckks: rotation requires rotation keys")
	}
	swk, ok := ev.rtk.Keys[galEl]
	if !ok {
		panic(fmt.Sprintf("ckks: missing rotation key for galois element %d", galEl))
	}
	r := ev.ctx.R
	level := ct.Level
	limbs := r.Limbs(level, false)

	// Move to the coefficient domain and apply the automorphism.
	c0 := r.GetPoly()
	c1 := r.GetPoly()
	r.Copy(limbs, ct.C0, c0)
	r.Copy(limbs, ct.C1, c1)
	r.INTT(limbs, c0)
	r.INTT(limbs, c1)
	a0 := r.NewPolyQ(level)
	a1 := r.GetPoly()
	r.Automorphism(limbs, c0, galEl, a0)
	r.Automorphism(limbs, c1, galEl, a1)
	r.PutPoly(c0)
	r.PutPoly(c1)

	// (φ(c0), φ(c1)) decrypts under φ(s); switch φ(c1)·φ(s) back to s.
	ks0, ks1 := ev.keySwitchCoeff(level, a1, swk)
	r.PutPoly(a1)
	r.NTT(limbs, a0)
	out := &Ciphertext{C0: a0, C1: ks1, Level: level, Scale: ct.Scale}
	r.Add(limbs, out.C0, ks0, out.C0)
	return out
}

// RotateHoisted returns rotations of ct by each k in ks using hoisting:
// the RNS digit decomposition of c1 — the dominant cost of a rotation —
// is computed once and reused for every rotation, with the Galois
// automorphism applied as an NTT-domain permutation of the precomputed
// digits. All rotation keys must be available.
func (ev *Evaluator) RotateHoisted(ct *Ciphertext, ks []int) map[int]*Ciphertext {
	out := make(map[int]*Ciphertext, len(ks))
	var rest []int
	for _, k := range ks {
		if k == 0 {
			out[0] = ct.CopyNew(ev.ctx)
		} else {
			rest = append(rest, k)
		}
	}
	if len(rest) == 0 {
		return out
	}
	if ev.rtk == nil {
		panic("ckks: rotation requires rotation keys")
	}
	r := ev.ctx.R
	level := ct.Level
	limbsQ := r.Limbs(level, false)
	limbsQP := r.Limbs(level, true)
	logN := ev.ctx.Params.LogN

	// Hoist: decompose c1 once.
	c1 := r.GetPoly()
	r.Copy(limbsQ, ct.C1, c1)
	r.INTT(limbsQ, c1)
	digits := ev.decompose(level, c1)
	r.PutPoly(c1)

	for _, k := range rest {
		galEl := ring.GaloisElementForRotation(logN, k)
		swk, ok := ev.rtk.Keys[galEl]
		if !ok {
			panic(fmt.Sprintf("ckks: missing rotation key for galois element %d", galEl))
		}
		// φ acts on the NTT-domain digits as an index permutation, which
		// the inner product gathers through instead of materializing
		// φ(digit_i) per digit.
		perm := ring.AutomorphismNTTIndex(logN, galEl)
		acc0 := r.NewPoly(level)
		acc1 := r.NewPoly(level)
		r.InnerProductPermuted(limbsQP, digits, swk.B[:level+1], perm, acc0)
		r.InnerProductPermuted(limbsQP, digits, swk.A[:level+1], perm, acc1)
		ev.modDownNTT(level, acc0)
		ev.modDownNTT(level, acc1)
		// φ(c0) is a direct NTT-domain permutation of c0.
		rc0 := r.NewPolyQ(level)
		r.PermuteNTT(limbsQ, ct.C0, perm, rc0)
		r.Add(limbsQ, rc0, acc0, rc0)
		out[k] = &Ciphertext{C0: rc0, C1: acc1, Level: level, Scale: ct.Scale}
	}
	ev.releaseDigits(digits)
	return out
}
