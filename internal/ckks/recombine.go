package ckks

import (
	"fmt"
	"math"
	"math/big"

	"cnnhe/internal/ring"
)

// PlainRecombine returns Σᵢ weights[i]·termᵢ as one operation, where termᵢ
// is cts[i] ⊙ pts[i] when pts[i] is non-nil (weights[i] must then be 1) and
// cts[i] itself otherwise. pts may be nil altogether: a pure integer
// recombination. All terms must share one level and agree in scale, like
// the operands of Add.
//
// This is the inner sum of a BSGS linear stage: the products go through
// ring.InnerProduct (one lazily reduced accumulator, one Barrett reduction
// per coefficient) straight into the single output ciphertext, the
// remaining terms are added in place, and only weights ≠ 1 pay a scalar
// multiply. The result is bit-identical to the chain it replaces —
// MulPlain per product, MulInt per weight ≠ 1, Add left to right — because
// every step is exact modular arithmetic ending fully reduced.
func (ev *Evaluator) PlainRecombine(cts []*Ciphertext, pts []*Plaintext, weights []int64) *Ciphertext {
	if len(cts) == 0 || len(weights) != len(cts) || (pts != nil && len(pts) != len(cts)) {
		panic("ckks: PlainRecombine needs one weight (and optionally one plaintext) per term")
	}
	r := ev.ctx.R
	level := cts[0].Level
	limbs := r.Limbs(level, false)
	// Product operands, gathered for the two inner products.
	c0s := make([]*ring.Poly, 0, len(cts))
	c1s := make([]*ring.Poly, 0, len(cts))
	vals := make([]*ring.Poly, 0, len(cts))
	scale := 0.0
	for i, ct := range cts {
		if ct.Level != level {
			panic(fmt.Sprintf("ckks: level mismatch %d vs %d (use DropLevel)", level, ct.Level))
		}
		s := ct.Scale
		if pts != nil && pts[i] != nil {
			pt := pts[i]
			if pt.Level != level {
				panic("ckks: MulPlain level mismatch")
			}
			if !pt.IsNTT {
				panic("ckks: MulPlain requires NTT plaintext")
			}
			if weights[i] != 1 {
				panic("ckks: PlainRecombine product term with weight ≠ 1")
			}
			s *= pt.Scale
			c0s, c1s, vals = append(c0s, ct.C0), append(c1s, ct.C1), append(vals, pt.Value)
		}
		if i == 0 {
			scale = s
		} else if !scaleClose(scale, s) {
			panic(fmt.Sprintf("ckks: scale mismatch 2^%.4f vs 2^%.4f", math.Log2(scale), math.Log2(s)))
		}
	}
	// The output's recycled limbs hold stale data: the inner products
	// overwrite them, and a sum without products starts from zero.
	out := &Ciphertext{C0: r.GetPolyQ(level), C1: r.GetPolyQ(level), Level: level, Scale: scale}
	if len(vals) > 0 {
		r.InnerProduct(limbs, c0s, vals, out.C0)
		r.InnerProduct(limbs, c1s, vals, out.C1)
	} else {
		r.Zero(limbs, out.C0)
		r.Zero(limbs, out.C1)
	}
	var tmp *ring.Poly
	for i, ct := range cts {
		if pts != nil && pts[i] != nil {
			continue
		}
		w := weights[i]
		if w == 1 {
			r.Add(limbs, out.C0, ct.C0, out.C0)
			r.Add(limbs, out.C1, ct.C1, out.C1)
			continue
		}
		if tmp == nil {
			tmp = r.GetPoly()
			defer r.PutPoly(tmp)
		}
		abs := new(big.Int).Abs(big.NewInt(w))
		accumulate := r.Add
		if w < 0 {
			accumulate = r.Sub
		}
		r.MulScalar(limbs, ct.C0, abs, tmp)
		accumulate(limbs, out.C0, tmp, out.C0)
		r.MulScalar(limbs, ct.C1, abs, tmp)
		accumulate(limbs, out.C1, tmp, out.C1)
	}
	return out
}
