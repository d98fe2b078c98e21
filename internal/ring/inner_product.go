package ring

import "math/bits"

// The lazily-reduced inner product.
//
// Both hot sums of an encrypted inference are inner products of NTT-domain
// polynomials: Σᵢ diagᵢ ⊙ ctᵢ over the baby steps of a BSGS linear stage,
// and Σᵢ digitᵢ ⊙ keyᵢ over the digits of a key switch. Issued term by term
// (MulCoeffsThenAdd) every product pays a full Barrett reduction — five
// 64×64 multiplies per coefficient — and a read-modify-write of the output.
// InnerProduct instead keeps an unreduced 128-bit accumulator per
// coefficient (one multiply, one add, one add-with-carry per term) and
// reduces once at the end. Modular multiply-add is exact, and the final
// value is fully reduced to [0, q), so the result is bit-identical to the
// eager loop.
//
// Overflow invariant: a limb of bit length β has products < 2^(2β), so the
// accumulator holds up to 2^(128−2β) of them before it could wrap — 2^48
// terms at 40 bits, 256 at 60, 64 at the 61-bit word ceiling
// (lazyTerms). On reaching that count the accumulator is flushed: reduced
// to [0, q) in place, which then counts as one product. The final Barrett
// reduction takes the full 128-bit value (high word ≥ q included): its
// quotient estimate is computed mod 2^64, which is exact because the true
// remainder is < 2q < 2^64.

// ipBlock is the number of coefficients accumulated together. Terms are the
// inner loop over a block, so the 2-word accumulator (8 KiB) plus one block
// of each operand (2×4 KiB) stay L1-resident while the operand polynomials
// stream past once.
const ipBlock = 512

// lazyTerms returns how many products of residues mod a β-bit prime a
// 128-bit accumulator can hold: 2^(128−2β), capped to keep the count in an
// int.
func lazyTerms(bitLen int) int {
	s := 128 - 2*bitLen
	if s > 48 {
		s = 48
	}
	return 1 << uint(s)
}

// InnerProduct sets out = Σₜ as[t] ⊙ bs[t] on the given limbs (NTT-domain
// pointwise products; len(as) == len(bs) ≥ 1). Word limbs accumulate lazily
// with one Barrett reduction per coefficient; wide limbs fall back to the
// eager MulCoeffs/MulCoeffsThenAdd loop. out must not alias any as[t] or
// bs[t] (checked): the eager fallback writes out while later terms are
// still unread.
func (r *Ring) InnerProduct(limbs []int, as, bs []*Poly, out *Poly) {
	r.innerProduct(limbs, as, bs, nil, out)
}

// InnerProductPermuted sets out[j] = Σₜ as[t][perm[j]] · bs[t][j] on the
// given limbs: the inner product of the NTT-domain automorphism images of
// as (see AutomorphismNTTIndex) with bs, without materializing the permuted
// polynomials. It is the digit×key sum of a hoisted rotation. Same aliasing
// rule as InnerProduct.
func (r *Ring) InnerProductPermuted(limbs []int, as, bs []*Poly, perm []int, out *Poly) {
	r.innerProduct(limbs, as, bs, perm, out)
}

func (r *Ring) innerProduct(limbs []int, as, bs []*Poly, perm []int, out *Poly) {
	if len(as) == 0 || len(as) != len(bs) {
		panic("ring: InnerProduct needs equally many (≥ 1) terms on both sides")
	}
	for t := range as {
		if as[t] == out || bs[t] == out {
			panic("ring: InnerProduct output aliases an operand")
		}
	}
	r.forLimbSlabs(limbs, func(i, c0, c1 int) {
		switch sr := r.SubRings[i].(type) {
		case *wordRing:
			sr.innerProduct(i, c0, c1, as, bs, perm, out.Coeffs[i])
		default:
			r.innerProductEager(i, c0, c1, as, bs, perm, out.Coeffs[i])
		}
	})
}

// innerProductEager is the per-term fallback for limbs without a lazy
// kernel (the wide backend): one full reduction per product.
func (r *Ring) innerProductEager(i, c0, c1 int, as, bs []*Poly, perm []int, out []uint64) {
	sr := r.SubRings[i]
	w := sr.Width()
	var gathered *[]uint64
	if perm != nil {
		gathered = r.slab()
		defer r.putSlab(gathered)
	}
	operand := func(t int) []uint64 {
		a := as[t].Coeffs[i]
		if perm == nil {
			return a[c0*w : c1*w]
		}
		g := (*gathered)[:(c1-c0)*w]
		for j := c0; j < c1; j++ {
			copy(g[(j-c0)*w:(j-c0+1)*w], a[perm[j]*w:(perm[j]+1)*w])
		}
		return g
	}
	o := out[c0*w : c1*w]
	sr.MulCoeffs(operand(0), bs[0].Coeffs[i][c0*w:c1*w], o)
	for t := 1; t < len(as); t++ {
		sr.MulCoeffsThenAdd(operand(t), bs[t].Coeffs[i][c0*w:c1*w], o)
	}
}

// innerProduct is the lazy kernel for one word limb over coefficients
// [c0, c1). See the file comment for the accumulator invariant. Terms are
// consumed two per pass over the block: that halves the accumulator's
// load/store traffic and keeps four operand streams in flight, worth
// 20–30 % on operands that stream from memory.
func (r *wordRing) innerProduct(limb, c0, c1 int, as, bs []*Poly, perm []int, out []uint64) {
	q := r.mod.Q
	b0, b1 := r.mod.BRC[0], r.mod.BRC[1]
	flush := lazyTerms(r.mod.Bits)
	var acc [2 * ipBlock]uint64
	for s := c0; s < c1; s += ipBlock {
		n := c1 - s
		if n > ipBlock {
			n = ipBlock
		}
		lo := acc[:n:n]
		hi := acc[ipBlock : ipBlock+n : ipBlock+n]
		for j := range lo {
			lo[j], hi[j] = 0, 0
		}
		held := 0 // products (or one flushed residue) in the accumulator
		for t := 0; t < len(as); {
			pair := t+1 < len(as)
			if held+2 > flush {
				for j := range lo {
					lo[j], hi[j] = barrett128(hi[j], lo[j], q, b0, b1), 0
				}
				held = 1
			}
			x, u := as[t].Coeffs[limb], bs[t].Coeffs[limb][s:s+n:s+n]
			switch {
			case pair && perm == nil:
				y, v := as[t+1].Coeffs[limb][s:s+n:s+n], bs[t+1].Coeffs[limb][s:s+n:s+n]
				x = x[s : s+n : s+n]
				for j := range lo {
					h1, l1 := bits.Mul64(x[j], u[j])
					h2, l2 := bits.Mul64(y[j], v[j])
					l, c := bits.Add64(lo[j], l1, 0)
					h := hi[j] + h1 + c
					l, c = bits.Add64(l, l2, 0)
					lo[j], hi[j] = l, h+h2+c
				}
			case pair:
				y, v := as[t+1].Coeffs[limb], bs[t+1].Coeffs[limb][s:s+n:s+n]
				p := perm[s : s+n : s+n]
				for j := range lo {
					h1, l1 := bits.Mul64(x[p[j]], u[j])
					h2, l2 := bits.Mul64(y[p[j]], v[j])
					l, c := bits.Add64(lo[j], l1, 0)
					h := hi[j] + h1 + c
					l, c = bits.Add64(l, l2, 0)
					lo[j], hi[j] = l, h+h2+c
				}
			case perm == nil:
				x = x[s : s+n : s+n]
				for j := range lo {
					h1, l1 := bits.Mul64(x[j], u[j])
					l, c := bits.Add64(lo[j], l1, 0)
					lo[j], hi[j] = l, hi[j]+h1+c
				}
			default:
				p := perm[s : s+n : s+n]
				for j := range lo {
					h1, l1 := bits.Mul64(x[p[j]], u[j])
					l, c := bits.Add64(lo[j], l1, 0)
					lo[j], hi[j] = l, hi[j]+h1+c
				}
			}
			if pair {
				t, held = t+2, held+2
			} else {
				t, held = t+1, held+1
			}
		}
		o := out[s : s+n : s+n]
		for j := range o {
			o[j] = barrett128(hi[j], lo[j], q, b0, b1)
		}
	}
}

// barrett128 reduces the 128-bit value (hi, lo) mod q with the Barrett
// constant ⌊2^128/q⌋ = (b0, b1) — zq.Modulus.reduce128 with the constants
// passed in registers. Any 128-bit input is accepted: the quotient
// estimate is short by at most one, and is only ever used mod 2^64.
func barrett128(hi, lo, q, b0, b1 uint64) uint64 {
	ahi, _ := bits.Mul64(lo, b1)
	bhi, blo := bits.Mul64(lo, b0)
	chi, clo := bits.Mul64(hi, b1)
	mid, c1 := bits.Add64(blo, clo, 0)
	_, c2 := bits.Add64(mid, ahi, 0)
	qhat := hi*b0 + bhi + chi + c1 + c2
	v := lo - qhat*q
	for v >= q {
		v -= q
	}
	return v
}
