package ring

import (
	"fmt"
	"math/big"
	"math/rand"
	"sync"
)

// Ring is the RNS ring R_q with q = ∏ q_i. Limbs 0..L are ciphertext
// primes; the trailing Special limbs are key-switching primes.
type Ring struct {
	NVal     int
	LogN     int
	SubRings []SubRing
	Special  int // number of trailing special limbs

	// Parallel enables the limb worker pool for limb-wise loops. Rings
	// inherit the process default (on when GOMAXPROCS > 1, overridable via
	// SetParallelDefault) at construction.
	Parallel bool

	// invQ[src][dst] = q_src^{-1} mod q_dst for src ≠ dst, used by the
	// exact RNS division in Rescale and ModDown.
	invQ [][]*big.Int

	// maxWidth is the widest limb's words-per-coefficient, sizing pooled
	// scratch slabs.
	maxWidth int

	// scratch recycles full-size coefficient slabs ([]uint64 of
	// N·maxWidth words) for DivideExactByLimb and friends.
	scratch sync.Pool

	// polyPool recycles max-shape polynomials (every limb allocated) for
	// hot-path scratch in the evaluator and key-switch.
	polyPool sync.Pool
}

// NewRing builds an RNS ring of degree n over the given prime moduli
// (ciphertext primes followed by `special` key-switching primes). The
// primitive-root searches are seeded from seed, making ring construction
// deterministic.
func NewRing(n int, moduli []*big.Int, special int, seed int64) (*Ring, error) {
	if len(moduli) == 0 {
		return nil, fmt.Errorf("ring: no moduli")
	}
	if special < 0 || special >= len(moduli) {
		return nil, fmt.Errorf("ring: invalid special count %d of %d moduli", special, len(moduli))
	}
	rng := rand.New(rand.NewSource(seed))
	r := &Ring{NVal: n, LogN: log2(n), Special: special, Parallel: ParallelDefault()}
	for _, q := range moduli {
		sr := NewSubRing(n, q, rng)
		r.SubRings = append(r.SubRings, sr)
		if w := sr.Width(); w > r.maxWidth {
			r.maxWidth = w
		}
	}
	r.scratch.New = func() any {
		s := make([]uint64, n*r.maxWidth)
		return &s
	}
	k := len(moduli)
	r.invQ = make([][]*big.Int, k)
	for s := 0; s < k; s++ {
		r.invQ[s] = make([]*big.Int, k)
		for d := 0; d < k; d++ {
			if s == d {
				continue
			}
			inv := new(big.Int).ModInverse(moduli[s], moduli[d])
			if inv == nil {
				return nil, fmt.Errorf("ring: moduli %d and %d are not co-prime", s, d)
			}
			r.invQ[s][d] = inv
		}
	}
	return r, nil
}

// N returns the ring degree.
func (r *Ring) N() int { return r.NVal }

// MaxLevel returns the highest ciphertext level (limb count − special − 1).
func (r *Ring) MaxLevel() int { return len(r.SubRings) - r.Special - 1 }

// Q returns the product of ciphertext primes up to the given level.
func (r *Ring) Q(level int) *big.Int {
	q := big.NewInt(1)
	for i := 0; i <= level; i++ {
		q.Mul(q, r.SubRings[i].Modulus())
	}
	return q
}

// P returns the product of the special primes (1 when none).
func (r *Ring) P() *big.Int {
	p := big.NewInt(1)
	for i := len(r.SubRings) - r.Special; i < len(r.SubRings); i++ {
		p.Mul(p, r.SubRings[i].Modulus())
	}
	return p
}

// Poly is an RNS polynomial: one coefficient vector per limb. Unused limbs
// (above the owner's level) may be nil.
type Poly struct {
	Coeffs [][]uint64
}

// NewPoly allocates a polynomial with limbs 0..level plus all special limbs.
func (r *Ring) NewPoly(level int) *Poly {
	p := &Poly{Coeffs: make([][]uint64, len(r.SubRings))}
	for _, i := range r.Limbs(level, true) {
		p.Coeffs[i] = make([]uint64, r.NVal*r.SubRings[i].Width())
	}
	return p
}

// NewPolyQ allocates a polynomial with ciphertext limbs only (no special).
func (r *Ring) NewPolyQ(level int) *Poly {
	p := &Poly{Coeffs: make([][]uint64, len(r.SubRings))}
	for i := 0; i <= level; i++ {
		p.Coeffs[i] = make([]uint64, r.NVal*r.SubRings[i].Width())
	}
	return p
}

// Limbs returns the limb indices for the given level, optionally including
// the special limbs.
func (r *Ring) Limbs(level int, special bool) []int {
	n := level + 1
	if special {
		n += r.Special
	}
	out := make([]int, 0, n)
	for i := 0; i <= level; i++ {
		out = append(out, i)
	}
	if special {
		for i := len(r.SubRings) - r.Special; i < len(r.SubRings); i++ {
			out = append(out, i)
		}
	}
	return out
}

// forLimbs runs f(limb) for every limb index, across the shared worker
// pool when the ring is parallel.
func (r *Ring) forLimbs(limbs []int, f func(i int)) {
	if !r.Parallel || len(limbs) == 1 {
		for _, i := range limbs {
			f(i)
		}
		return
	}
	pool().Run(len(limbs), func(k int) { f(limbs[k]) })
}

// forTasks runs f(0..n-1), across the shared worker pool when the ring is
// parallel — for kernels whose tasks are not one per limb.
func (r *Ring) forTasks(n int, f func(t int)) {
	if !r.Parallel || n == 1 {
		for t := 0; t < n; t++ {
			f(t)
		}
		return
	}
	pool().Run(n, f)
}

// forLimbSlabs runs f(limb, c0, c1) over coefficient sub-ranges [c0, c1) of
// every limb, splitting each limb into cache-sized slabs when parallel so a
// single large limb (logN ≥ 13) also spreads across workers. f must be
// element-wise: task (i, c0, c1) may only read/write coefficients c0..c1 of
// limb i. Serial fallback invokes f once per limb with the full range.
func (r *Ring) forLimbSlabs(limbs []int, f func(i, c0, c1 int)) {
	if !r.Parallel {
		for _, i := range limbs {
			f(i, 0, r.NVal)
		}
		return
	}
	// Uniform chunk count per limb keeps task→(limb, range) mapping
	// allocation-free: every limb has N coefficients regardless of width.
	chunks := (r.NVal*r.maxWidth + minSlabWords - 1) / minSlabWords
	if w := poolWorkers(); chunks > w {
		chunks = w
	}
	if chunks < 1 {
		chunks = 1
	}
	if chunks == 1 && len(limbs) == 1 {
		f(limbs[0], 0, r.NVal)
		return
	}
	per := (r.NVal + chunks - 1) / chunks
	pool().Run(len(limbs)*chunks, func(t int) {
		i := limbs[t/chunks]
		c0 := (t % chunks) * per
		c1 := c0 + per
		if c1 > r.NVal {
			c1 = r.NVal
		}
		if c0 < c1 {
			f(i, c0, c1)
		}
	})
}

// slab checks out a pooled full-size coefficient slab (N·maxWidth words).
// Contents are unspecified; return it with putSlab.
func (r *Ring) slab() *[]uint64 { return r.scratch.Get().(*[]uint64) }

func (r *Ring) putSlab(s *[]uint64) { r.scratch.Put(s) }

// GetPoly checks out a pooled polynomial with every limb allocated
// (ciphertext and special). Contents are UNSPECIFIED — callers that
// accumulate into it must Zero the limbs they use first. Return it with
// PutPoly when provably dead; never pool a poly that escaped as a result.
func (r *Ring) GetPoly() *Poly {
	if p, ok := r.polyPool.Get().(*Poly); ok {
		return p
	}
	return r.NewPoly(r.MaxLevel())
}

// PutPoly returns a GetPoly-shaped polynomial to the pool. Polys with
// missing limbs (NewPolyQ or lower-level NewPoly shapes) are dropped rather
// than poisoning the pool.
func (r *Ring) PutPoly(p *Poly) {
	if p == nil {
		return
	}
	for i := range p.Coeffs {
		if p.Coeffs[i] == nil {
			return
		}
	}
	r.polyPool.Put(p)
}

// NTT transforms the given limbs of p in place.
func (r *Ring) NTT(limbs []int, p *Poly) {
	r.forLimbs(limbs, func(i int) { r.SubRings[i].NTT(p.Coeffs[i]) })
}

// INTT inverse-transforms the given limbs of p in place.
func (r *Ring) INTT(limbs []int, p *Poly) {
	r.forLimbs(limbs, func(i int) { r.SubRings[i].INTT(p.Coeffs[i]) })
}

// Add sets out = a + b on the given limbs.
func (r *Ring) Add(limbs []int, a, b, out *Poly) {
	r.forLimbSlabs(limbs, func(i, c0, c1 int) {
		sr := r.SubRings[i]
		w := sr.Width()
		sr.Add(a.Coeffs[i][c0*w:c1*w], b.Coeffs[i][c0*w:c1*w], out.Coeffs[i][c0*w:c1*w])
	})
}

// Sub sets out = a - b on the given limbs.
func (r *Ring) Sub(limbs []int, a, b, out *Poly) {
	r.forLimbSlabs(limbs, func(i, c0, c1 int) {
		sr := r.SubRings[i]
		w := sr.Width()
		sr.Sub(a.Coeffs[i][c0*w:c1*w], b.Coeffs[i][c0*w:c1*w], out.Coeffs[i][c0*w:c1*w])
	})
}

// Neg sets out = -a on the given limbs.
func (r *Ring) Neg(limbs []int, a, out *Poly) {
	r.forLimbSlabs(limbs, func(i, c0, c1 int) {
		sr := r.SubRings[i]
		w := sr.Width()
		sr.Neg(a.Coeffs[i][c0*w:c1*w], out.Coeffs[i][c0*w:c1*w])
	})
}

// MulCoeffs sets out = a ⊙ b on the given limbs (NTT-domain product).
func (r *Ring) MulCoeffs(limbs []int, a, b, out *Poly) {
	r.forLimbSlabs(limbs, func(i, c0, c1 int) {
		sr := r.SubRings[i]
		w := sr.Width()
		sr.MulCoeffs(a.Coeffs[i][c0*w:c1*w], b.Coeffs[i][c0*w:c1*w], out.Coeffs[i][c0*w:c1*w])
	})
}

// MulCoeffsThenAdd sets out += a ⊙ b on the given limbs.
func (r *Ring) MulCoeffsThenAdd(limbs []int, a, b, out *Poly) {
	r.forLimbSlabs(limbs, func(i, c0, c1 int) {
		sr := r.SubRings[i]
		w := sr.Width()
		sr.MulCoeffsThenAdd(a.Coeffs[i][c0*w:c1*w], b.Coeffs[i][c0*w:c1*w], out.Coeffs[i][c0*w:c1*w])
	})
}

// MulScalar sets out = a · s on the given limbs.
func (r *Ring) MulScalar(limbs []int, a *Poly, s *big.Int, out *Poly) {
	r.forLimbSlabs(limbs, func(i, c0, c1 int) {
		sr := r.SubRings[i]
		w := sr.Width()
		sr.MulScalar(a.Coeffs[i][c0*w:c1*w], s, out.Coeffs[i][c0*w:c1*w])
	})
}

// Automorphism applies X → X^galEl on the given limbs (coefficient domain).
func (r *Ring) Automorphism(limbs []int, a *Poly, galEl uint64, out *Poly) {
	r.forLimbs(limbs, func(i int) { r.SubRings[i].Automorphism(a.Coeffs[i], galEl, out.Coeffs[i]) })
}

// Copy copies the given limbs of src into dst.
func (r *Ring) Copy(limbs []int, src, dst *Poly) {
	for _, i := range limbs {
		copy(dst.Coeffs[i], src.Coeffs[i])
	}
}

// Zero clears the given limbs of p.
func (r *Ring) Zero(limbs []int, p *Poly) {
	for _, i := range limbs {
		for j := range p.Coeffs[i] {
			p.Coeffs[i][j] = 0
		}
	}
}

// Equal reports whether a and b agree on the given limbs.
func (r *Ring) Equal(limbs []int, a, b *Poly) bool {
	for _, i := range limbs {
		ac, bc := a.Coeffs[i], b.Coeffs[i]
		for j := range ac {
			if ac[j] != bc[j] {
				return false
			}
		}
	}
	return true
}

// DivideExactByLimb performs the exact RNS division of p (given on limbs
// `limbs` plus the source limb src) by q_src, writing the rounded quotient
// to out on `limbs`: out_i = (p_i − p_src) · q_src^{-1} mod q_i. This is
// the core of both Rescale (src = top ciphertext limb) and ModDown
// (src = special limb). p and out may alias.
func (r *Ring) DivideExactByLimb(src int, limbs []int, p, out *Poly) {
	qsrc := r.SubRings[src]
	sw := qsrc.Width()
	srcCoeffs := p.Coeffs[src]
	r.forLimbSlabs(limbs, func(i, c0, c1 int) {
		if i == src {
			return
		}
		sr := r.SubRings[i]
		w := sr.Width()
		buf := r.slab()
		tmp := (*buf)[:(c1-c0)*w]
		sr.ReduceFrom(qsrc, srcCoeffs[c0*sw:c1*sw], tmp)
		sr.Sub(p.Coeffs[i][c0*w:c1*w], tmp, tmp)
		sr.MulScalar(tmp, r.invQ[src][i], out.Coeffs[i][c0*w:c1*w])
		r.putSlab(buf)
	})
}

// DivideExactByLimbNTT is DivideExactByLimb for NTT-domain polynomials.
// For every k it sets, on `limbs`,
//
//	outs[k]_i = (ps[k]_i − NTT_i([srcs[k]_src] mod q_i)) · q_src^{-1} mod q_i,
//
// where ps[k] and outs[k] are in the NTT domain and limb src of srcs[k]
// holds the same polynomial's limb src in the coefficient domain (srcs[k]
// may be ps[k] itself, its limb src inverse-transformed in place, or a
// scratch polynomial). NTT is linear mod q_i and every step ends fully
// reduced, so the result equals INTT → DivideExactByLimb → NTT bit for bit
// while transforming one limb per target instead of every limb twice.
// All len(ps)·len(limbs) tasks run as one pool job. ps[k] and outs[k] may
// alias; limb src is never written.
func (r *Ring) DivideExactByLimbNTT(src int, limbs []int, srcs, ps, outs []*Poly) {
	qsrc := r.SubRings[src]
	r.forTasks(len(ps)*len(limbs), func(t int) {
		k, i := t/len(limbs), limbs[t%len(limbs)]
		if i == src {
			return
		}
		sr := r.SubRings[i]
		buf := r.slab()
		tmp := (*buf)[:r.NVal*sr.Width()]
		sr.ReduceFrom(qsrc, srcs[k].Coeffs[src], tmp)
		sr.NTT(tmp)
		sr.Sub(ps[k].Coeffs[i], tmp, tmp)
		sr.MulScalar(tmp, r.invQ[src][i], outs[k].Coeffs[i])
		r.putSlab(buf)
	})
}

// ExtendLimb lifts the src-limb coefficients of p onto the given target
// limbs of out by plain modular reduction (the digit-raise step of RNS
// key-switch decomposition).
func (r *Ring) ExtendLimb(src int, limbs []int, p, out *Poly) {
	qsrc := r.SubRings[src]
	sw := qsrc.Width()
	srcCoeffs := p.Coeffs[src]
	r.forLimbSlabs(limbs, func(i, c0, c1 int) {
		sr := r.SubRings[i]
		w := sr.Width()
		sr.ReduceFrom(qsrc, srcCoeffs[c0*sw:c1*sw], out.Coeffs[i][c0*w:c1*w])
	})
}

// DecomposeNTT is the digit raise of the RNS key switch: for every digit
// i < len(digits) and every target limb j it sets
//
//	digits[i]_j = NTT_j([c_i] mod q_j)   (j ≠ i),   digits[i]_i = cNTT_i,
//
// where c and cNTT are one polynomial on limbs 0..len(digits)−1 in the
// coefficient and the NTT domain. On digit i's own limb [c_i] mod q_i is
// c_i itself, so its transform is copied from cNTT instead of recomputed —
// bit-identical to ExtendLimb followed by NTT on every limb. Every
// (digit, limb) pair is one task of a single pool job.
func (r *Ring) DecomposeNTT(limbs []int, c, cNTT *Poly, digits []*Poly) {
	r.forTasks(len(digits)*len(limbs), func(t int) {
		i, j := t/len(limbs), limbs[t%len(limbs)]
		d := digits[i].Coeffs[j]
		if j == i {
			copy(d, cNTT.Coeffs[i])
			return
		}
		sr := r.SubRings[j]
		sr.ReduceFrom(r.SubRings[i], c.Coeffs[i], d)
		sr.NTT(d)
	})
}

// SetCoeffsInt64 writes the centered integer coefficients vec into the given
// limbs of p (coefficient domain).
func (r *Ring) SetCoeffsInt64(limbs []int, vec []int64, p *Poly) {
	r.forLimbs(limbs, func(i int) {
		r.SubRings[i].SetCoeffsInt64(p.Coeffs[i], vec)
	})
}

// SetCoeffsBig writes (possibly negative) big.Int coefficients into the
// given limbs of p.
func (r *Ring) SetCoeffsBig(limbs []int, vec []*big.Int, p *Poly) {
	for _, i := range limbs {
		sr := r.SubRings[i]
		mod := sr.Modulus()
		t := new(big.Int)
		for j, v := range vec {
			t.Mod(v, mod)
			sr.SetCoeffBig(p.Coeffs[i], j, t)
		}
	}
}

// CoeffsBigCentered reconstructs the centered big.Int coefficients of p
// from limbs 0..level by CRT: the result lies in (−Q/2, Q/2].
func (r *Ring) CoeffsBigCentered(level int, p *Poly) []*big.Int {
	k := level + 1
	Q := r.Q(level)
	half := new(big.Int).Rsh(Q, 1)
	// Garner-style: x = Σ_i [x_i · (Q/q_i)^{-1}]_{q_i} · (Q/q_i) mod Q.
	type crtTerm struct {
		hat    *big.Int // Q/q_i
		hatInv *big.Int // (Q/q_i)^{-1} mod q_i
		mod    *big.Int
	}
	terms := make([]crtTerm, k)
	for i := 0; i < k; i++ {
		mod := r.SubRings[i].Modulus()
		hat := new(big.Int).Quo(Q, mod)
		hatInv := new(big.Int).ModInverse(hat, mod)
		terms[i] = crtTerm{hat: hat, hatInv: hatInv, mod: mod}
	}
	out := make([]*big.Int, r.NVal)
	c := new(big.Int)
	t := new(big.Int)
	for j := 0; j < r.NVal; j++ {
		acc := new(big.Int)
		for i := 0; i < k; i++ {
			r.SubRings[i].CoeffBig(p.Coeffs[i], j, c)
			t.Mul(c, terms[i].hatInv)
			t.Mod(t, terms[i].mod)
			t.Mul(t, terms[i].hat)
			acc.Add(acc, t)
		}
		acc.Mod(acc, Q)
		if acc.Cmp(half) > 0 {
			acc.Sub(acc, Q)
		}
		out[j] = acc
	}
	return out
}
