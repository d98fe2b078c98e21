package ring

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"cnnhe/internal/primes"
)

// InnerProduct suite: the lazy kernel against the eager per-term loop it
// replaces, on a chain with every limb shape that matters — 26- and 40-bit
// production primes (never flush), a 60-bit prime (flush every 256
// products), the 61-bit word ceiling (flush every 64) and one wide limb
// (eager fallback) — at logN 11, so a limb spans several accumulator blocks
// and, when parallel, several slabs. Runs under `make race-ring`.

func innerProductRing(t testing.TB, parallel bool) *Ring {
	t.Helper()
	chain, err := primes.BuildChain(11, []int{26, 40, 60, 61, 80}, 45, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(1<<11, chain.Moduli, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	r.Parallel = parallel
	return r
}

// eagerInnerProduct is the reference: one fully reduced product per term.
func eagerInnerProduct(r *Ring, limbs []int, as, bs []*Poly, perm []int, out *Poly) {
	tmp := r.NewPoly(r.MaxLevel())
	for t := range as {
		a := as[t]
		if perm != nil {
			r.PermuteNTT(limbs, as[t], perm, tmp)
			a = tmp
		}
		if t == 0 {
			r.MulCoeffs(limbs, a, bs[t], out)
		} else {
			r.MulCoeffsThenAdd(limbs, a, bs[t], out)
		}
	}
}

// maxPoly has every coefficient of every limb at q−1: the input that
// reaches the accumulator bound soonest.
func maxPoly(r *Ring) *Poly {
	p := r.NewPoly(r.MaxLevel())
	for _, i := range r.Limbs(r.MaxLevel(), true) {
		sr := r.SubRings[i]
		qm1 := new(big.Int).Sub(sr.Modulus(), big.NewInt(1))
		for j := 0; j < r.NVal; j++ {
			sr.SetCoeffBig(p.Coeffs[i], j, qm1)
		}
	}
	return p
}

func TestInnerProductMatchesEager(t *testing.T) {
	if got := [3]int{lazyTerms(61), lazyTerms(60), lazyTerms(40)}; got != [3]int{64, 256, 1 << 48} {
		t.Fatalf("lazyTerms(61, 60, 40) = %v, want [64 256 2^48]", got)
	}
	// Around both flush boundaries, plus enough terms to flush a 61-bit
	// limb nine times and a 60-bit limb twice.
	termCounts := []int{1, 2, 63, 64, 65, 255, 256, 257, 600}
	for _, parallel := range []bool{false, true} {
		r := innerProductRing(t, parallel)
		limbs := r.Limbs(r.MaxLevel(), true)
		rng := rand.New(rand.NewSource(11))
		random := []*Poly{randPoly(r, rng), randPoly(r, rng), randPoly(r, rng), randPoly(r, rng), randPoly(r, rng)}
		worst := []*Poly{maxPoly(r)}
		perm := AutomorphismNTTIndex(r.LogN, GaloisElementForRotation(r.LogN, 3))
		for _, in := range []struct {
			name string
			pool []*Poly
		}{{"random", random}, {"all-q-1", worst}} {
			for _, terms := range termCounts {
				// Operands cycle through a small pool: aliasing among
				// inputs is allowed, and 600 distinct polys are not needed.
				as := make([]*Poly, terms)
				bs := make([]*Poly, terms)
				for k := range as {
					as[k] = in.pool[k%len(in.pool)]
					bs[k] = in.pool[(k+2)%len(in.pool)]
				}
				for _, p := range [][]int{nil, perm} {
					name := fmt.Sprintf("parallel=%v/%s/terms=%d/permuted=%v", parallel, in.name, terms, p != nil)
					want := r.NewPoly(r.MaxLevel())
					eagerInnerProduct(r, limbs, as, bs, p, want)
					got := randPoly(r, rng) // stale contents must be overwritten
					if p == nil {
						r.InnerProduct(limbs, as, bs, got)
					} else {
						r.InnerProductPermuted(limbs, as, bs, p, got)
					}
					if !r.Equal(limbs, got, want) {
						t.Fatalf("%s: lazy inner product differs from the eager loop", name)
					}
				}
			}
		}
	}
}

// TestInnerProductSubsetOfLimbs: only the requested limbs are written.
func TestInnerProductSubsetOfLimbs(t *testing.T) {
	r := innerProductRing(t, true)
	rng := rand.New(rand.NewSource(5))
	as := []*Poly{randPoly(r, rng), randPoly(r, rng), randPoly(r, rng)}
	bs := []*Poly{randPoly(r, rng), randPoly(r, rng), randPoly(r, rng)}
	all := r.Limbs(r.MaxLevel(), true)
	some := []int{1, 3}
	out := randPoly(r, rng)
	before := r.NewPoly(r.MaxLevel())
	r.Copy(all, out, before)
	want := r.NewPoly(r.MaxLevel())
	eagerInnerProduct(r, all, as, bs, nil, want)
	r.InnerProduct(some, as, bs, out)
	for _, i := range all {
		ref := before
		if i == 1 || i == 3 {
			ref = want
		}
		if !r.Equal([]int{i}, out, ref) {
			t.Fatalf("limb %d: wrong contents after a 2-limb inner product", i)
		}
	}
}

// TestInnerProductAliasingRules: inputs may repeat (checked above); the
// output may not be one of them, and term counts must match.
func TestInnerProductAliasingRules(t *testing.T) {
	r := innerProductRing(t, false)
	rng := rand.New(rand.NewSource(6))
	a, b := randPoly(r, rng), randPoly(r, rng)
	limbs := r.Limbs(r.MaxLevel(), true)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("out aliases as[1]", func() { r.InnerProduct(limbs, []*Poly{b, a}, []*Poly{b, b}, a) })
	mustPanic("out aliases bs[0]", func() { r.InnerProduct(limbs, []*Poly{b}, []*Poly{a}, a) })
	mustPanic("no terms", func() { r.InnerProduct(limbs, nil, nil, a) })
	mustPanic("length mismatch", func() { r.InnerProduct(limbs, []*Poly{a, a}, []*Poly{b}, r.NewPoly(r.MaxLevel())) })
}

// TestAllocsInnerProductSerial pins the hot-path property: the accumulator
// lives on the stack, so a serial inner product allocates nothing per term.
func TestAllocsInnerProductSerial(t *testing.T) {
	r := innerProductRing(t, false)
	rng := rand.New(rand.NewSource(7))
	as := make([]*Poly, 16)
	bs := make([]*Poly, 16)
	for k := range as {
		as[k], bs[k] = randPoly(r, rng), randPoly(r, rng)
	}
	out := r.NewPoly(r.MaxLevel())
	limbs := r.Limbs(r.MaxLevel(), true)
	if n := testing.AllocsPerRun(20, func() { r.InnerProduct(limbs, as, bs, out) }); n > 2 {
		t.Fatalf("InnerProduct allocates %.0f objects per call, want ≤ 2 (the slab closure)", n)
	}
}
