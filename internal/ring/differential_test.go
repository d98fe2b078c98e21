package ring

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"cnnhe/internal/primes"
)

// Differential suite: every limb backend (word and wide) is pitted against
// a big.Int reference on random polynomials, across chains shaped like the
// paper's parameter sets — the production chain's 40/26/…/26/40 word limbs
// with a 60-bit special, and the Table IV/VI ablation chains that split the
// same modulus into wide 62–122-bit limbs. The optimized kernels
// (hand-inlined Barrett/Shoup loops, lazy NTT butterflies, cached scalar
// constants) must agree bit-for-bit with plain modular arithmetic.

// diffChains returns the (name, bitSizes, specialBits, specialCount)
// configurations the differential suite sweeps.
func diffChains() []struct {
	name        string
	bits        []int
	specialBits int
	special     int
} {
	return []struct {
		name        string
		bits        []int
		specialBits int
		special     int
	}{
		{"paper-word-40-26x4-40", []int{40, 26, 26, 26, 26, 40}, 60, 1},
		{"word-30-45-61", []int{30, 45, 61}, 45, 1},
		{"wide-80-90", []int{80, 90}, 0, 0},
		{"wide-122", []int{122, 110}, 0, 0},
		{"mixed-40-80", []int{40, 80, 26}, 45, 1},
	}
}

// refMod computes v mod q as a canonical non-negative big.Int.
func refMod(v, q *big.Int) *big.Int { return new(big.Int).Mod(v, q) }

// coeffBig reads coefficient j of limb i as a big.Int.
func coeffBig(r *Ring, p *Poly, i, j int) *big.Int {
	out := new(big.Int)
	r.SubRings[i].CoeffBig(p.Coeffs[i], j, out)
	return out
}

// randPoly fills every limb (ciphertext + special) with uniform residues.
func randPoly(r *Ring, rng *rand.Rand) *Poly {
	p := r.NewPoly(r.MaxLevel())
	for _, i := range r.Limbs(r.MaxLevel(), true) {
		r.SubRings[i].SampleUniform(rng, p.Coeffs[i])
	}
	return p
}

func TestDifferentialPointwiseOpsVsBig(t *testing.T) {
	for _, cfg := range diffChains() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			chain, err := primes.BuildChain(5, cfg.bits, cfg.specialBits, cfg.special)
			if err != nil {
				t.Fatal(err)
			}
			r, err := NewRing(32, chain.Moduli, cfg.special, 1)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			limbs := r.Limbs(r.MaxLevel(), true)
			a := randPoly(r, rng)
			b := randPoly(r, rng)

			type op struct {
				name string
				run  func(out *Poly)
				ref  func(av, bv, ov, q *big.Int) *big.Int // expected out given inputs a, b and prior out
			}
			scalar, _ := new(big.Int).SetString("123456789123456789123456789", 10)
			ops := []op{
				{"Add", func(out *Poly) { r.Add(limbs, a, b, out) },
					func(av, bv, _, q *big.Int) *big.Int { return refMod(new(big.Int).Add(av, bv), q) }},
				{"Sub", func(out *Poly) { r.Sub(limbs, a, b, out) },
					func(av, bv, _, q *big.Int) *big.Int { return refMod(new(big.Int).Sub(av, bv), q) }},
				{"Neg", func(out *Poly) { r.Neg(limbs, a, out) },
					func(av, _, _, q *big.Int) *big.Int { return refMod(new(big.Int).Neg(av), q) }},
				{"MulCoeffs", func(out *Poly) { r.MulCoeffs(limbs, a, b, out) },
					func(av, bv, _, q *big.Int) *big.Int { return refMod(new(big.Int).Mul(av, bv), q) }},
				{"MulCoeffsThenAdd", func(out *Poly) { r.MulCoeffsThenAdd(limbs, a, b, out) },
					func(av, bv, ov, q *big.Int) *big.Int {
						return refMod(new(big.Int).Add(ov, new(big.Int).Mul(av, bv)), q)
					}},
				{"MulScalar", func(out *Poly) { r.MulScalar(limbs, a, scalar, out) },
					func(av, _, _, q *big.Int) *big.Int { return refMod(new(big.Int).Mul(av, scalar), q) }},
			}
			for _, o := range ops {
				out := randPoly(r, rng) // nonzero so ThenAdd exercises accumulation
				prior := make(map[[2]int]*big.Int)
				for _, i := range limbs {
					for j := 0; j < r.NVal; j++ {
						prior[[2]int{i, j}] = coeffBig(r, out, i, j)
					}
				}
				o.run(out)
				for _, i := range limbs {
					q := r.SubRings[i].Modulus()
					for j := 0; j < r.NVal; j++ {
						want := o.ref(coeffBig(r, a, i, j), coeffBig(r, b, i, j), prior[[2]int{i, j}], q)
						got := coeffBig(r, out, i, j)
						if got.Cmp(want) != 0 {
							t.Fatalf("%s limb %d coeff %d: got %v want %v", o.name, i, j, got, want)
						}
					}
				}
			}
		})
	}
}

func TestDifferentialScalarOpsVsBig(t *testing.T) {
	for _, cfg := range diffChains() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			chain, err := primes.BuildChain(5, cfg.bits, cfg.specialBits, cfg.special)
			if err != nil {
				t.Fatal(err)
			}
			r, err := NewRing(32, chain.Moduli, cfg.special, 1)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(11))
			a := randPoly(r, rng)
			for _, i := range r.Limbs(r.MaxLevel(), true) {
				sr := r.SubRings[i]
				q := sr.Modulus()
				// Repeated invocations with the same scalar exercise the
				// per-(subring, scalar) Shoup cache, including its warm path.
				for trial := 0; trial < 3; trial++ {
					c := new(big.Int).Rand(rng, q)
					s := new(big.Int).Rand(rng, q)
					out := make([]uint64, len(a.Coeffs[i]))
					for rep := 0; rep < 2; rep++ {
						sr.SubScalarThenMulScalar(a.Coeffs[i], c, s, out)
						for j := 0; j < r.NVal; j++ {
							av := coeffBig(r, a, i, j)
							want := refMod(new(big.Int).Mul(new(big.Int).Sub(av, c), s), q)
							var got big.Int
							sr.CoeffBig(out, j, &got)
							if got.Cmp(want) != 0 {
								t.Fatalf("SubScalarThenMulScalar limb %d coeff %d rep %d: got %v want %v",
									i, j, rep, &got, want)
							}
						}
					}
				}
				// Negative and oversized scalars must hit the big.Int slow
				// path and still agree.
				huge := new(big.Int).Lsh(big.NewInt(1), 200)
				neg := new(big.Int).Neg(big.NewInt(987654321))
				for _, s := range []*big.Int{huge, neg} {
					out := make([]uint64, len(a.Coeffs[i]))
					sr.MulScalar(a.Coeffs[i], s, out)
					for j := 0; j < r.NVal; j++ {
						av := coeffBig(r, a, i, j)
						want := refMod(new(big.Int).Mul(av, s), q)
						var got big.Int
						sr.CoeffBig(out, j, &got)
						if got.Cmp(want) != 0 {
							t.Fatalf("MulScalar(%v) limb %d coeff %d: got %v want %v", s, i, j, &got, want)
						}
					}
				}
			}
		})
	}
}

// TestDifferentialNTTVsNaive checks the optimized NTT/INTT pipeline against
// schoolbook negacyclic convolution per limb, on every backend.
func TestDifferentialNTTVsNaive(t *testing.T) {
	for _, cfg := range diffChains() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			chain, err := primes.BuildChain(4, cfg.bits, cfg.specialBits, cfg.special)
			if err != nil {
				t.Fatal(err)
			}
			n := 16
			r, err := NewRing(n, chain.Moduli, cfg.special, 1)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(13))
			for li, sr := range r.SubRings {
				q := sr.Modulus()
				w := sr.Width()
				a := make([]uint64, n*w)
				b := make([]uint64, n*w)
				sr.SampleUniform(rng, a)
				sr.SampleUniform(rng, b)

				// Reference: schoolbook negacyclic product in big.Int.
				av := make([]*big.Int, n)
				bv := make([]*big.Int, n)
				for j := 0; j < n; j++ {
					av[j], bv[j] = new(big.Int), new(big.Int)
					sr.CoeffBig(a, j, av[j])
					sr.CoeffBig(b, j, bv[j])
				}
				want := make([]*big.Int, n)
				for j := range want {
					want[j] = new(big.Int)
				}
				tmp := new(big.Int)
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						tmp.Mul(av[i], bv[j])
						if k := i + j; k < n {
							want[k].Add(want[k], tmp)
						} else {
							want[k-n].Sub(want[k-n], tmp)
						}
					}
				}
				for j := range want {
					want[j].Mod(want[j], q)
				}

				sr.NTT(a)
				sr.NTT(b)
				out := make([]uint64, n*w)
				sr.MulCoeffs(a, b, out)
				sr.INTT(out)
				for j := 0; j < n; j++ {
					var got big.Int
					sr.CoeffBig(out, j, &got)
					if got.Cmp(want[j]) != 0 {
						t.Fatalf("limb %d (width %d) coeff %d: got %v want %v", li, w, j, &got, want[j])
					}
				}
			}
		})
	}
}

// TestDifferentialNTTRandomRoundTrip fuzzes NTT∘INTT identity at production
// degrees (where the unrolled stages and the specialized first/last stages
// all execute) for both backends.
func TestDifferentialNTTRandomRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		bits []int
		logN int
	}{
		{"word-26", []int{26}, 8},
		{"word-40", []int{40}, 9},
		{"word-61", []int{61}, 8},
		{"wide-90", []int{90}, 6},
	} {
		tc := tc
		t.Run(fmt.Sprintf("%s-logn%d", tc.name, tc.logN), func(t *testing.T) {
			chain, err := primes.BuildChain(tc.logN, tc.bits, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			n := 1 << tc.logN
			r, err := NewRing(n, chain.Moduli, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			sr := r.SubRings[0]
			rng := rand.New(rand.NewSource(17))
			for trial := 0; trial < 10; trial++ {
				a := make([]uint64, n*sr.Width())
				sr.SampleUniform(rng, a)
				orig := append([]uint64(nil), a...)
				sr.NTT(a)
				// All NTT outputs must be fully reduced.
				q := sr.Modulus()
				for j := 0; j < n; j++ {
					var v big.Int
					sr.CoeffBig(a, j, &v)
					if v.Cmp(q) >= 0 {
						t.Fatalf("trial %d: NTT output coeff %d = %v not reduced below q", trial, j, &v)
					}
				}
				sr.INTT(a)
				for j := range a {
					if a[j] != orig[j] {
						t.Fatalf("trial %d: INTT(NTT(a))[%d] = %d, want %d", trial, j, a[j], orig[j])
					}
				}
			}
		})
	}
}

// TestDifferentialDivideExactByLimb verifies the pooled-scratch rescale
// division against its defining congruence: out ≡ (p − p_src)·q_src^{-1}.
func TestDifferentialDivideExactByLimb(t *testing.T) {
	for _, cfg := range diffChains() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			chain, err := primes.BuildChain(5, cfg.bits, cfg.specialBits, cfg.special)
			if err != nil {
				t.Fatal(err)
			}
			r, err := NewRing(32, chain.Moduli, cfg.special, 1)
			if err != nil {
				t.Fatal(err)
			}
			if r.MaxLevel() < 1 {
				t.Skip("chain too short")
			}
			rng := rand.New(rand.NewSource(23))
			src := r.MaxLevel()
			limbs := r.Limbs(src-1, false)
			p := randPoly(r, rng)
			out := r.NewPolyQ(src - 1)
			r.DivideExactByLimb(src, limbs, p, out)
			qsrc := r.SubRings[src].Modulus()
			qsrcInv := make(map[int]*big.Int)
			for _, i := range limbs {
				qsrcInv[i] = new(big.Int).ModInverse(qsrc, r.SubRings[i].Modulus())
			}
			for _, i := range limbs {
				q := r.SubRings[i].Modulus()
				for j := 0; j < r.NVal; j++ {
					pij := coeffBig(r, p, i, j)
					psj := coeffBig(r, p, src, j)
					want := new(big.Int).Sub(pij, psj)
					want.Mul(want, qsrcInv[i])
					want.Mod(want, q)
					got := coeffBig(r, out, i, j)
					if got.Cmp(want) != 0 {
						t.Fatalf("limb %d coeff %d: got %v want %v", i, j, got, want)
					}
				}
			}
		})
	}
}

// clonePoly returns a copy of p on every limb.
func clonePoly(r *Ring, p *Poly) *Poly {
	out := r.NewPoly(r.MaxLevel())
	r.Copy(r.Limbs(r.MaxLevel(), true), p, out)
	return out
}

// TestDifferentialNTTDomainKeySwitchKernels pins the two NTT-domain
// key-switch kernels to the coefficient-domain path they replace:
// DivideExactByLimbNTT must equal DivideExactByLimb followed by NTT — for
// the Rescale shape (top ciphertext limb divided out) and the ModDown shape
// (special limb), one and two polynomials per call, the coefficient-form
// source limb held in a separate polynomial or in place — and DecomposeNTT
// over one-limb digits must equal ExtendLimb followed by NTT for every
// digit. Word, wide and mixed chains, serial and pool-parallel. Grouped
// digits are TestDecomposeNTTGroupedDigits.
func TestDifferentialNTTDomainKeySwitchKernels(t *testing.T) {
	for _, cfg := range diffChains() {
		for _, parallel := range []bool{false, true} {
			cfg, parallel := cfg, parallel
			t.Run(fmt.Sprintf("%s/parallel=%v", cfg.name, parallel), func(t *testing.T) {
				chain, err := primes.BuildChain(5, cfg.bits, cfg.specialBits, cfg.special)
				if err != nil {
					t.Fatal(err)
				}
				r, err := NewRing(32, chain.Moduli, cfg.special, 1)
				if err != nil {
					t.Fatal(err)
				}
				r.Parallel = parallel
				rng := rand.New(rand.NewSource(29))
				all := r.Limbs(r.MaxLevel(), true)

				srcLimbs := []int{r.MaxLevel()}
				if r.Special > 0 {
					srcLimbs = append(srcLimbs, len(r.SubRings)-1)
				}
				for _, src := range srcLimbs {
					var targets []int
					for _, i := range all {
						if i != src {
							targets = append(targets, i)
						}
					}
					for polys := 1; polys <= 2; polys++ {
						want := make([]*Poly, polys)
						ps := make([]*Poly, polys)
						srcOnly := make([]*Poly, polys)
						outs := make([]*Poly, polys)
						for k := range ps {
							coeffs := randPoly(r, rng)
							want[k] = r.NewPoly(r.MaxLevel())
							r.DivideExactByLimb(src, targets, coeffs, want[k])
							r.NTT(targets, want[k])
							// NTT-domain operand with its src limb left in
							// coefficient form, and a separate polynomial
							// holding only that limb.
							ps[k] = clonePoly(r, coeffs)
							r.NTT(targets, ps[k])
							srcOnly[k] = r.NewPoly(r.MaxLevel())
							r.Copy([]int{src}, coeffs, srcOnly[k])
							outs[k] = r.NewPoly(r.MaxLevel())
						}
						r.DivideExactByLimbNTT(src, targets, srcOnly, ps, outs)
						for k := range ps {
							if !r.Equal(targets, outs[k], want[k]) {
								t.Fatalf("src %d, %d polys: separate-source division differs from INTT→DivideExactByLimb→NTT on poly %d", src, polys, k)
							}
						}
						r.DivideExactByLimbNTT(src, targets, ps, ps, ps)
						for k := range ps {
							if !r.Equal(targets, ps[k], want[k]) {
								t.Fatalf("src %d, %d polys: in-place division differs from INTT→DivideExactByLimb→NTT on poly %d", src, polys, k)
							}
						}
					}
				}

				for _, level := range []int{0, r.MaxLevel()} {
					limbs := r.Limbs(level, true)
					c := randPoly(r, rng)
					cNTT := clonePoly(r, c)
					r.NTT(r.Limbs(level, false), cNTT)
					digits := make([]*Poly, level+1)
					ones := make([]*Digit, level+1)
					for i := range digits {
						digits[i] = r.NewPoly(r.MaxLevel())
						ones[i] = r.NewDigit(i, i+1)
					}
					r.DecomposeNTT(limbs, c, cNTT, ones, digits)
					for i, d := range digits {
						want := r.NewPoly(r.MaxLevel())
						r.ExtendLimb(i, limbs, c, want)
						r.NTT(limbs, want)
						if !r.Equal(limbs, d, want) {
							t.Fatalf("level %d: DecomposeNTT digit %d differs from ExtendLimb→NTT", level, i)
						}
					}
				}
			})
		}
	}
}

// TestDecomposeNTTGroupedDigits checks the fast basis conversion of
// multi-limb digits against a big-integer reference: on a digit's own
// limbs the raise is cNTT, copied; on every other limb j it is the NTT of
// D mod q_j, where D = Σ_k y_k·(Q_g/q_k) with y_k = [c_k·(Q_g/q_k)⁻¹]_{q_k};
// and D ≡ c (mod Q_g) with 0 ≤ D < (Hi−Lo)·Q_g. Layouts mix grouped and
// one-limb digits and cut the top one at a lower level, on word, wide and
// mixed chains, serial and pool-parallel.
func TestDecomposeNTTGroupedDigits(t *testing.T) {
	for _, cfg := range diffChains() {
		for _, parallel := range []bool{false, true} {
			cfg, parallel := cfg, parallel
			t.Run(fmt.Sprintf("%s/parallel=%v", cfg.name, parallel), func(t *testing.T) {
				chain, err := primes.BuildChain(5, cfg.bits, cfg.specialBits, cfg.special)
				if err != nil {
					t.Fatal(err)
				}
				r, err := NewRing(32, chain.Moduli, cfg.special, 1)
				if err != nil {
					t.Fatal(err)
				}
				r.Parallel = parallel
				rng := rand.New(rand.NewSource(37))
				top := r.MaxLevel()
				var pairs [][2]int
				for lo := 0; lo <= top; lo += 2 {
					pairs = append(pairs, [2]int{lo, min(lo+2, top+1)})
				}
				type named struct {
					name   string
					layout [][2]int
				}
				layouts := []named{{"all", [][2]int{{0, top + 1}}}, {"pairs", pairs}}
				if top >= 1 {
					layouts = append(layouts, named{"one+rest", [][2]int{{0, 1}, {1, top + 1}}}, named{"all cut", [][2]int{{0, top}}})
				}
				for _, l := range layouts {
					name, layout := l.name, l.layout
					level := layout[len(layout)-1][1] - 1
					limbs := r.Limbs(level, true)
					c := randPoly(r, rng)
					cNTT := clonePoly(r, c)
					r.NTT(r.Limbs(level, false), cNTT)
					digits := make([]*Digit, len(layout))
					out := make([]*Poly, len(layout))
					for g, span := range layout {
						digits[g] = r.NewDigit(span[0], span[1])
						out[g] = r.NewPoly(r.MaxLevel())
					}
					r.DecomposeNTT(limbs, c, cNTT, digits, out)
					for g, d := range digits {
						if !r.Equal(r.Limbs(d.Hi-1, false)[d.Lo:], out[g], cNTT) {
							t.Fatalf("%s: digit %d own limbs not copied from cNTT", name, g)
						}
						var others []int
						for _, j := range limbs {
							if j < d.Lo || j >= d.Hi {
								others = append(others, j)
							}
						}
						got := clonePoly(r, out[g])
						r.INTT(others, got)
						qg := big.NewInt(1)
						for k := d.Lo; k < d.Hi; k++ {
							qg.Mul(qg, r.SubRings[k].Modulus())
						}
						bound := new(big.Int).Mul(qg, big.NewInt(int64(d.Hi-d.Lo)))
						for x := 0; x < r.N(); x++ {
							D := new(big.Int)
							crt := new(big.Int)
							for k := d.Lo; k < d.Hi; k++ {
								qk := r.SubRings[k].Modulus()
								hat := new(big.Int).Quo(qg, qk)
								y := new(big.Int).ModInverse(hat, qk)
								y.Mul(y, coeffBig(r, c, k, x))
								y.Mod(y, qk)
								D.Add(D, y.Mul(y, hat))
								crt.Add(crt, new(big.Int).Mul(coeffBig(r, c, k, x), new(big.Int).Mul(hat, new(big.Int).ModInverse(hat, qk))))
							}
							if D.Sign() < 0 || D.Cmp(bound) >= 0 || refMod(D, qg).Cmp(refMod(crt, qg)) != 0 {
								t.Fatalf("%s: digit %d coefficient %d: D = %v is not c mod Q_g in [0, %v)", name, g, x, D, bound)
							}
							for _, j := range others {
								if want := refMod(D, r.SubRings[j].Modulus()); coeffBig(r, got, j, x).Cmp(want) != 0 {
									t.Fatalf("%s: digit %d limb %d coefficient %d: got %v, want %v", name, g, j, x, coeffBig(r, got, j, x), want)
								}
							}
						}
					}
				}
			})
		}
	}
}
