package ring

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"cnnhe/internal/primes"
)

// Kernel micro-benchmarks (`make bench-kernels`): NTT, pointwise multiply
// and the rescale division per limb count, serial vs pool-parallel, with
// -benchmem so the zero-hot-path-allocation property stays visible. The
// parallel/serial pair at a given limb count is the limb-level speedup the
// revived pool delivers; it scales with GOMAXPROCS.

// benchRing builds a paper-shaped word chain (40, 26×(limbs−2), 40 + one
// 60-bit special) at the production degree.
func benchRing(b *testing.B, logN, limbs int, parallel bool) *Ring {
	b.Helper()
	bits := make([]int, limbs)
	bits[0] = 40
	for i := 1; i < limbs-1; i++ {
		bits[i] = 26
	}
	bits[limbs-1] = 40
	chain, err := primes.BuildChain(logN, bits, 60, 1)
	if err != nil {
		b.Fatal(err)
	}
	r, err := NewRing(1<<logN, chain.Moduli, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	r.Parallel = parallel
	return r
}

func benchPoly(r *Ring, seed int64) *Poly {
	rng := rand.New(rand.NewSource(seed))
	p := r.NewPoly(r.MaxLevel())
	for _, i := range r.Limbs(r.MaxLevel(), true) {
		r.SubRings[i].SampleUniform(rng, p.Coeffs[i])
	}
	return p
}

// kernelCases sweeps the limb counts a CNN1/CNN2 evaluation actually passes
// through (fresh ciphertext down to the last rescale), serial and parallel.
func kernelCases() []struct {
	limbs    int
	parallel bool
} {
	var cases []struct {
		limbs    int
		parallel bool
	}
	for _, limbs := range []int{2, 4, 8, 13} {
		for _, par := range []bool{false, true} {
			cases = append(cases, struct {
				limbs    int
				parallel bool
			}{limbs, par})
		}
	}
	return cases
}

func BenchmarkKernelNTT(b *testing.B) {
	for _, tc := range kernelCases() {
		b.Run(fmt.Sprintf("limbs=%d/parallel=%v", tc.limbs, tc.parallel), func(b *testing.B) {
			r := benchRing(b, 12, tc.limbs, tc.parallel)
			p := benchPoly(r, 1)
			limbs := r.Limbs(r.MaxLevel(), true)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.NTT(limbs, p)
				r.INTT(limbs, p)
			}
		})
	}
}

func BenchmarkKernelMulCoeffs(b *testing.B) {
	for _, tc := range kernelCases() {
		b.Run(fmt.Sprintf("limbs=%d/parallel=%v", tc.limbs, tc.parallel), func(b *testing.B) {
			r := benchRing(b, 12, tc.limbs, tc.parallel)
			x := benchPoly(r, 1)
			y := benchPoly(r, 2)
			out := r.NewPoly(r.MaxLevel())
			limbs := r.Limbs(r.MaxLevel(), true)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.MulCoeffs(limbs, x, y, out)
			}
		})
	}
}

func BenchmarkKernelMulCoeffsThenAdd(b *testing.B) {
	for _, tc := range kernelCases() {
		b.Run(fmt.Sprintf("limbs=%d/parallel=%v", tc.limbs, tc.parallel), func(b *testing.B) {
			r := benchRing(b, 12, tc.limbs, tc.parallel)
			x := benchPoly(r, 1)
			y := benchPoly(r, 2)
			out := benchPoly(r, 3)
			limbs := r.Limbs(r.MaxLevel(), true)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.MulCoeffsThenAdd(limbs, x, y, out)
			}
		})
	}
}

// BenchmarkKernelRescale measures the pooled-scratch exact division that
// backs Rescale and ModDown.
func BenchmarkKernelRescale(b *testing.B) {
	for _, tc := range kernelCases() {
		b.Run(fmt.Sprintf("limbs=%d/parallel=%v", tc.limbs, tc.parallel), func(b *testing.B) {
			r := benchRing(b, 12, tc.limbs, tc.parallel)
			p := benchPoly(r, 1)
			src := r.MaxLevel()
			qLimbs := r.Limbs(src-1, false)
			out := r.NewPolyQ(src - 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.DivideExactByLimb(src, qLimbs, p, out)
			}
		})
	}
}

// BenchmarkKernelMulScalar shows the cached Shoup constants: after the
// first call the scalar path is allocation-free.
func BenchmarkKernelMulScalar(b *testing.B) {
	for _, tc := range kernelCases() {
		b.Run(fmt.Sprintf("limbs=%d/parallel=%v", tc.limbs, tc.parallel), func(b *testing.B) {
			r := benchRing(b, 12, tc.limbs, tc.parallel)
			p := benchPoly(r, 1)
			out := r.NewPoly(r.MaxLevel())
			limbs := r.Limbs(r.MaxLevel(), true)
			s := big.NewInt(1099511627689)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.MulScalar(limbs, p, s, out)
			}
		})
	}
}

// BenchmarkKernelInnerProduct pits the lazily-reduced inner product against
// the eager loop it replaces (MulCoeffs + MulCoeffsThenAdd per term) at the
// term counts the hot sums see: ~8 baby steps of a small layer, a full
// 32-term giant step, and 64 — the flush boundary of a 61-bit limb. The
// logN-11 limb counts are the key switch's (digits × QP limbs).
func BenchmarkKernelInnerProduct(b *testing.B) {
	for _, limbs := range []int{4, 13} {
		for _, terms := range []int{8, 32, 64} {
			for _, par := range []bool{false, true} {
				r := benchRing(b, 11, limbs, par)
				as := make([]*Poly, terms)
				bs := make([]*Poly, terms)
				for t := range as {
					as[t] = benchPoly(r, int64(2*t+1))
					bs[t] = benchPoly(r, int64(2*t+2))
				}
				out := r.NewPoly(r.MaxLevel())
				ls := r.Limbs(r.MaxLevel(), true)
				name := fmt.Sprintf("limbs=%d/terms=%d/parallel=%v", limbs, terms, par)
				b.Run("eager/"+name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						r.MulCoeffs(ls, as[0], bs[0], out)
						for t := 1; t < terms; t++ {
							r.MulCoeffsThenAdd(ls, as[t], bs[t], out)
						}
					}
				})
				b.Run("lazy/"+name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						r.InnerProduct(ls, as, bs, out)
					}
				})
			}
		}
	}
}

// BenchmarkKernelModDown is the ModDown of one key switch — both
// accumulators divided by the special prime — in the coefficient-domain
// shape it replaced (INTT every QP limb, DivideExactByLimb, NTT the Q limbs
// back) against the NTT-domain one (INTT the special limb,
// DivideExactByLimbNTT on both polynomials in one job).
func BenchmarkKernelModDown(b *testing.B) {
	for _, tc := range kernelCases() {
		r := benchRing(b, 12, tc.limbs, tc.parallel)
		accs := []*Poly{benchPoly(r, 1), benchPoly(r, 2)}
		outs := []*Poly{r.NewPolyQ(r.MaxLevel()), r.NewPolyQ(r.MaxLevel())}
		special := len(r.SubRings) - 1
		qLimbs := r.Limbs(r.MaxLevel(), false)
		qpLimbs := r.Limbs(r.MaxLevel(), true)
		name := fmt.Sprintf("limbs=%d/parallel=%v", tc.limbs, tc.parallel)
		b.Run("coeff/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for k, acc := range accs {
					r.INTT(qpLimbs, acc)
					r.DivideExactByLimb(special, qLimbs, acc, outs[k])
					r.NTT(qLimbs, outs[k])
				}
			}
		})
		b.Run("ntt/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, acc := range accs {
					r.INTT([]int{special}, acc)
				}
				r.DivideExactByLimbNTT(special, qLimbs, accs, accs, outs)
			}
		})
	}
}

// BenchmarkKernelDecompose is the digit raise of one key switch at every
// ciphertext limb: per digit ExtendLimb + NTT on all QP limbs (the shape
// it replaced) against DecomposeNTT, one job that copies each digit's own
// limb from the NTT-domain input.
func BenchmarkKernelDecompose(b *testing.B) {
	for _, tc := range kernelCases() {
		r := benchRing(b, 12, tc.limbs, tc.parallel)
		c := benchPoly(r, 1)
		cNTT := benchPoly(r, 2)
		qpLimbs := r.Limbs(r.MaxLevel(), true)
		digits := make([]*Poly, r.MaxLevel()+1)
		for i := range digits {
			digits[i] = r.NewPoly(r.MaxLevel())
		}
		name := fmt.Sprintf("limbs=%d/parallel=%v", tc.limbs, tc.parallel)
		b.Run("extend+ntt/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j, d := range digits {
					r.ExtendLimb(j, qpLimbs, c, d)
					r.NTT(qpLimbs, d)
				}
			}
		})
		b.Run("decompose/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.DecomposeNTT(qpLimbs, c, cNTT, digits)
			}
		})
	}
}
