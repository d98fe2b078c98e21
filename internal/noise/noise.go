// Package noise implements the CKKS noise-growth heuristics of the
// original paper (Cheon-Kim-Kim-Song, §"Noise estimation"), used to reason
// about the accuracy loss the paper's Section III.C discusses: given
// parameters and a lowered op graph, Graph predicts the precision every
// op's result keeps.
//
// Bounds are the standard high-probability canonical-embedding estimates
// (erfc-style tail cut at 6σ): they are deliberately conservative; the
// empirical tests in this package confirm measured noise stays below them.
package noise

import (
	"math"

	"cnnhe/internal/henn/ir"
)

// Model carries the distribution parameters the bounds depend on.
type Model struct {
	N     int     // ring degree
	Sigma float64 // χ_err standard deviation
	H     int     // secret Hamming weight
}

// Fresh returns the high-probability bound B_clean on the canonical-
// embedding noise of a fresh public-key encryption:
// 8√2·σ·N + 6σ√N + 16σ√(hN).
func (m Model) Fresh() float64 {
	n := float64(m.N)
	return 8*math.Sqrt2*m.Sigma*n + 6*m.Sigma*math.Sqrt(n) + 16*m.Sigma*math.Sqrt(float64(m.H)*n)
}

// Rescale returns the bound added by one rescaling (or the mod-down of a
// key switch): B_scale = √(N/3)·(3 + 8√h) for rounding to nearest, plus
// the bias of the ring's division, which floors: (a − [a]_q)/q with
// [a]_q ∈ [0, q) leaves an error τ0 + τ1·s with τ ∈ [0, 1), i.e. the
// centered part B_scale bounds plus ½·u·(1 + s), u = Σ_j X^j. Since
// ‖u‖_can = 1/sin(π/2N) and ‖s‖_can ≤ 8√h, the bias adds
// (1 + 8√h)/(2·sin(π/2N)) ≈ N·(1 + 8√h)/π.
func (m Model) Rescale() float64 {
	n, sh := float64(m.N), 8*math.Sqrt(float64(m.H))
	return math.Sqrt(n/3)*(3+sh) + (1+sh)/(2*math.Sin(math.Pi/(2*n)))
}

// KeySwitch returns the bound on the noise added by a key switch with
// `digits` digits whose raised coefficients are at most maxDigit,
// divided by the special modulus P: 8·σ·N·digits·maxDigit/(√3·P) plus
// the mod-down rounding Rescale. ckks.Parameters.KeySwitchBound gives
// the digit count and maxDigit of a CKKS-RNS level.
func (m Model) KeySwitch(digits int, maxDigit, p float64) float64 {
	return 8*m.Sigma*float64(m.N)*float64(digits)*maxDigit/(math.Sqrt(3)*p) + m.Rescale()
}

// MulPlain returns the multiplicative noise factor for a plaintext
// multiplication: an input with noise e and a plaintext of canonical norm
// ≤ ptNorm yields noise ≤ ptNorm·e.
func (m Model) MulPlain(e, ptNorm float64) float64 { return ptNorm * e }

// Mul returns the noise bound after a ciphertext-ciphertext multiplication
// of operands with message norms ν1, ν2 and noises e1, e2 (before key
// switching): ν1·e2 + ν2·e1 + e1·e2.
func (m Model) Mul(nu1, e1, nu2, e2 float64) float64 {
	return nu1*e2 + nu2*e1 + e1*e2
}

// valueBound is the slot magnitude Graph assumes for both operands of a
// ciphertext-ciphertext multiplication (the SLAF activations' inputs).
const valueBound = 32

// Graph returns, for every op of g, log2(scale/bound): the fractional
// bits of precision the op's result keeps under the worst-case bound on
// its noise. Every input is taken to be a fresh encryption at its
// OpEncrypt's (level, scale). ks is the bound one key switch adds (see
// KeySwitch) and qi returns each level's prime. The bound grows per op:
//
//	Encrypt             Fresh
//	Add                 e₀ + e₁
//	AddPlain, DropLevel e₀
//	MulPlain            MulPlain(e₀, max(1, max|Plain|)·PtScale)
//	Recombine           Σᵢ max(|wᵢ|, 1)·eᵢ, summed in argument order
//	MulRelin            Mul(valueBound·Δ₀, e₀, valueBound·Δ₁, e₁) + ks
//	Rescale             e₀/q + Rescale, q the input level's prime
//	Rotate              e₀ + ks
//
// where eᵢ and Δᵢ are argument i's bound and scale. The scales are the
// graph's, which lowering computes with the engines' own float64
// arithmetic, so the result is what tracking the same bound op by op at
// run time would give, to the bit.
func Graph(g *ir.Graph, m Model, ks float64, qi func(level int) float64) []float64 {
	e := make([]float64, len(g.Ops))
	bits := make([]float64, len(g.Ops))
	for i := range g.Ops {
		op := &g.Ops[i]
		var e0 float64
		if len(op.Args) > 0 {
			e0 = e[op.Args[0]]
		}
		switch op.Kind {
		case ir.OpEncrypt:
			e[i] = m.Fresh()
		case ir.OpAdd:
			e[i] = e0 + e[op.Args[1]]
		case ir.OpAddPlain, ir.OpDropLevel:
			e[i] = e0
		case ir.OpMulPlain:
			e[i] = m.MulPlain(e0, maxAbs(op.Plain)*op.PtScale)
		case ir.OpRecombine:
			for j, a := range op.Args {
				e[i] += e[a] * math.Max(math.Abs(float64(op.Weights[j])), 1)
			}
		case ir.OpMulRelin:
			a, b := op.Args[0], op.Args[1]
			e[i] = m.Mul(valueBound*g.Ops[a].Scale, e[a], valueBound*g.Ops[b].Scale, e[b]) + ks
		case ir.OpRescale:
			e[i] = e0/qi(g.Ops[op.Args[0]].Level) + m.Rescale()
		case ir.OpRotate:
			e[i] = e0 + ks
		}
		bits[i] = math.Log2(op.Scale / e[i])
	}
	return bits
}

// maxAbs is the plaintext canonical-norm proxy MulPlain takes: the
// largest slot magnitude, floored at 1 so a contractive plaintext never
// shrinks the bound below the additive terms.
func maxAbs(v []float64) float64 {
	m := 1.0
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}
