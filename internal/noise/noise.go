// Package noise implements the CKKS noise-growth heuristics of the
// original paper (Cheon-Kim-Kim-Song, §"Noise estimation"), used to reason
// about the accuracy loss the paper's Section III.C discusses: given
// parameters and a pipeline description, it predicts error bounds and
// checks that a scale Δ leaves enough precision headroom.
//
// Bounds are the standard high-probability canonical-embedding estimates
// (erfc-style tail cut at 6σ): they are deliberately conservative; the
// empirical tests in this package confirm measured noise stays below them.
package noise

import (
	"fmt"
	"math"
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

// Budget tracks message scale versus accumulated noise through a pipeline.
type Budget struct {
	Model Model
	// Scale is the current plaintext scale Δ of the tracked ciphertext.
	Scale float64
	// Noise is the current canonical-embedding noise bound.
	Noise float64
	// Steps records the pipeline for diagnostics.
	Steps []string
}

// NewBudget starts from a fresh encryption at the given scale.
func NewBudget(m Model, scale float64) *Budget {
	return &Budget{Model: m, Scale: scale, Noise: m.Fresh(), Steps: []string{"fresh"}}
}

// BitsOfPrecision returns log2(scale/noise) — the significant fractional
// bits remaining. Negative means the message is drowned.
func (b *Budget) BitsOfPrecision() float64 {
	return math.Log2(b.Scale / b.Noise)
}

// AfterMulPlain applies a plaintext multiplication at ptScale with
// plaintext canonical norm ptNorm, followed by a rescale by q.
func (b *Budget) AfterMulPlain(ptScale, ptNorm, q float64) {
	b.Noise = b.Model.MulPlain(b.Noise, ptNorm*ptScale)
	b.Scale *= ptScale
	b.rescale(q)
	b.Steps = append(b.Steps, "mulplain+rescale")
}

// AfterMul applies a ciphertext-ciphertext multiplication with a second
// operand at the same scale carrying noise otherNoise; nu1 and nu2 are the
// slot-domain message magnitudes of the two operands. The relinearization
// key-switch noise ksNoise is added and the result is rescaled by q
// (Δ → Δ²/q).
func (b *Budget) AfterMul(otherNoise, nu1, nu2, ksNoise, q float64) {
	b.Noise = b.Model.Mul(nu1*b.Scale, b.Noise, nu2*b.Scale, otherNoise) + ksNoise
	b.Scale *= b.Scale
	b.Steps = append(b.Steps, "mul")
	b.rescale(q)
}

func (b *Budget) rescale(q float64) {
	b.Noise = b.Noise/q + b.Model.Rescale()
	b.Scale /= q
}

// AfterRotation adds key-switch noise for a rotation.
func (b *Budget) AfterRotation(ksNoise float64) {
	b.Noise += ksNoise
	b.Steps = append(b.Steps, "rotate")
}

// Check returns an error when fewer than minBits of precision remain.
func (b *Budget) Check(minBits float64) error {
	if got := b.BitsOfPrecision(); got < minBits {
		return fmt.Errorf("noise: %.1f bits of precision remain (< %.1f) after %v",
			got, minBits, b.Steps)
	}
	return nil
}
