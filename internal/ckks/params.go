// Package ckks implements the full-RNS variant of the CKKS approximate
// homomorphic encryption scheme (Cheon, Han, Kim, Kim, Song — "A Full RNS
// Variant of Approximate Homomorphic Encryption"), the paper's CKKS-RNS
// cryptosystem.
//
// Plaintexts are vectors of up to N/2 real (complex) numbers; ciphertexts
// are pairs of RNS polynomials kept in the NTT (evaluation) domain. The
// scheme supports addition, plaintext and ciphertext multiplication with
// relinearization, rescaling, slot rotation and conjugation. Key switching
// is hybrid: a digit is a run of consecutive ciphertext limbs whose product
// stays keySwitchMarginBits below the special modulus P (one or more
// special primes), raised to QP by a fast basis conversion (Parameters.Digits).
package ckks

import (
	"fmt"
	"math"
	"math/big"

	"cnnhe/internal/embed"
	"cnnhe/internal/primes"
	"cnnhe/internal/ring"
)

// Parameters fixes a CKKS-RNS instantiation: ring degree, moduli chain,
// plaintext scale and sampling parameters.
type Parameters struct {
	// LogN is log2 of the ring degree N.
	LogN int
	// Scale is the default plaintext scale Δ.
	Scale float64
	// H is the Hamming weight of the ternary secret key (χ_key = HW(h)).
	H int
	// Sigma is the standard deviation of the error distribution χ_err.
	Sigma float64
	// Chain holds the ciphertext and special prime moduli.
	Chain primes.Chain
	// RingSeed seeds the deterministic primitive-root searches.
	RingSeed int64
}

// NewParameters builds Parameters with a freshly generated moduli chain:
// bitSizes ciphertext primes followed by specialCount special primes of
// specialBits bits each.
func NewParameters(logN int, bitSizes []int, specialBits, specialCount int, scale float64) (Parameters, error) {
	if logN < 3 || logN > 17 {
		return Parameters{}, fmt.Errorf("ckks: logN %d out of range [3,17]", logN)
	}
	chain, err := primes.BuildChain(logN, bitSizes, specialBits, specialCount)
	if err != nil {
		return Parameters{}, err
	}
	p := Parameters{
		LogN:     logN,
		Scale:    scale,
		H:        64,
		Sigma:    ring.DefaultSigma,
		Chain:    chain,
		RingSeed: 1,
	}
	if p.H >= p.N() {
		p.H = p.N() / 2
	}
	return p, nil
}

// PaperParameters returns the paper's Table II security settings:
// N = 2^14, Δ = 2^26, q = [40, 26×11, 40] with log q·P = 366 (λ = 128 per
// the HE standard). Following SEAL's convention — the library the paper
// builds on — the trailing 40-bit prime is the key-switching prime, so
// the ciphertext chain is [40, 26×11] with 11 usable levels. (A 40-bit
// special prime leaves ≈2^-6 relative key-switch noise per rotation at
// Δ = 2^26; the benchmark harness uses a 60-bit special for cleaner
// precision at the cost of 20 extra logQP bits, still within the λ=128
// bound.)
func PaperParameters() (Parameters, error) {
	return NewParameters(14, primes.PaperBitSizes(), 40, 1, math.Exp2(26))
}

// TestParameters returns a reduced-size parameter set (N = 2^12) with the
// same chain shape and depth as the paper settings plus a 60-bit special
// prime. It is NOT 128-bit secure — pure-Go NTTs at N = 2^14 make
// full-size test suites too slow — and is intended for correctness tests
// and default benchmarks only.
func TestParameters() (Parameters, error) {
	return NewParameters(12, primes.PaperBitSizes(), 60, 1, math.Exp2(26))
}

// TinyParameters returns a minimal parameter set (N = 2^10, 4 levels) for
// fast unit tests.
func TinyParameters() (Parameters, error) {
	return NewParameters(10, []int{40, 30, 30, 30, 30}, 50, 1, math.Exp2(30))
}

// SweepParameters returns parameters whose ciphertext modulus totals
// totalBits split into k equal primes — the Table IV/VI moduli-chain-length
// interpretation. Special primes are sized to dominate the largest
// ciphertext prime (two wide specials when the split exceeds the word
// bound) so key-switching noise stays negligible.
func SweepParameters(logN int, totalBits, k int, scale float64) (Parameters, error) {
	sizes := primes.EqualSplit(totalBits, k)
	maxBits := sizes[0]
	specialBits, specialCount := maxBits+16, 1
	if specialBits > 60 && maxBits <= 60 {
		specialBits = 60
	}
	if maxBits > 60 {
		// Wide limbs: use two wide specials so log P ≥ maxBits + 16.
		specialBits = maxBits
		specialCount = 2
	}
	return NewParameters(logN, sizes, specialBits, specialCount, scale)
}

// N returns the ring degree.
func (p Parameters) N() int { return 1 << uint(p.LogN) }

// Slots returns the number of plaintext slots (N/2).
func (p Parameters) Slots() int { return p.N() / 2 }

// MaxLevel returns the highest ciphertext level L (index of the top
// ciphertext prime).
func (p Parameters) MaxLevel() int { return p.Chain.Len() - 1 }

// LogQP returns the total bit length of Q·P (all moduli), the quantity the
// HE security standard bounds.
func (p Parameters) LogQP() int {
	q := new(big.Int).Mul(p.Chain.Q(), p.Chain.P())
	return q.BitLen()
}

// QiFloat returns q_level as a float64 (used by scale management).
func (p Parameters) QiFloat(level int) float64 {
	f, _ := new(big.Float).SetInt(p.Chain.Moduli[level]).Float64()
	return f
}

// keySwitchMarginBits is how far a key-switch digit's modulus Q_g stays
// below the special modulus P: bitlen(Q_g) + keySwitchMarginBits ≤
// bitlen(P), so Q_g/P < 2^(1−keySwitchMarginBits). DESIGN.md §14 derives
// the 8 from the key-switch term of noise.Model.KeySwitch.
const keySwitchMarginBits = 8

// Digits returns the key-switch digits live at level, as [lo, hi) ranges
// of ciphertext limbs: from limb 0 up, each digit is the longest run of
// consecutive limbs whose modulus product has at most bitlen(P) −
// keySwitchMarginBits bits (at least one limb). Growing each run greedily
// from the bottom means the digits at a lower level are the top level's
// digits that start at or below it, the last one cut at level — so the
// switching keys, one (b, a) per top-level digit, serve every level.
func (p Parameters) Digits(level int) [][2]int {
	budget := p.Chain.P().BitLen() - keySwitchMarginBits
	var out [][2]int
	for lo := 0; lo <= level; {
		prod := new(big.Int).Set(p.Chain.Moduli[lo])
		hi := lo + 1
		for hi <= level && new(big.Int).Mul(prod, p.Chain.Moduli[hi]).BitLen() <= budget {
			prod.Mul(prod, p.Chain.Moduli[hi])
			hi++
		}
		out = append(out, [2]int{lo, hi})
		lo = hi
	}
	return out
}

// KeySwitchBound returns the two layout figures noise.Model.KeySwitch
// takes for a key switch at level: the number of live digits, and the
// largest bound on a raised digit's coefficients, (hi−lo)·Q_g — the range
// of the fast basis conversion, which is q_i itself for a one-limb digit.
// The guard's graph noise budget (noise.Graph) takes its key-switch term
// from here.
func (p Parameters) KeySwitchBound(level int) (digits int, maxDigit float64) {
	ds := p.Digits(level)
	for _, d := range ds {
		qg := big.NewInt(int64(d[1] - d[0]))
		for i := d[0]; i < d[1]; i++ {
			qg.Mul(qg, p.Chain.Moduli[i])
		}
		if f, _ := new(big.Float).SetInt(qg).Float64(); f > maxDigit {
			maxDigit = f
		}
	}
	return len(ds), maxDigit
}

// Context bundles Parameters with the constructed RNS ring and the
// canonical-embedding engine. All scheme components share one Context.
type Context struct {
	Params Parameters
	R      *ring.Ring
	Emb    *embed.Embedder

	// digits[level] are the key-switch digits live at level
	// (Parameters.Digits) with their basis-conversion constants.
	digits [][]*ring.Digit
}

// NewContext constructs the ring (deterministically, from
// Parameters.RingSeed) and the embedder.
func NewContext(p Parameters) (*Context, error) {
	r, err := ring.NewRing(p.N(), p.Chain.Moduli, p.Chain.SpecialCount, p.RingSeed)
	if err != nil {
		return nil, err
	}
	ctx := &Context{Params: p, R: r, Emb: embed.New(p.N())}
	for level := 0; level <= p.MaxLevel(); level++ {
		var ds []*ring.Digit
		for _, d := range p.Digits(level) {
			ds = append(ds, r.NewDigit(d[0], d[1]))
		}
		ctx.digits = append(ctx.digits, ds)
	}
	return ctx, nil
}

// SetParallel toggles limb-level parallelism on the underlying ring.
func (c *Context) SetParallel(on bool) { c.R.Parallel = on }
