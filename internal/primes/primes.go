// Package primes generates NTT-friendly prime moduli and SEAL-style moduli
// chains for the RNS-CKKS scheme.
//
// A prime q is NTT-friendly for ring degree N when q ≡ 1 (mod 2N), which
// guarantees that Z_q contains a primitive 2N-th root of unity and therefore
// supports the negacyclic number-theoretic transform over Z_q[X]/(X^N+1).
//
// The chain builder mirrors the co-prime generation tool the paper uses from
// SEAL: "given a list of lengths of at most 60 bits, a set of co-primes of
// those lengths is generated" — extended here to wide (62–122 bit) lengths
// so that a fixed total modulus can be split into fewer, larger limbs for
// the Table IV/VI moduli-chain sweeps.
package primes

import (
	"fmt"
	"math/big"

	"cnnhe/internal/zq"
)

// millerRabinRounds is the number of Miller-Rabin rounds used for primality
// testing. math/big additionally runs a Baillie-PSW-style Lucas test, so
// false positives are cryptographically negligible.
const millerRabinRounds = 24

// IsPrime reports whether the word-sized v is prime.
func IsPrime(v uint64) bool {
	return new(big.Int).SetUint64(v).ProbablyPrime(millerRabinRounds)
}

// GenNTTPrimes returns `count` distinct word-sized primes of exactly bitLen
// bits with p ≡ 1 (mod 2N), searching downward from 2^bitLen. Primes listed
// in avoid are skipped. It returns an error when the range is exhausted.
func GenNTTPrimes(bitLen int, logN int, count int, avoid map[uint64]bool) ([]uint64, error) {
	if bitLen < 2 || bitLen > zq.MaxWordModulusBits {
		return nil, fmt.Errorf("primes: bit length %d outside word range [2,%d]", bitLen, zq.MaxWordModulusBits)
	}
	twoN := uint64(1) << uint(logN+1)
	if uint64(1)<<uint(bitLen) <= twoN {
		return nil, fmt.Errorf("primes: 2^%d too small for ring degree 2^%d", bitLen, logN)
	}
	upper := uint64(1) << uint(bitLen)
	lower := uint64(1) << uint(bitLen-1)
	// Largest candidate < upper with candidate ≡ 1 (mod 2N).
	cand := upper - twoN + 1
	var out []uint64
	for cand > lower {
		if !avoid[cand] && IsPrime(cand) {
			out = append(out, cand)
			if len(out) == count {
				return out, nil
			}
		}
		cand -= twoN
	}
	return nil, fmt.Errorf("primes: exhausted %d-bit range after finding %d/%d primes", bitLen, len(out), count)
}

// GenWideNTTPrime returns one wide prime (62–122 bits) of exactly bitLen
// bits with p ≡ 1 (mod 2N), skipping values in avoid (keyed by decimal
// string).
func GenWideNTTPrime(bitLen int, logN int, avoid map[string]bool) (*big.Int, error) {
	if bitLen <= zq.MaxWordModulusBits || bitLen > zq.MaxWideModulusBits {
		return nil, fmt.Errorf("primes: bit length %d outside wide range (%d,%d]", bitLen, zq.MaxWordModulusBits, zq.MaxWideModulusBits)
	}
	twoN := new(big.Int).Lsh(big.NewInt(1), uint(logN+1))
	upper := new(big.Int).Lsh(big.NewInt(1), uint(bitLen))
	lower := new(big.Int).Lsh(big.NewInt(1), uint(bitLen-1))
	cand := new(big.Int).Sub(upper, twoN)
	cand.Add(cand, big.NewInt(1))
	for cand.Cmp(lower) > 0 {
		if !avoid[cand.String()] && cand.ProbablyPrime(millerRabinRounds) {
			return new(big.Int).Set(cand), nil
		}
		cand.Sub(cand, twoN)
	}
	return nil, fmt.Errorf("primes: exhausted wide %d-bit range", bitLen)
}

// Chain is an ordered set of pairwise-distinct NTT-friendly primes: the
// ciphertext moduli q_0 … q_L followed (optionally) by special primes used
// only for key switching.
type Chain struct {
	// Moduli holds every prime in order, as big.Ints (word-sized primes
	// included, for uniform CRT handling).
	Moduli []*big.Int
	// BitSizes holds the requested bit length of each prime.
	BitSizes []int
	// SpecialCount is the number of trailing key-switching primes.
	SpecialCount int
}

// Len returns the number of ciphertext primes (excluding special primes).
func (c Chain) Len() int { return len(c.Moduli) - c.SpecialCount }

// Q returns the full ciphertext modulus ∏ q_i (special primes excluded).
func (c Chain) Q() *big.Int {
	q := big.NewInt(1)
	for i := 0; i < c.Len(); i++ {
		q.Mul(q, c.Moduli[i])
	}
	return q
}

// P returns the product of the special primes (1 when there are none).
func (c Chain) P() *big.Int {
	p := big.NewInt(1)
	for i := c.Len(); i < len(c.Moduli); i++ {
		p.Mul(p, c.Moduli[i])
	}
	return p
}

// LogQ returns the total bit length of the ciphertext modulus.
func (c Chain) LogQ() int { return c.Q().BitLen() }

// MaxWideBits reports the widest prime in the chain, used to decide the
// limb backend.
func (c Chain) MaxWideBits() int {
	m := 0
	for _, q := range c.Moduli {
		if b := q.BitLen(); b > m {
			m = b
		}
	}
	return m
}

// BuildChain generates a chain of distinct NTT-friendly primes with the
// given bit sizes (ciphertext primes) followed by specialBits-sized special
// primes (specialCount of them; pass 0,0 for none). Bit sizes may exceed the
// word bound, in which case wide primes are generated.
func BuildChain(logN int, bitSizes []int, specialBits, specialCount int) (Chain, error) {
	all := append(append([]int{}, bitSizes...), repeat(specialBits, specialCount)...)
	avoidWord := map[uint64]bool{}
	avoidWide := map[string]bool{}
	var moduli []*big.Int
	for _, b := range all {
		if b <= zq.MaxWordModulusBits {
			ps, err := GenNTTPrimes(b, logN, 1, avoidWord)
			if err != nil {
				return Chain{}, err
			}
			avoidWord[ps[0]] = true
			moduli = append(moduli, new(big.Int).SetUint64(ps[0]))
		} else {
			p, err := GenWideNTTPrime(b, logN, avoidWide)
			if err != nil {
				return Chain{}, err
			}
			avoidWide[p.String()] = true
			moduli = append(moduli, p)
		}
	}
	return Chain{Moduli: moduli, BitSizes: all, SpecialCount: specialCount}, nil
}

func repeat(v, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// PaperBitSizes returns the ciphertext-prime bit sizes of the paper's
// Table II security settings following SEAL's convention, where the last
// listed prime is the key-switching ("special") prime: the ciphertext
// chain is [40, 26×11] (326 bits) and the trailing 40-bit prime of the
// paper's q = [40, 26, …, 26, 40] is the special prime, for
// log q·P = 366 in total across L = 13 primes.
func PaperBitSizes() []int {
	sizes := []int{40}
	for i := 0; i < 11; i++ {
		sizes = append(sizes, 26)
	}
	return sizes
}

// PaperShape returns the paper-shaped ciphertext chain of length k,
// [40, mid×(k−2), 40]: Table II's q = [40, 26×11, 40] is PaperShape(13,
// 26) read with every listed prime a ciphertext prime (the special
// primes are chosen separately). k = 2 yields [40, 40]; k ≤ 1 yields a
// single 40-bit prime, only meaningful for parameter plumbing.
func PaperShape(k, mid int) []int {
	if k <= 1 {
		return []int{40}
	}
	bits := []int{40}
	for i := 0; i < k-2; i++ {
		bits = append(bits, mid)
	}
	return append(bits, 40)
}

// EqualSplit splits totalBits into k parts differing by at most one bit,
// largest parts first. It is the interpretation used for the Table IV/VI
// moduli-chain-length sweeps: the total ciphertext modulus is fixed and the
// number of co-prime limbs varies.
func EqualSplit(totalBits, k int) []int {
	base := totalBits / k
	rem := totalBits % k
	out := make([]int, k)
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}
