package ckks

import (
	"math/rand"

	"cnnhe/internal/ring"
)

// SecretKey is the CKKS secret key sk = (1, s) with s ← χ_key = HW(h).
type SecretKey struct {
	// S is s on all QP limbs, NTT domain.
	S *ring.Poly
	// Vec is the centered ternary coefficient vector of s.
	Vec []int64
}

// PublicKey is pk = (b, a) with b = −a·s + e, held on all QP limbs in the
// NTT domain (encryption only ever uses the Q limbs).
type PublicKey struct {
	B, A *ring.Poly
}

// SwitchingKey re-encrypts x·s' into a ciphertext under s: one (b_i, a_i)
// pair per RNS digit, on all QP limbs in the NTT domain, with
// b_i = −a_i·s + e_i + P·g_i·s' (g_i the CRT unit of limb i).
type SwitchingKey struct {
	B, A []*ring.Poly
}

// RelinearizationKey is the switching key for s².
type RelinearizationKey struct {
	SwitchingKey
}

// RotationKeySet holds switching keys per Galois element.
type RotationKeySet struct {
	Keys map[uint64]*SwitchingKey
}

// KeyGenerator produces all key material. Generation is deterministic for
// a given seed.
type KeyGenerator struct {
	ctx *Context
	rng *rand.Rand
}

// NewKeyGenerator returns a key generator over ctx seeded by seed.
func NewKeyGenerator(ctx *Context, seed int64) *KeyGenerator {
	return &KeyGenerator{ctx: ctx, rng: rand.New(rand.NewSource(seed))}
}

// GenSecretKey samples s ← HW(h).
func (kg *KeyGenerator) GenSecretKey() *SecretKey {
	r := kg.ctx.R
	limbs := r.Limbs(kg.ctx.Params.MaxLevel(), true)
	s := r.NewPoly(kg.ctx.Params.MaxLevel())
	vec := r.SamplePolyTernaryHW(kg.rng, limbs, kg.ctx.Params.H, s)
	r.NTT(limbs, s)
	return &SecretKey{S: s, Vec: vec}
}

// GenPublicKey derives pk = (−a·s + e, a).
func (kg *KeyGenerator) GenPublicKey(sk *SecretKey) *PublicKey {
	r := kg.ctx.R
	maxLevel := kg.ctx.Params.MaxLevel()
	limbs := r.Limbs(maxLevel, true)
	a := r.NewPoly(maxLevel)
	r.SampleUniform(kg.rng, limbs, a) // uniform in NTT domain is uniform
	e := r.NewPoly(maxLevel)
	r.SamplePolyGaussian(kg.rng, limbs, kg.ctx.Params.Sigma, e)
	r.NTT(limbs, e)
	b := r.NewPoly(maxLevel)
	r.MulCoeffs(limbs, a, sk.S, b)
	r.Neg(limbs, b, b)
	r.Add(limbs, b, e, b)
	return &PublicKey{B: b, A: a}
}

// genSwitchingKey builds the switching key whose message is P·g_i·target
// per digit, target given on all QP limbs in NTT domain.
func (kg *KeyGenerator) genSwitchingKey(sk *SecretKey, target *ring.Poly) *SwitchingKey {
	r := kg.ctx.R
	maxLevel := kg.ctx.Params.MaxLevel()
	limbs := r.Limbs(maxLevel, true)
	P := r.P()
	swk := &SwitchingKey{}
	for i := 0; i <= maxLevel; i++ {
		a := r.NewPoly(maxLevel)
		r.SampleUniform(kg.rng, limbs, a)
		e := r.NewPoly(maxLevel)
		r.SamplePolyGaussian(kg.rng, limbs, kg.ctx.Params.Sigma, e)
		r.NTT(limbs, e)
		b := r.NewPoly(maxLevel)
		r.MulCoeffs(limbs, a, sk.S, b)
		r.Neg(limbs, b, b)
		r.Add(limbs, b, e, b)
		// Message on limb i only: (P mod q_i) · target.
		sr := r.SubRings[i]
		msg := make([]uint64, len(target.Coeffs[i]))
		sr.MulScalar(target.Coeffs[i], P, msg)
		sr.Add(b.Coeffs[i], msg, b.Coeffs[i])
		swk.B = append(swk.B, b)
		swk.A = append(swk.A, a)
	}
	return swk
}

// GenRelinearizationKey builds the switching key for s².
func (kg *KeyGenerator) GenRelinearizationKey(sk *SecretKey) *RelinearizationKey {
	r := kg.ctx.R
	maxLevel := kg.ctx.Params.MaxLevel()
	limbs := r.Limbs(maxLevel, true)
	s2 := r.NewPoly(maxLevel)
	r.MulCoeffs(limbs, sk.S, sk.S, s2)
	return &RelinearizationKey{SwitchingKey: *kg.genSwitchingKey(sk, s2)}
}

// GenRotationKeys builds switching keys for the given slot rotations
// (left rotations; negatives allowed) and, when conjugate is set, for
// complex conjugation. Rotations by a multiple of the slot count are the
// identity (Galois element 1) and get no key.
func (kg *KeyGenerator) GenRotationKeys(sk *SecretKey, rotations []int, conjugate bool) *RotationKeySet {
	set := &RotationKeySet{Keys: map[uint64]*SwitchingKey{}}
	logN := kg.ctx.Params.LogN
	for _, rot := range rotations {
		galEl := ring.GaloisElementForRotation(logN, rot)
		if _, ok := set.Keys[galEl]; ok || galEl == 1 {
			continue
		}
		set.Keys[galEl] = kg.genRotationKey(sk, galEl)
	}
	if conjugate {
		galEl := ring.GaloisElementConjugate(logN)
		set.Keys[galEl] = kg.genRotationKey(sk, galEl)
	}
	return set
}

// genRotationKey builds the switching key for φ_galEl(s) → s.
func (kg *KeyGenerator) genRotationKey(sk *SecretKey, galEl uint64) *SwitchingKey {
	r := kg.ctx.R
	maxLevel := kg.ctx.Params.MaxLevel()
	limbs := r.Limbs(maxLevel, true)
	// Apply the automorphism to the centered coefficient vector of s.
	n := r.N()
	vec := make([]int64, n)
	mask := uint64(2*n - 1)
	for i := 0; i < n; i++ {
		j := (uint64(i) * galEl) & mask
		if j < uint64(n) {
			vec[j] = sk.Vec[i]
		} else {
			vec[j-uint64(n)] = -sk.Vec[i]
		}
	}
	target := r.NewPoly(maxLevel)
	r.SetCoeffsInt64(limbs, vec, target)
	r.NTT(limbs, target)
	return kg.genSwitchingKey(sk, target)
}

// Merge adds all keys from other into set (later keys win on collision).
// A nil receiver or nil other is a no-op.
func (set *RotationKeySet) Merge(other *RotationKeySet) {
	if set == nil || other == nil {
		return
	}
	if set.Keys == nil {
		set.Keys = make(map[uint64]*SwitchingKey, len(other.Keys))
	}
	for g, k := range other.Keys {
		set.Keys[g] = k
	}
}
