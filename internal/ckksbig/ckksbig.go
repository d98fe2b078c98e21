// Package ckksbig implements the original (non-RNS) leveled CKKS scheme of
// Cheon, Kim, Kim and Song over composite ciphertext moduli
// Q_ℓ = q_0·…·q_ℓ with multiprecision (big.Int) coefficient arithmetic —
// the paper's CNN-HE baseline. Key switching follows the original
// construction: the evaluation key lives modulo Q_L·P with P ≳ Q_L and
// switching divides by P with rounding. Rescaling divides by the top prime
// factor exactly as in the RNS variant, but on multiprecision coefficients.
//
// The package mirrors the internal/ckks API closely so the homomorphic CNN
// layers can run on either backend; the measured latency difference between
// the two *is* the paper's CNN-HE vs CNN-HE-RNS comparison.
package ckksbig

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"sync"
	"sync/atomic"

	"cnnhe/internal/bigring"
	"cnnhe/internal/ckks"
	"cnnhe/internal/embed"
	"cnnhe/internal/primes"
	"cnnhe/internal/ring"
)

// Parameters fixes a non-RNS CKKS instantiation.
type Parameters struct {
	LogN    int
	Scale   float64
	H       int
	Sigma   float64
	Factors []*big.Int // prime factors q_0 … q_L of the ciphertext modulus
	PFactor []*big.Int // prime factors of the key-switching modulus P (log P ≥ log Q_L)
	Seed    int64
}

// FromRNSParameters derives matching baseline parameters from an RNS
// parameter set: the same ciphertext modulus chain (so both schemes offer
// the same precision and depth), with a fresh P of at least the same size.
func FromRNSParameters(p ckks.Parameters) (Parameters, error) {
	qFactors := p.Chain.Moduli[:p.Chain.Len()]
	avoidWord := map[uint64]bool{}
	avoidWide := map[string]bool{}
	for _, f := range qFactors {
		if f.BitLen() <= 61 {
			avoidWord[f.Uint64()] = true
		} else {
			avoidWide[f.String()] = true
		}
	}
	var pFactors []*big.Int
	for _, f := range qFactors {
		b := f.BitLen()
		if b <= 61 {
			ps, err := primes.GenNTTPrimes(b, p.LogN, 1, avoidWord)
			if err != nil {
				return Parameters{}, err
			}
			avoidWord[ps[0]] = true
			pFactors = append(pFactors, new(big.Int).SetUint64(ps[0]))
		} else {
			w, err := primes.GenWideNTTPrime(b, p.LogN, avoidWide)
			if err != nil {
				return Parameters{}, err
			}
			avoidWide[w.String()] = true
			pFactors = append(pFactors, w)
		}
	}
	return Parameters{
		LogN:    p.LogN,
		Scale:   p.Scale,
		H:       p.H,
		Sigma:   p.Sigma,
		Factors: append([]*big.Int(nil), qFactors...),
		PFactor: pFactors,
		Seed:    p.RingSeed,
	}, nil
}

// N returns the ring degree.
func (p Parameters) N() int { return 1 << uint(p.LogN) }

// Slots returns the number of plaintext slots.
func (p Parameters) Slots() int { return p.N() / 2 }

// MaxLevel returns L (index of the top prime factor).
func (p Parameters) MaxLevel() int { return len(p.Factors) - 1 }

// QAt returns Q_ℓ = q_0·…·q_ℓ.
func (p Parameters) QAt(level int) *big.Int {
	q := big.NewInt(1)
	for i := 0; i <= level; i++ {
		q.Mul(q, p.Factors[i])
	}
	return q
}

// QiFloat returns q_level as a float64.
func (p Parameters) QiFloat(level int) float64 {
	f, _ := new(big.Float).SetInt(p.Factors[level]).Float64()
	return f
}

// Context bundles the per-level rings (built lazily) with the embedder.
type Context struct {
	Params Parameters
	P      *big.Int
	halfP  *big.Int
	Emb    *embed.Embedder

	mu     sync.Mutex
	ringQ  map[int]*bigring.Ring // level → ring mod Q_ℓ
	ringQP map[int]*bigring.Ring // level → ring mod Q_ℓ·P
	skNTT  map[skCacheKey]*bigring.Poly
	skVec  []int64
}

type skCacheKey struct {
	level int
	qp    bool
}

// NewContext prepares a context; rings are constructed on first use.
func NewContext(p Parameters) (*Context, error) {
	if len(p.Factors) == 0 || len(p.PFactor) == 0 {
		return nil, fmt.Errorf("ckksbig: missing moduli")
	}
	P := big.NewInt(1)
	for _, f := range p.PFactor {
		P.Mul(P, f)
	}
	return &Context{
		Params: p,
		P:      P,
		halfP:  new(big.Int).Rsh(P, 1),
		Emb:    embed.New(p.N()),
		ringQ:  map[int]*bigring.Ring{},
		ringQP: map[int]*bigring.Ring{},
		skNTT:  map[skCacheKey]*bigring.Poly{},
	}, nil
}

// RingQ returns the ring modulo Q_level.
func (c *Context) RingQ(level int) *bigring.Ring {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r, ok := c.ringQ[level]; ok {
		return r
	}
	r, err := bigring.NewRing(c.Params.N(), c.Params.Factors[:level+1], c.Params.Seed)
	if err != nil {
		panic(fmt.Sprintf("ckksbig: ring construction failed: %v", err))
	}
	c.ringQ[level] = r
	return r
}

// RingQP returns the ring modulo Q_level·P.
func (c *Context) RingQP(level int) *bigring.Ring {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r, ok := c.ringQP[level]; ok {
		return r
	}
	factors := append(append([]*big.Int(nil), c.Params.Factors[:level+1]...), c.Params.PFactor...)
	r, err := bigring.NewRing(c.Params.N(), factors, c.Params.Seed+1)
	if err != nil {
		panic(fmt.Sprintf("ckksbig: QP ring construction failed: %v", err))
	}
	c.ringQP[level] = r
	return r
}

// skAt returns the NTT form of the secret key in the requested ring,
// cached per level.
func (c *Context) skAt(level int, qp bool) *bigring.Poly {
	var r *bigring.Ring
	if qp {
		r = c.RingQP(level)
	} else {
		r = c.RingQ(level)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	key := skCacheKey{level, qp}
	if p, ok := c.skNTT[key]; ok {
		return p
	}
	p := r.NewPoly()
	r.SetCoeffsInt64(c.skVec, p)
	r.NTT(p)
	c.skNTT[key] = p
	return p
}

// SecretKey is the ternary HW(h) secret.
type SecretKey struct {
	Vec []int64
	ctx *Context
}

// PublicKey is (b, a) = (−a·s + e, a) mod Q_L, NTT domain.
type PublicKey struct {
	B, A *bigring.Poly
}

// SwitchingKey is a single pair with message P·s'. Components are stored in
// the COEFFICIENT domain modulo Q_L·P so they can be reduced to any level;
// per-level NTT forms are cached.
type SwitchingKey struct {
	B, A *bigring.Poly // coeff domain mod Q_L·P

	mu    sync.Mutex
	cache map[int][2]*bigring.Poly // level → NTT forms mod Q_ℓ·P
}

// atLevel returns the NTT forms of the key components modulo Q_level·P.
func (swk *SwitchingKey) atLevel(ctx *Context, level int) (*bigring.Poly, *bigring.Poly) {
	swk.mu.Lock()
	defer swk.mu.Unlock()
	if swk.cache == nil {
		swk.cache = map[int][2]*bigring.Poly{}
	}
	if v, ok := swk.cache[level]; ok {
		return v[0], v[1]
	}
	r := ctx.RingQP(level)
	b := r.Copy(swk.B)
	a := r.Copy(swk.A)
	r.Mod(b, r.Q)
	r.Mod(a, r.Q)
	r.NTT(b)
	r.NTT(a)
	swk.cache[level] = [2]*bigring.Poly{b, a}
	return b, a
}

// RotationKeySet maps Galois elements to switching keys.
type RotationKeySet struct {
	Keys map[uint64]*SwitchingKey
}

// KeyGenerator produces key material deterministically from its seed.
type KeyGenerator struct {
	ctx *Context
	rng *rand.Rand
}

// NewKeyGenerator returns a generator over ctx.
func NewKeyGenerator(ctx *Context, seed int64) *KeyGenerator {
	return &KeyGenerator{ctx: ctx, rng: rand.New(rand.NewSource(seed))}
}

// GenSecretKey samples s ← HW(h) and installs it in the context caches.
func (kg *KeyGenerator) GenSecretKey() *SecretKey {
	vec := ring.SampleTernaryHW(kg.rng, kg.ctx.Params.N(), kg.ctx.Params.H)
	kg.ctx.skVec = vec
	return &SecretKey{Vec: vec, ctx: kg.ctx}
}

// GenPublicKey derives pk = (−a·s + e, a) mod Q_L.
func (kg *KeyGenerator) GenPublicKey(sk *SecretKey) *PublicKey {
	L := kg.ctx.Params.MaxLevel()
	r := kg.ctx.RingQ(L)
	s := kg.ctx.skAt(L, false)
	a := r.NewPoly()
	r.SampleUniform(kg.rng, a)
	e := r.NewPoly()
	r.SetCoeffsInt64(ring.SampleGaussian(kg.rng, r.N(), kg.ctx.Params.Sigma), e)
	r.NTT(e)
	b := r.NewPoly()
	r.MulCoeffs(a, s, b)
	r.Neg(b, b)
	r.Add(b, e, b)
	return &PublicKey{B: b, A: a}
}

// genSwitchingKey builds (−a·s + e + P·target, a) mod Q_L·P (stored in
// coefficient domain) for a target key given by centered coefficients.
func (kg *KeyGenerator) genSwitchingKey(sk *SecretKey, targetVec []int64) *SwitchingKey {
	L := kg.ctx.Params.MaxLevel()
	r := kg.ctx.RingQP(L)
	s := kg.ctx.skAt(L, true)
	a := r.NewPoly()
	r.SampleUniform(kg.rng, a)
	e := r.NewPoly()
	r.SetCoeffsInt64(ring.SampleGaussian(kg.rng, r.N(), kg.ctx.Params.Sigma), e)
	r.NTT(e)
	target := r.NewPoly()
	r.SetCoeffsInt64(targetVec, target)
	r.NTT(target)

	b := r.NewPoly()
	r.MulCoeffs(a, s, b)
	r.Neg(b, b)
	r.Add(b, e, b)
	msg := r.NewPoly()
	r.MulScalar(target, kg.ctx.P, msg)
	r.Add(b, msg, b)
	r.INTT(b)
	r.INTT(a)
	return &SwitchingKey{B: b, A: a}
}

// GenRelinearizationKey builds the switching key for s².
func (kg *KeyGenerator) GenRelinearizationKey(sk *SecretKey) *SwitchingKey {
	// s² as centered coefficients: square the sparse ternary polynomial
	// exactly over its nonzero support (h² term pairs).
	n := kg.ctx.Params.N()
	var nz []int
	for i, v := range sk.Vec {
		if v != 0 {
			nz = append(nz, i)
		}
	}
	s2 := make([]int64, n)
	for _, i := range nz {
		for _, j := range nz {
			k := i + j
			v := sk.Vec[i] * sk.Vec[j]
			if k < n {
				s2[k] += v
			} else {
				s2[k-n] -= v
			}
		}
	}
	return kg.genSwitchingKey(sk, s2)
}

// GenRotationKeys builds switching keys for slot rotations (and
// conjugation when requested). Rotations by a multiple of the slot count
// are the identity (Galois element 1) and get no key.
func (kg *KeyGenerator) GenRotationKeys(sk *SecretKey, rotations []int, conjugate bool) *RotationKeySet {
	set := &RotationKeySet{Keys: map[uint64]*SwitchingKey{}}
	for _, rot := range rotations {
		galEl := ring.GaloisElementForRotation(kg.ctx.Params.LogN, rot)
		if _, ok := set.Keys[galEl]; ok || galEl == 1 {
			continue
		}
		set.Keys[galEl] = kg.genRotationKeyFor(sk, galEl)
	}
	if conjugate {
		galEl := ring.GaloisElementConjugate(kg.ctx.Params.LogN)
		set.Keys[galEl] = kg.genRotationKeyFor(sk, galEl)
	}
	return set
}

func (kg *KeyGenerator) genRotationKeyFor(sk *SecretKey, galEl uint64) *SwitchingKey {
	n := kg.ctx.Params.N()
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
	return kg.genSwitchingKey(sk, vec)
}

// Merge adds all keys from other into set.
func (set *RotationKeySet) Merge(other *RotationKeySet) {
	for g, k := range other.Keys {
		set.Keys[g] = k
	}
}

// Plaintext is an encoded message mod Q_ℓ (NTT domain) with its scale.
type Plaintext struct {
	Value *bigring.Poly
	Level int
	Scale float64
}

// Ciphertext is (c0, c1) mod Q_ℓ, NTT domain.
type Ciphertext struct {
	C0, C1 *bigring.Poly
	Level  int
	Scale  float64
}

// CopyNew deep-copies ct.
func (ct *Ciphertext) CopyNew(ctx *Context) *Ciphertext {
	r := ctx.RingQ(ct.Level)
	return &Ciphertext{C0: r.Copy(ct.C0), C1: r.Copy(ct.C1), Level: ct.Level, Scale: ct.Scale}
}

// Encoder maps slot vectors to plaintexts.
type Encoder struct{ ctx *Context }

// NewEncoder returns an Encoder.
func NewEncoder(ctx *Context) *Encoder { return &Encoder{ctx: ctx} }

// Encode encodes real slots at the given level and scale.
func (e *Encoder) Encode(values []float64, level int, scale float64) *Plaintext {
	coeffs := e.ctx.Emb.EncodeReal(values)
	r := e.ctx.RingQ(level)
	p := r.NewPoly()
	bv := make([]*big.Int, r.N())
	bf := new(big.Float).SetPrec(256)
	sc := new(big.Float).SetFloat64(scale)
	half := big.NewFloat(0.5)
	for i, c := range coeffs {
		bf.SetFloat64(c)
		bf.Mul(bf, sc)
		if bf.Sign() >= 0 {
			bf.Add(bf, half)
		} else {
			bf.Sub(bf, half)
		}
		bv[i], _ = bf.Int(nil)
	}
	r.SetCoeffsBig(bv, p)
	r.NTT(p)
	return &Plaintext{Value: p, Level: level, Scale: scale}
}

// EncodeSpec describes one vector for EncodeBatch: the slot values and
// the exact (level, scale) to encode at.
type EncodeSpec struct {
	Values []float64
	Level  int
	Scale  float64
}

// EncodeBatch encodes every spec, spreading the work over up to workers
// goroutines (the encoder holds no mutable state and the context's lazy
// ring caches are mutex-protected, so concurrent encoding is safe).
// Results are in spec order and bit-identical to individual Encode calls.
func (e *Encoder) EncodeBatch(specs []EncodeSpec, workers int) []*Plaintext {
	out := make([]*Plaintext, len(specs))
	if workers > len(specs) {
		workers = len(specs)
	}
	if workers <= 1 {
		for i, s := range specs {
			out[i] = e.Encode(s.Values, s.Level, s.Scale)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				out[i] = e.Encode(specs[i].Values, specs[i].Level, specs[i].Scale)
			}
		}()
	}
	wg.Wait()
	return out
}

// Decode recovers the real slot values.
func (e *Encoder) Decode(pt *Plaintext) []float64 {
	r := e.ctx.RingQ(pt.Level)
	tmp := r.Copy(pt.Value)
	r.INTT(tmp)
	centered := r.CoeffsCentered(tmp)
	coeffs := make([]float64, r.N())
	for i, b := range centered {
		f, _ := new(big.Float).SetInt(b).Float64()
		coeffs[i] = f / pt.Scale
	}
	return e.ctx.Emb.DecodeReal(coeffs)
}

// Encryptor encrypts under pk (at the top level).
type Encryptor struct {
	ctx *Context
	pk  *PublicKey
	rng *rand.Rand
}

// NewEncryptor returns an Encryptor.
func NewEncryptor(ctx *Context, pk *PublicKey, seed int64) *Encryptor {
	return &Encryptor{ctx: ctx, pk: pk, rng: rand.New(rand.NewSource(seed))}
}

// Encrypt encrypts pt, which must be encoded at the top level.
func (en *Encryptor) Encrypt(pt *Plaintext) *Ciphertext {
	L := en.ctx.Params.MaxLevel()
	if pt.Level != L {
		panic("ckksbig: encryption requires a top-level plaintext")
	}
	r := en.ctx.RingQ(L)
	v := r.NewPoly()
	r.SetCoeffsInt64(ring.SampleTernarySparse(en.rng, r.N(), 0.5), v)
	r.NTT(v)
	e0 := r.NewPoly()
	r.SetCoeffsInt64(ring.SampleGaussian(en.rng, r.N(), en.ctx.Params.Sigma), e0)
	r.NTT(e0)
	e1 := r.NewPoly()
	r.SetCoeffsInt64(ring.SampleGaussian(en.rng, r.N(), en.ctx.Params.Sigma), e1)
	r.NTT(e1)
	ct := &Ciphertext{C0: r.NewPoly(), C1: r.NewPoly(), Level: L, Scale: pt.Scale}
	r.MulCoeffs(v, en.pk.B, ct.C0)
	r.Add(ct.C0, e0, ct.C0)
	r.Add(ct.C0, pt.Value, ct.C0)
	r.MulCoeffs(v, en.pk.A, ct.C1)
	r.Add(ct.C1, e1, ct.C1)
	return ct
}

// Decryptor recovers plaintexts.
type Decryptor struct {
	ctx *Context
	sk  *SecretKey
}

// NewDecryptor returns a Decryptor.
func NewDecryptor(ctx *Context, sk *SecretKey) *Decryptor {
	return &Decryptor{ctx: ctx, sk: sk}
}

// DecryptNew returns m = c0 + c1·s.
func (d *Decryptor) DecryptNew(ct *Ciphertext) *Plaintext {
	r := d.ctx.RingQ(ct.Level)
	s := d.ctx.skAt(ct.Level, false)
	p := r.NewPoly()
	r.MulCoeffs(ct.C1, s, p)
	r.Add(p, ct.C0, p)
	return &Plaintext{Value: p, Level: ct.Level, Scale: ct.Scale}
}

// EncodeConstant mirrors ckks.EncodeConstant.
func EncodeConstant(c float64, scale float64) *big.Int {
	return ckks.EncodeConstant(c, scale)
}

func logScale(s float64) float64 { return math.Log2(s) }
