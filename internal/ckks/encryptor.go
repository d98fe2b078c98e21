package ckks

import (
	"math/rand"

	"cnnhe/internal/ring"
)

// Encryptor encrypts plaintexts under a public key (or, for testing and
// key-owner workflows, directly under the secret key).
type Encryptor struct {
	ctx *Context
	pk  *PublicKey
	sk  *SecretKey
	rng *rand.Rand
}

// NewEncryptor returns a public-key encryptor.
func NewEncryptor(ctx *Context, pk *PublicKey, seed int64) *Encryptor {
	return &Encryptor{ctx: ctx, pk: pk, rng: rand.New(rand.NewSource(seed))}
}

// NewSecretKeyEncryptor returns a secret-key encryptor (smaller noise).
func NewSecretKeyEncryptor(ctx *Context, sk *SecretKey, seed int64) *Encryptor {
	return &Encryptor{ctx: ctx, sk: sk, rng: rand.New(rand.NewSource(seed))}
}

// Encrypt encrypts pt (which must be in NTT form). Its temporaries — the
// ephemeral key and the error polynomials — come from the ring's free
// lists and go back to them; each is overwritten whole before it is read.
func (en *Encryptor) Encrypt(pt *Plaintext) *Ciphertext {
	if !pt.IsNTT {
		panic("ckks: plaintext must be in NTT form for encryption")
	}
	r := en.ctx.R
	level := pt.Level
	limbs := r.Limbs(level, false)
	ct := &Ciphertext{
		C0:    r.NewPolyQ(level),
		C1:    r.NewPolyQ(level),
		Level: level,
		Scale: pt.Scale,
	}
	if en.pk != nil {
		// (c0, c1) = v·(pk.B, pk.A) + (m + e0, e1)
		v := r.GetPolyQ(level)
		vec := ring.SampleTernarySparse(en.rng, r.N(), 0.5)
		r.SetCoeffsInt64(limbs, vec, v)
		r.NTT(limbs, v)

		e0 := r.GetPolyQ(level)
		r.SamplePolyGaussian(en.rng, limbs, en.ctx.Params.Sigma, e0)
		r.NTT(limbs, e0)
		e1 := r.GetPolyQ(level)
		r.SamplePolyGaussian(en.rng, limbs, en.ctx.Params.Sigma, e1)
		r.NTT(limbs, e1)

		r.MulCoeffs(limbs, v, en.pk.B, ct.C0)
		r.Add(limbs, ct.C0, e0, ct.C0)
		r.Add(limbs, ct.C0, pt.Value, ct.C0)
		r.MulCoeffs(limbs, v, en.pk.A, ct.C1)
		r.Add(limbs, ct.C1, e1, ct.C1)
		r.PutPoly(v)
		r.PutPoly(e0)
		r.PutPoly(e1)
		return ct
	}
	// Secret-key encryption: c1 uniform, c0 = −c1·s + m + e.
	r.SampleUniform(en.rng, limbs, ct.C1)
	e := r.GetPolyQ(level)
	r.SamplePolyGaussian(en.rng, limbs, en.ctx.Params.Sigma, e)
	r.NTT(limbs, e)
	r.MulCoeffs(limbs, ct.C1, en.sk.S, ct.C0)
	r.Neg(limbs, ct.C0, ct.C0)
	r.Add(limbs, ct.C0, e, ct.C0)
	r.Add(limbs, ct.C0, pt.Value, ct.C0)
	r.PutPoly(e)
	return ct
}

// Decryptor recovers plaintexts with the secret key.
type Decryptor struct {
	ctx *Context
	sk  *SecretKey
}

// NewDecryptor returns a Decryptor.
func NewDecryptor(ctx *Context, sk *SecretKey) *Decryptor {
	return &Decryptor{ctx: ctx, sk: sk}
}

// DecryptNew returns the plaintext m = c0 + c1·s (NTT form).
func (d *Decryptor) DecryptNew(ct *Ciphertext) *Plaintext {
	r := d.ctx.R
	limbs := r.Limbs(ct.Level, false)
	p := r.NewPolyQ(ct.Level)
	r.MulCoeffs(limbs, ct.C1, d.sk.S, p)
	r.Add(limbs, p, ct.C0, p)
	return &Plaintext{Value: p, Level: ct.Level, Scale: ct.Scale, IsNTT: true}
}
