package ckks

import (
	"fmt"
	"math"
	"math/big"
	"sync"
	"sync/atomic"

	"cnnhe/internal/ring"
)

// Plaintext is an encoded message: an RNS polynomial at a level, carrying
// its scale. Value is in the NTT domain when IsNTT is set.
type Plaintext struct {
	Value *ring.Poly
	Level int
	Scale float64
	IsNTT bool
}

// Ciphertext is a degree-1 RLWE ciphertext (c0, c1), always kept in the NTT
// domain on limbs 0..Level.
type Ciphertext struct {
	C0, C1 *ring.Poly
	Level  int
	Scale  float64
}

// CopyNew returns a deep copy of ct, built from the ring's recycled
// limbs.
func (ct *Ciphertext) CopyNew(ctx *Context) *Ciphertext {
	r := ctx.R
	limbs := r.Limbs(ct.Level, false)
	out := &Ciphertext{
		C0:    r.GetPolyQ(ct.Level),
		C1:    r.GetPolyQ(ct.Level),
		Level: ct.Level,
		Scale: ct.Scale,
	}
	r.Copy(limbs, ct.C0, out.C0)
	r.Copy(limbs, ct.C1, out.C1)
	return out
}

// Encoder maps slot vectors to plaintext polynomials and back via the
// canonical embedding.
type Encoder struct {
	ctx *Context
}

// NewEncoder returns an Encoder over ctx.
func NewEncoder(ctx *Context) *Encoder { return &Encoder{ctx: ctx} }

// maxInt64Float is the largest float64 that safely rounds into an int64.
const maxInt64Float = 9.0e18

// Encode encodes values (≤ N/2 reals, zero-padded) at the given level and
// scale, returning an NTT-domain plaintext.
func (e *Encoder) Encode(values []float64, level int, scale float64) *Plaintext {
	coeffs := e.ctx.Emb.EncodeReal(values)
	return e.encodeCoeffs(coeffs, level, scale)
}

// EncodeComplex encodes complex slots.
func (e *Encoder) EncodeComplex(values []complex128, level int, scale float64) *Plaintext {
	coeffs := e.ctx.Emb.Encode(values)
	return e.encodeCoeffs(coeffs, level, scale)
}

func (e *Encoder) encodeCoeffs(coeffs []float64, level int, scale float64) *Plaintext {
	r := e.ctx.R
	limbs := r.Limbs(level, false)
	n := r.N()
	useBig := false
	iv := make([]int64, n)
	for i, c := range coeffs {
		v := c * scale
		if math.Abs(v) > maxInt64Float {
			useBig = true
			break
		}
		iv[i] = int64(math.RoundToEven(v))
	}
	p := r.NewPolyQ(level)
	if !useBig {
		r.SetCoeffsInt64(limbs, iv, p)
	} else {
		bv := make([]*big.Int, n)
		bf := new(big.Float).SetPrec(256)
		for i, c := range coeffs {
			bf.SetFloat64(c)
			bf.Mul(bf, new(big.Float).SetFloat64(scale))
			bi, _ := bf.Int(nil)
			bv[i] = bi
		}
		r.SetCoeffsBig(limbs, bv, p)
	}
	r.NTT(limbs, p)
	return &Plaintext{Value: p, Level: level, Scale: scale, IsNTT: true}
}

// EncodeSpec describes one vector for EncodeBatch: the slot values and
// the exact (level, scale) to encode at.
type EncodeSpec struct {
	Values []float64
	Level  int
	Scale  float64
}

// EncodeBatch encodes every spec, spreading the work over up to workers
// goroutines (the encoder holds no mutable state, so concurrent encoding
// is safe). Results are in spec order and bit-identical to individual
// Encode calls.
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

// Decode recovers the real slot values of a plaintext.
func (e *Encoder) Decode(pt *Plaintext) []float64 {
	return realParts(e.DecodeComplex(pt))
}

// DecodeComplex recovers the complex slot values of a plaintext.
func (e *Encoder) DecodeComplex(pt *Plaintext) []complex128 {
	r := e.ctx.R
	limbs := r.Limbs(pt.Level, false)
	tmp := r.NewPolyQ(pt.Level)
	r.Copy(limbs, pt.Value, tmp)
	if pt.IsNTT {
		r.INTT(limbs, tmp)
	}
	big := r.CoeffsBigCentered(pt.Level, tmp)
	coeffs := make([]float64, r.N())
	for i, b := range big {
		coeffs[i] = bigToFloat(b) / pt.Scale
	}
	return e.ctx.Emb.Decode(coeffs)
}

func bigToFloat(v *big.Int) float64 {
	f, _ := new(big.Float).SetInt(v).Float64()
	return f
}

func realParts(cv []complex128) []float64 {
	out := make([]float64, len(cv))
	for i, v := range cv {
		out[i] = real(v)
	}
	return out
}

// EncodeConstant returns the integer ⌊c·scale⌉ used for scalar
// multiplication of every slot by the constant c.
func EncodeConstant(c float64, scale float64) *big.Int {
	bf := new(big.Float).SetPrec(128).SetFloat64(c)
	bf.Mul(bf, new(big.Float).SetFloat64(scale))
	half := big.NewFloat(0.5)
	if bf.Sign() >= 0 {
		bf.Add(bf, half)
	} else {
		bf.Sub(bf, half)
	}
	bi, _ := bf.Int(nil)
	return bi
}

// String implements fmt.Stringer for quick ciphertext inspection.
func (ct *Ciphertext) String() string {
	return fmt.Sprintf("Ciphertext{level: %d, scale: 2^%.2f}", ct.Level, math.Log2(ct.Scale))
}
