package ckks

import (
	"fmt"
	"math/rand"
	"testing"
)

// Primitive-operation benchmarks at the test ring size (N=2^12, the
// paper-shaped 13-prime chain). Run the full suite with:
//
//	go test -bench=. -benchmem ./internal/ckks/
func benchKit(b *testing.B) *testKit {
	b.Helper()
	p, err := TestParameters()
	if err != nil {
		b.Fatal(err)
	}
	return newTestKit(b, p, []int{1}, false)
}

func benchCt(b *testing.B, k *testKit) *Ciphertext {
	rng := rand.New(rand.NewSource(1))
	vals := randVec(rng, k.ctx.Params.Slots(), 1)
	return k.ept.Encrypt(k.enc.Encode(vals, k.ctx.Params.MaxLevel(), k.ctx.Params.Scale))
}

func BenchmarkEncode(b *testing.B) {
	k := benchKit(b)
	rng := rand.New(rand.NewSource(2))
	vals := randVec(rng, k.ctx.Params.Slots(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.enc.Encode(vals, k.ctx.Params.MaxLevel(), k.ctx.Params.Scale)
	}
}

func BenchmarkEncrypt(b *testing.B) {
	k := benchKit(b)
	rng := rand.New(rand.NewSource(3))
	pt := k.enc.Encode(randVec(rng, 16, 1), k.ctx.Params.MaxLevel(), k.ctx.Params.Scale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.ept.Encrypt(pt)
	}
}

func BenchmarkDecryptDecode(b *testing.B) {
	k := benchKit(b)
	ct := benchCt(b, k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.enc.Decode(k.dec.DecryptNew(ct))
	}
}

func BenchmarkAdd(b *testing.B) {
	k := benchKit(b)
	ct := benchCt(b, k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.ev.Add(ct, ct)
	}
}

func BenchmarkMulPlain(b *testing.B) {
	k := benchKit(b)
	ct := benchCt(b, k)
	rng := rand.New(rand.NewSource(4))
	pt := k.enc.Encode(randVec(rng, k.ctx.Params.Slots(), 1), ct.Level, k.ctx.Params.Scale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.ev.MulPlain(ct, pt)
	}
}

func BenchmarkMulRelin(b *testing.B) {
	k := benchKit(b)
	ct := benchCt(b, k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.ev.Mul(ct, ct)
	}
}

func BenchmarkRescale(b *testing.B) {
	k := benchKit(b)
	ct := benchCt(b, k)
	prod := k.ev.Mul(ct, ct)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.ev.Rescale(prod)
	}
}

func BenchmarkRotate(b *testing.B) {
	k := benchKit(b)
	ct := benchCt(b, k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.ev.Rotate(ct, 1)
	}
}

// BenchmarkMulRelinByLevel shows keyswitch cost scaling with the level
// (digit count).
func BenchmarkMulRelinByLevel(b *testing.B) {
	k := benchKit(b)
	ct := benchCt(b, k)
	for _, drop := range []int{0, 4, 8} {
		level := ct.Level - drop
		b.Run(fmt.Sprintf("level=%d", level), func(b *testing.B) {
			low := k.ev.DropLevel(ct, drop)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.ev.Mul(low, low)
			}
		})
	}
}

// BenchmarkRotateHoisted8 is eight rotations off one decomposition: per
// rotation, two digit×key inner products gathered through the NTT-domain
// automorphism plus the ModDown.
func BenchmarkRotateHoisted8(b *testing.B) {
	p, err := TestParameters()
	if err != nil {
		b.Fatal(err)
	}
	ks := []int{1, 2, 3, 4, 5, 6, 7, 8}
	k := newTestKit(b, p, ks, false)
	ct := benchCt(b, k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.ev.RotateHoisted(ct, ks)
	}
}

// BenchmarkPlainRecombine is the scheme-op view of a BSGS inner sum: the
// fused call against the MulPlain/Add chain it replaces, at the term counts
// of a small layer and of a full 32-baby-step giant step.
func BenchmarkPlainRecombine(b *testing.B) {
	k := benchKit(b)
	rng := rand.New(rand.NewSource(5))
	for _, terms := range []int{8, 32} {
		cts := make([]*Ciphertext, terms)
		pts := make([]*Plaintext, terms)
		weights := make([]int64, terms)
		for i := range cts {
			cts[i] = benchCt(b, k)
			pts[i] = k.enc.Encode(randVec(rng, k.ctx.Params.Slots(), 1), cts[i].Level, k.ctx.Params.Scale)
			weights[i] = 1
		}
		b.Run(fmt.Sprintf("chain/terms=%d", terms), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				acc := k.ev.MulPlain(cts[0], pts[0])
				for t := 1; t < terms; t++ {
					acc = k.ev.Add(acc, k.ev.MulPlain(cts[t], pts[t]))
				}
			}
		})
		b.Run(fmt.Sprintf("fused/terms=%d", terms), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k.ev.PlainRecombine(cts, pts, weights)
			}
		})
	}
}
