package ckks

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"cnnhe/internal/ring"
)

// poisonFreeLists hands n polynomials holding q_i−1 in every word of every
// limb to r's free lists, so the next results built from recycled limbs
// start from the largest residue instead of zero.
func poisonFreeLists(t *testing.T, r *ring.Ring, n int) {
	t.Helper()
	polys := make([]*ring.Poly, n)
	for k := range polys {
		p := r.GetPoly()
		for i, c := range p.Coeffs {
			sr := r.SubRings[i]
			if sr.Width() != 1 {
				t.Fatalf("limb %d is %d words wide; the poison fill needs word limbs", i, sr.Width())
			}
			q := sr.Modulus().Uint64()
			for j := range c {
				c[j] = q - 1
			}
		}
		polys[k] = p
	}
	for _, p := range polys {
		r.PutPoly(p)
	}
}

// TestResultsFromRecycledLimbs: every Evaluator result path builds its
// output from recycled limbs, whose contents are stale, so each must
// overwrite all of them. Each op runs on an evaluator over a fresh
// context and on one whose free lists were just filled with limbs
// holding q_i−1 in every word, from the same operands and keys, and the
// two results must marshal to the same bytes. A path that accumulates
// into an output it assumes is zero (PlainRecombine without products
// before it cleared its output) fails here. Two chains: one limb per
// key-switch digit, and 26-bit limbs grouped two to a digit.
func TestResultsFromRecycledLimbs(t *testing.T) {
	tinyParams, err := TinyParameters()
	if err != nil {
		t.Fatal(err)
	}
	grouped, err := NewParameters(10, []int{40, 26, 26, 26, 26}, 60, 1, math.Exp2(26))
	if err != nil {
		t.Fatal(err)
	}
	for _, chain := range []struct {
		name   string
		params Parameters
	}{{"tiny", tinyParams}, {"grouped-digits", grouped}} {
		t.Run(chain.name, func(t *testing.T) {
			testResultsFromRecycledLimbs(t, chain.params)
		})
	}
}

func testResultsFromRecycledLimbs(t *testing.T, p Parameters) {
	k := newTestKit(t, p, []int{1, 3, -2}, false)
	rng := rand.New(rand.NewSource(17))
	slots, top, scale := p.Slots(), p.MaxLevel(), p.Scale
	encrypt := func() *Ciphertext { return k.ept.Encrypt(k.enc.Encode(randVec(rng, slots, 1), top, scale)) }
	a, b, c := encrypt(), encrypt(), encrypt()
	pt := k.enc.Encode(randVec(rng, slots, 1), top, scale)
	pt2 := k.enc.Encode(randVec(rng, slots, 1), top, scale)
	cp := k.ev.MulPlain(c, pt) // a plain term at a product's scale
	one := func(ct *Ciphertext) []*Ciphertext { return []*Ciphertext{ct} }
	for _, tc := range []struct {
		name string
		op   func(ev *Evaluator) []*Ciphertext
	}{
		{"Add", func(ev *Evaluator) []*Ciphertext { return one(ev.Add(a, b)) }},
		{"Sub", func(ev *Evaluator) []*Ciphertext { return one(ev.Sub(a, b)) }},
		{"Neg", func(ev *Evaluator) []*Ciphertext { return one(ev.Neg(a)) }},
		{"AddPlain", func(ev *Evaluator) []*Ciphertext { return one(ev.AddPlain(a, pt)) }},
		{"MulPlain", func(ev *Evaluator) []*Ciphertext { return one(ev.MulPlain(a, pt)) }},
		{"MulConst", func(ev *Evaluator) []*Ciphertext { return one(ev.MulConst(a, -1.5, 0)) }},
		{"MulInt", func(ev *Evaluator) []*Ciphertext { return one(ev.MulInt(a, -7)) }},
		{"Rescale", func(ev *Evaluator) []*Ciphertext { return one(ev.Rescale(a)) }},
		{"DropLevel", func(ev *Evaluator) []*Ciphertext { return one(ev.DropLevel(a, 2)) }},
		{"CopyNew", func(ev *Evaluator) []*Ciphertext { return one(a.CopyNew(ev.ctx)) }},
		{"Mul", func(ev *Evaluator) []*Ciphertext { return one(ev.Mul(a, b)) }},
		{"Rotate", func(ev *Evaluator) []*Ciphertext { return one(ev.Rotate(a, 3)) }},
		{"RotateHoisted", func(ev *Evaluator) []*Ciphertext {
			outs := ev.RotateHoisted(a, []int{1, 3, -2, slots})
			ks := make([]int, 0, len(outs))
			for r := range outs {
				ks = append(ks, r)
			}
			sort.Ints(ks)
			cts := make([]*Ciphertext, len(ks))
			for i, r := range ks {
				cts[i] = outs[r]
			}
			return cts
		}},
		{"PlainRecombine/products", func(ev *Evaluator) []*Ciphertext {
			return one(ev.PlainRecombine([]*Ciphertext{a, cp, b}, []*Plaintext{pt, nil, pt2}, []int64{1, -3, 1}))
		}},
		{"PlainRecombine/integer", func(ev *Evaluator) []*Ciphertext {
			return one(ev.PlainRecombine([]*Ciphertext{a, b, c}, nil, []int64{1, -7, 2}))
		}},
		{"PlainRecombine/single-term", func(ev *Evaluator) []*Ciphertext {
			return one(ev.PlainRecombine([]*Ciphertext{a}, nil, []int64{1}))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			evalOn := func() *Evaluator {
				ctx, err := NewContext(p)
				if err != nil {
					t.Fatal(err)
				}
				return NewEvaluator(ctx, k.rlk, k.ev.rtk)
			}
			fresh, dirty := evalOn(), evalOn()
			want := ctDigest(t, k.ctx, tc.op(fresh)...)
			poisonFreeLists(t, dirty.ctx.R, 32)
			if got := ctDigest(t, k.ctx, tc.op(dirty)...); got != want {
				t.Fatalf("result built from recycled limbs differs from a fresh ring's: %s vs %s", got, want)
			}
		})
	}
}

// TestEncryptFromRecycledLimbs: Encrypt draws its temporaries from the
// free lists, so it must overwrite each whole. A public-key and a
// secret-key encryption on a context whose free lists hold q_i−1 in
// every word marshal to the same bytes as one on a fresh context, from
// the same keys and seed, on both chains.
func TestEncryptFromRecycledLimbs(t *testing.T) {
	tinyParams, err := TinyParameters()
	if err != nil {
		t.Fatal(err)
	}
	grouped, err := NewParameters(10, []int{40, 26, 26, 26, 26}, 60, 1, math.Exp2(26))
	if err != nil {
		t.Fatal(err)
	}
	for _, chain := range []struct {
		name   string
		params Parameters
	}{{"tiny", tinyParams}, {"grouped-digits", grouped}} {
		p := chain.params
		k := newTestKit(t, p, nil, false)
		pt := k.enc.Encode(randVec(rand.New(rand.NewSource(5)), p.Slots(), 1), p.MaxLevel(), p.Scale)
		for _, mode := range []string{"public-key", "secret-key"} {
			t.Run(chain.name+"/"+mode, func(t *testing.T) {
				encrypt := func(dirty bool) string {
					ctx, err := NewContext(p)
					if err != nil {
						t.Fatal(err)
					}
					if dirty {
						poisonFreeLists(t, ctx.R, 8)
					}
					en := NewEncryptor(ctx, k.pk, 31)
					if mode == "secret-key" {
						en = NewSecretKeyEncryptor(ctx, k.sk, 31)
					}
					return ctDigest(t, k.ctx, en.Encrypt(pt))
				}
				if fresh, dirty := encrypt(false), encrypt(true); dirty != fresh {
					t.Fatalf("encryption on recycled limbs differs from a fresh ring's: %s vs %s", dirty, fresh)
				}
			})
		}
	}
}
