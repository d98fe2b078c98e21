package ckks

import (
	"math/rand"
	"testing"
)

// TestPlainRecombineMatchesChain: the fused call leaves exactly the
// residues of the MulPlain / MulInt / Add chain — with products only, with
// weighted plain terms only (the Recombine case, pts nil), and mixed,
// including negative and zero weights — at the top level and two below.
func TestPlainRecombineMatchesChain(t *testing.T) {
	k := tiny(t)
	rng := rand.New(rand.NewSource(21))
	slots := k.ctx.Params.Slots()
	scale := k.ctx.Params.Scale
	for _, drop := range []int{0, 2} {
		level := k.ctx.Params.MaxLevel() - drop
		fresh := func() *Ciphertext {
			ct := k.ept.Encrypt(k.enc.Encode(randVec(rng, slots, 1), k.ctx.Params.MaxLevel(), scale))
			return k.ev.DropLevel(ct, drop)
		}
		plain := func() *Plaintext { return k.enc.Encode(randVec(rng, slots, 1), level, scale) }
		product := func() *Ciphertext { return k.ev.MulPlain(fresh(), plain()) }
		for _, tc := range []struct {
			name    string
			cts     []*Ciphertext
			pts     []*Plaintext
			weights []int64
		}{
			{"products", []*Ciphertext{fresh(), fresh(), fresh()}, []*Plaintext{plain(), plain(), plain()}, []int64{1, 1, 1}},
			{"weights-only", []*Ciphertext{fresh(), fresh(), fresh(), fresh()}, nil, []int64{1, -7, 0, 1 << 40}},
			{"mixed", []*Ciphertext{product(), fresh(), fresh(), product(), product()},
				[]*Plaintext{nil, plain(), plain(), nil, nil}, []int64{1, 1, 1, -3, 1}},
			{"single-product", []*Ciphertext{fresh()}, []*Plaintext{plain()}, []int64{1}},
		} {
			var want *Ciphertext
			for i, ct := range tc.cts {
				term := ct
				if tc.pts != nil && tc.pts[i] != nil {
					term = k.ev.MulPlain(ct, tc.pts[i])
				}
				if tc.weights[i] != 1 {
					term = k.ev.MulInt(term, tc.weights[i])
				}
				if want == nil {
					want = term
				} else {
					want = k.ev.Add(want, term)
				}
			}
			got := k.ev.PlainRecombine(tc.cts, tc.pts, tc.weights)
			limbs := k.ctx.R.Limbs(level, false)
			if got.Level != want.Level || got.Scale != want.Scale ||
				!k.ctx.R.Equal(limbs, got.C0, want.C0) || !k.ctx.R.Equal(limbs, got.C1, want.C1) {
				t.Errorf("level %d, %s: fused result differs from the chain (level %d/%d, scale %g/%g)",
					level, tc.name, got.Level, want.Level, got.Scale, want.Scale)
			}
		}
	}
}

func TestPlainRecombinePanics(t *testing.T) {
	k := tiny(t)
	L := k.ctx.Params.MaxLevel()
	scale := k.ctx.Params.Scale
	ct := k.ept.Encrypt(k.enc.Encode([]float64{1}, L, scale))
	pt := k.enc.Encode([]float64{1}, L, scale)
	low := k.ev.DropLevel(ct, 1)
	for name, f := range map[string]func(){
		"no terms":         func() { k.ev.PlainRecombine(nil, nil, nil) },
		"weight count":     func() { k.ev.PlainRecombine([]*Ciphertext{ct, ct}, nil, []int64{1}) },
		"level mismatch":   func() { k.ev.PlainRecombine([]*Ciphertext{ct, low}, nil, []int64{1, 1}) },
		"plaintext level":  func() { k.ev.PlainRecombine([]*Ciphertext{low}, []*Plaintext{pt}, []int64{1}) },
		"scale mismatch":   func() { k.ev.PlainRecombine([]*Ciphertext{ct, ct}, []*Plaintext{pt, nil}, []int64{1, 1}) },
		"weighted product": func() { k.ev.PlainRecombine([]*Ciphertext{ct}, []*Plaintext{pt}, []int64{2}) },
		"plaintext not NTT": func() {
			k.ev.PlainRecombine([]*Ciphertext{ct}, []*Plaintext{{Value: pt.Value, Level: L, Scale: scale}}, []int64{1})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected a panic", name)
				}
			}()
			f()
		}()
	}
}
