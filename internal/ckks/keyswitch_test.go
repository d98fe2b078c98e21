package ckks

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"cnnhe/internal/ring"
)

// ctDigest is the SHA-256 of the wire encodings of cts, in order.
func ctDigest(t testing.TB, ctx *Context, cts ...*Ciphertext) string {
	t.Helper()
	h := sha256.New()
	for _, ct := range cts {
		var b bytes.Buffer
		if err := ctx.WriteCiphertext(&b, ct); err != nil {
			t.Fatal(err)
		}
		h.Write(b.Bytes())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestKeySwitchRescaleDigests pins the exact ciphertext bits of Rescale and
// of every key-switching operation on two chains: the word chain of
// TinyParameters (one special prime) and the Table IV/VI sweep split of
// 366 bits into three 122-bit limbs, whose two wide special primes make
// ModDown divide twice. The digests were recorded from the
// coefficient-domain ModDown and Rescale (inverse-transform every limb,
// divide, transform back); any reorganisation of the key switch or the
// rescale must reproduce them bit for bit.
func TestKeySwitchRescaleDigests(t *testing.T) {
	tinyParams, err := TinyParameters()
	if err != nil {
		t.Fatal(err)
	}
	wideParams, err := SweepParameters(10, 366, 3, math.Exp2(30))
	if err != nil {
		t.Fatal(err)
	}
	if wideParams.Chain.SpecialCount != 2 {
		t.Fatalf("sweep chain has %d special primes, want 2", wideParams.Chain.SpecialCount)
	}
	rots := []int{1, 5, -3}
	for _, leg := range []struct {
		name   string
		params Parameters
		ops    func(k *testKit, ct *Ciphertext) map[string][]*Ciphertext
		want   map[string]string
	}{
		{
			name:   "word",
			params: tinyParams,
			ops: func(k *testKit, ct *Ciphertext) map[string][]*Ciphertext {
				prod := k.ev.Mul(ct, ct)
				return map[string][]*Ciphertext{
					"rescale top level":   {k.ev.Rescale(prod)},
					"rescale lower level": {k.ev.Rescale(k.ev.DropLevel(prod, 2))},
				}
			},
			want: map[string]string{
				"rescale top level":   "b4ed2464a43631959a7ad31267e3fe8cc8e374b8f7c1d96d9bff67bdf29b1a6e",
				"rescale lower level": "76e5a3edfabe60c3e9033b7fc9e601bb287bdcfdd3d4a6f69c4c9b7386c883c3",
			},
		},
		{
			name:   "wide-two-special",
			params: wideParams,
			ops: func(k *testKit, ct *Ciphertext) map[string][]*Ciphertext {
				prod := k.ev.Mul(ct, ct)
				hoisted := k.ev.RotateHoisted(ct, rots)
				low := k.ev.DropLevel(ct, 1)
				return map[string][]*Ciphertext{
					"mul":                  {prod},
					"rescale":              {k.ev.Rescale(prod)},
					"rotate":               {k.ev.Rotate(ct, 1), k.ev.Rotate(ct, -3)},
					"rotate hoisted":       {hoisted[1], hoisted[5], hoisted[-3]},
					"dropped-level rotate": {k.ev.Rotate(low, 5), k.ev.RotateHoisted(low, []int{1})[1]},
				}
			},
			want: map[string]string{
				"mul":                  "676ef19f0ffdc9c5a97eb1dd0b88c8b9944df40b68ba551dd532cd6a626b2205",
				"rescale":              "5ae07f1fe39b9ea7744be5ff27acbcccdcdd2e978d62d43b7fd018c2d56d048a",
				"rotate":               "fe8a6ebd8ed6c21d5e63b3f82b371576dc3c47717b7ac039c95183b12f44f678",
				"rotate hoisted":       "ba4ebb9f619fae6ce1d1b7bc05b2a00d852ec81dc8b11d84874a58af9a9ad6c2",
				"dropped-level rotate": "11660089685d76aeda69ba180e0a6dc91486453c5f9a52c931a293cabe765ca6",
			},
		},
	} {
		t.Run(leg.name, func(t *testing.T) {
			k := newTestKit(t, leg.params, rots, false)
			rng := rand.New(rand.NewSource(21))
			vals := randVec(rng, k.ctx.Params.Slots(), 1)
			ct := k.ept.Encrypt(k.enc.Encode(vals, k.ctx.Params.MaxLevel(), k.ctx.Params.Scale))
			got := leg.ops(k, ct)
			for name, want := range leg.want {
				if d := ctDigest(t, k.ctx, got[name]...); d != want {
					t.Errorf("%s: digest %s, want %s", name, d, want)
				}
			}
		})
	}
}

// countingSubRing counts the limb transforms that pass through one limb
// of a ring. It hides the concrete limb type, so ring.InnerProduct takes
// its eager path: slower, bit-identical, and transform-free either way.
type countingSubRing struct {
	ring.SubRing
	ntt, intt *atomic.Int64
}

func (c countingSubRing) NTT(a []uint64)  { c.ntt.Add(1); c.SubRing.NTT(a) }
func (c countingSubRing) INTT(a []uint64) { c.intt.Add(1); c.SubRing.INTT(a) }

// ReduceFrom unwraps a counting source: the limb backends dispatch on the
// source's concrete type.
func (c countingSubRing) ReduceFrom(src ring.SubRing, a, out []uint64) {
	if s, ok := src.(countingSubRing); ok {
		src = s.SubRing
	}
	c.SubRing.ReduceFrom(src, a, out)
}

// TestKeySwitchTransformCounts pins how many limb NTTs and INTTs each
// key-switching operation and Rescale performs, at n = level+1 ciphertext
// limbs, d digits live at the level and one special prime. Counts repeat
// exactly, so they gate "fewer transforms" where wall time cannot: only
// the limb divided out of a ModDown or Rescale and the coefficient form of
// the digit raise leave the NTT domain, and a digit's own limbs are
// copied, not re-transformed. TinyParameters has one limb per digit
// (d = n); the paper chain k = 13 groups limb pairs (d = 8 at the top).
func TestKeySwitchTransformCounts(t *testing.T) {
	tinyParams, err := TinyParameters()
	if err != nil {
		t.Fatal(err)
	}
	hoist8 := []int{1, 2, 3, 4, 5, 6, 7, 8}
	type row struct {
		name   string
		level  int
		op     func(k *testKit, ct *Ciphertext)
		nttOf  func(n, d int) int
		inttOf func(n int) int
	}
	rotate := func(k *testKit, ct *Ciphertext) { k.ev.Rotate(ct, 1) }
	mul := func(k *testKit, ct *Ciphertext) { k.ev.Mul(ct, ct) }
	hoisted := func(m int) func(k *testKit, ct *Ciphertext) {
		return func(k *testKit, ct *Ciphertext) { k.ev.RotateHoisted(ct, hoist8[:m]) }
	}
	rescale := func(k *testKit, ct *Ciphertext) { k.ev.Rescale(ct) }
	tinyTop := tinyParams.MaxLevel()
	for _, leg := range []struct {
		name   string
		params Parameters
		rows   []row
	}{
		{"tiny", tinyParams, []row{
			{"Rotate", tinyTop, rotate,
				func(n, _ int) int { return n*n + 2*n }, func(n int) int { return n + 2 }},
			{"Rotate", tinyTop - 2, rotate,
				func(n, _ int) int { return n*n + 2*n }, func(n int) int { return n + 2 }},
			{"Mul", tinyTop, mul,
				func(n, _ int) int { return n*n + 2*n }, func(n int) int { return n + 2 }},
			{"RotateHoisted/m=1", tinyTop, hoisted(1),
				func(n, _ int) int { return n*n + 2*n }, func(n int) int { return n + 2 }},
			{"RotateHoisted/m=8", tinyTop, hoisted(8),
				func(n, _ int) int { return n*n + 16*n }, func(n int) int { return n + 16 }},
			{"Rescale", tinyTop, rescale,
				func(n, _ int) int { return 2 * (n - 1) }, func(int) int { return 2 }},
			{"Rescale", 1, rescale,
				func(n, _ int) int { return 2 * (n - 1) }, func(int) int { return 2 }},
		}},
		// Top level: n = 13, d = 8 — 125 NTTs per rotation where one limb
		// per digit took n²+2n = 195. Level 5 cuts the digit [5, 7) to [5, 6).
		{"paper k=13", paperChainParams(t, 10, 13), []row{
			{"Rotate", 12, rotate,
				func(n, d int) int { return d*(n+1) + n }, func(n int) int { return n + 2 }},
			{"Rotate", 6, rotate,
				func(n, d int) int { return d*(n+1) + n }, func(n int) int { return n + 2 }},
			{"Rotate", 5, rotate,
				func(n, d int) int { return d*(n+1) + n }, func(n int) int { return n + 2 }},
			{"Mul", 12, mul,
				func(n, d int) int { return d*(n+1) + n }, func(n int) int { return n + 2 }},
			{"RotateHoisted/m=1", 12, hoisted(1),
				func(n, d int) int { return d*(n+1) - n + 2*n }, func(n int) int { return n + 2 }},
			{"RotateHoisted/m=8", 12, hoisted(8),
				func(n, d int) int { return d*(n+1) - n + 16*n }, func(n int) int { return n + 16 }},
			{"RotateHoisted/m=8", 3, hoisted(8),
				func(n, d int) int { return d*(n+1) - n + 16*n }, func(n int) int { return n + 16 }},
		}},
	} {
		t.Run(leg.name, func(t *testing.T) {
			k := newTestKit(t, leg.params, hoist8, false)
			if k.ctx.R.Special != 1 {
				t.Fatalf("formulas assume one special prime, chain has %d", k.ctx.R.Special)
			}
			var ntt, intt atomic.Int64
			for i, sr := range k.ctx.R.SubRings {
				k.ctx.R.SubRings[i] = countingSubRing{SubRing: sr, ntt: &ntt, intt: &intt}
			}
			rng := rand.New(rand.NewSource(31))
			top := k.ctx.Params.MaxLevel()
			fresh := k.ept.Encrypt(k.enc.Encode(randVec(rng, k.ctx.Params.Slots(), 1), top, k.ctx.Params.Scale))
			for _, tc := range leg.rows {
				ct := k.ev.DropLevel(fresh, top-tc.level)
				n, d := tc.level+1, len(k.ctx.Params.Digits(tc.level))
				ntt.Store(0)
				intt.Store(0)
				tc.op(k, ct)
				if got, want := int(ntt.Load()), tc.nttOf(n, d); got != want {
					t.Errorf("%s at n=%d, d=%d: %d limb NTTs, want %d", tc.name, n, d, got, want)
				}
				if got, want := int(intt.Load()), tc.inttOf(n); got != want {
					t.Errorf("%s at n=%d, d=%d: %d limb INTTs, want %d", tc.name, n, d, got, want)
				}
			}
		})
	}
}
