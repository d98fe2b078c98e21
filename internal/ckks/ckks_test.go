package ckks

import (
	"math"
	"math/rand"
	"testing"
)

type testKit struct {
	ctx *Context
	enc *Encoder
	kg  *KeyGenerator
	sk  *SecretKey
	pk  *PublicKey
	rlk *RelinearizationKey
	ept *Encryptor
	dec *Decryptor
	ev  *Evaluator
}

func newTestKit(t testing.TB, p Parameters, rotations []int, conjugate bool) *testKit {
	t.Helper()
	ctx, err := NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	kg := NewKeyGenerator(ctx, 1001)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinearizationKey(sk)
	var rtk *RotationKeySet
	if len(rotations) > 0 || conjugate {
		rtk = kg.GenRotationKeys(sk, rotations, conjugate)
	}
	return &testKit{
		ctx: ctx,
		enc: NewEncoder(ctx),
		kg:  kg,
		sk:  sk,
		pk:  pk,
		rlk: rlk,
		ept: NewEncryptor(ctx, pk, 2002),
		dec: NewDecryptor(ctx, sk),
		ev:  NewEvaluator(ctx, rlk, rtk),
	}
}

func tiny(t testing.TB) *testKit {
	p, err := TinyParameters()
	if err != nil {
		t.Fatal(err)
	}
	return newTestKit(t, p, nil, false)
}

func randVec(rng *rand.Rand, n int, amp float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = (rng.Float64()*2 - 1) * amp
	}
	return out
}

func maxErr(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if e := math.Abs(a[i] - b[i]); e > m {
			m = e
		}
	}
	return m
}

func TestEncodeDecode(t *testing.T) {
	k := tiny(t)
	rng := rand.New(rand.NewSource(1))
	vals := randVec(rng, k.ctx.Params.Slots(), 10)
	pt := k.enc.Encode(vals, k.ctx.Params.MaxLevel(), k.ctx.Params.Scale)
	got := k.enc.Decode(pt)
	if e := maxErr(vals, got[:len(vals)]); e > 1e-6 {
		t.Fatalf("encode/decode error %g", e)
	}
}

func TestEncryptDecryptPK(t *testing.T) {
	k := tiny(t)
	rng := rand.New(rand.NewSource(2))
	vals := randVec(rng, k.ctx.Params.Slots(), 5)
	pt := k.enc.Encode(vals, k.ctx.Params.MaxLevel(), k.ctx.Params.Scale)
	ct := k.ept.Encrypt(pt)
	got := k.enc.Decode(k.dec.DecryptNew(ct))
	if e := maxErr(vals, got[:len(vals)]); e > 1e-4 {
		t.Fatalf("pk encrypt/decrypt error %g", e)
	}
}

func TestEncryptDecryptSK(t *testing.T) {
	k := tiny(t)
	skEnc := NewSecretKeyEncryptor(k.ctx, k.sk, 77)
	rng := rand.New(rand.NewSource(3))
	vals := randVec(rng, k.ctx.Params.Slots(), 5)
	pt := k.enc.Encode(vals, k.ctx.Params.MaxLevel(), k.ctx.Params.Scale)
	ct := skEnc.Encrypt(pt)
	got := k.enc.Decode(k.dec.DecryptNew(ct))
	if e := maxErr(vals, got[:len(vals)]); e > 1e-4 {
		t.Fatalf("sk encrypt/decrypt error %g", e)
	}
}

func TestAddSubNeg(t *testing.T) {
	k := tiny(t)
	rng := rand.New(rand.NewSource(4))
	n := k.ctx.Params.Slots()
	a := randVec(rng, n, 3)
	b := randVec(rng, n, 3)
	L := k.ctx.Params.MaxLevel()
	cta := k.ept.Encrypt(k.enc.Encode(a, L, k.ctx.Params.Scale))
	ctb := k.ept.Encrypt(k.enc.Encode(b, L, k.ctx.Params.Scale))

	sum := k.enc.Decode(k.dec.DecryptNew(k.ev.Add(cta, ctb)))
	diff := k.enc.Decode(k.dec.DecryptNew(k.ev.Sub(cta, ctb)))
	neg := k.enc.Decode(k.dec.DecryptNew(k.ev.Neg(cta)))
	for i := 0; i < n; i++ {
		if math.Abs(sum[i]-(a[i]+b[i])) > 1e-4 {
			t.Fatalf("add error at %d", i)
		}
		if math.Abs(diff[i]-(a[i]-b[i])) > 1e-4 {
			t.Fatalf("sub error at %d", i)
		}
		if math.Abs(neg[i]+a[i]) > 1e-4 {
			t.Fatalf("neg error at %d", i)
		}
	}
}

func TestAddPlainMulPlain(t *testing.T) {
	k := tiny(t)
	rng := rand.New(rand.NewSource(5))
	n := k.ctx.Params.Slots()
	a := randVec(rng, n, 3)
	b := randVec(rng, n, 3)
	L := k.ctx.Params.MaxLevel()
	scale := k.ctx.Params.Scale
	ct := k.ept.Encrypt(k.enc.Encode(a, L, scale))
	ptAdd := k.enc.Encode(b, L, scale)
	got := k.enc.Decode(k.dec.DecryptNew(k.ev.AddPlain(ct, ptAdd)))
	for i := 0; i < n; i++ {
		if math.Abs(got[i]-(a[i]+b[i])) > 1e-4 {
			t.Fatalf("addplain error at %d", i)
		}
	}

	ptMul := k.enc.Encode(b, L, scale)
	prod := k.ev.MulPlain(ct, ptMul)
	prod = k.ev.Rescale(prod)
	got = k.enc.Decode(k.dec.DecryptNew(prod))
	for i := 0; i < n; i++ {
		if math.Abs(got[i]-a[i]*b[i]) > 1e-3 {
			t.Fatalf("mulplain error at %d: %g vs %g", i, got[i], a[i]*b[i])
		}
	}
	if prod.Level != L-1 {
		t.Fatalf("rescale did not drop level")
	}
}

func TestMulRelinRescale(t *testing.T) {
	k := tiny(t)
	rng := rand.New(rand.NewSource(6))
	n := k.ctx.Params.Slots()
	a := randVec(rng, n, 2)
	b := randVec(rng, n, 2)
	L := k.ctx.Params.MaxLevel()
	scale := k.ctx.Params.Scale
	cta := k.ept.Encrypt(k.enc.Encode(a, L, scale))
	ctb := k.ept.Encrypt(k.enc.Encode(b, L, scale))
	prod := k.ev.Rescale(k.ev.Mul(cta, ctb))
	got := k.enc.Decode(k.dec.DecryptNew(prod))
	for i := 0; i < n; i++ {
		if math.Abs(got[i]-a[i]*b[i]) > 1e-3 {
			t.Fatalf("mul error at %d: %g vs %g", i, got[i], a[i]*b[i])
		}
	}
}

func TestDepthChain(t *testing.T) {
	// Repeated squaring down to level 0: x^(2^d).
	k := tiny(t)
	L := k.ctx.Params.MaxLevel()
	scale := k.ctx.Params.Scale
	n := k.ctx.Params.Slots()
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 1.1
	}
	ct := k.ept.Encrypt(k.enc.Encode(vals, L, scale))
	want := 1.1
	for d := 0; d < L; d++ {
		ct = k.ev.Rescale(k.ev.Square(ct))
		want *= want
	}
	got := k.enc.Decode(k.dec.DecryptNew(ct))
	if math.Abs(got[0]-want)/want > 1e-2 {
		t.Fatalf("depth-%d chain: got %g want %g", L, got[0], want)
	}
	if ct.Level != 0 {
		t.Fatalf("expected level 0, got %d", ct.Level)
	}
}

func TestMulConstAddConst(t *testing.T) {
	k := tiny(t)
	rng := rand.New(rand.NewSource(7))
	n := k.ctx.Params.Slots()
	a := randVec(rng, n, 2)
	L := k.ctx.Params.MaxLevel()
	ct := k.ept.Encrypt(k.enc.Encode(a, L, k.ctx.Params.Scale))

	scaled := k.ev.Rescale(k.ev.MulConst(ct, -2.5, 0))
	got := k.enc.Decode(k.dec.DecryptNew(scaled))
	for i := 0; i < n; i++ {
		if math.Abs(got[i]-(-2.5*a[i])) > 1e-3 {
			t.Fatalf("mulconst error at %d", i)
		}
	}
	if !scaleClose(scaled.Scale, ct.Scale) {
		t.Fatalf("mulconst+rescale should restore scale: %g vs %g", scaled.Scale, ct.Scale)
	}

	shifted := k.ev.AddConst(ct, 3.25)
	got = k.enc.Decode(k.dec.DecryptNew(shifted))
	for i := 0; i < n; i++ {
		if math.Abs(got[i]-(a[i]+3.25)) > 1e-3 {
			t.Fatalf("addconst error at %d", i)
		}
	}
}

func TestRotateAndConjugate(t *testing.T) {
	p, err := TinyParameters()
	if err != nil {
		t.Fatal(err)
	}
	k := newTestKit(t, p, []int{1, 2, -3, 100}, true)
	rng := rand.New(rand.NewSource(8))
	n := k.ctx.Params.Slots()
	a := randVec(rng, n, 3)
	L := k.ctx.Params.MaxLevel()
	ct := k.ept.Encrypt(k.enc.Encode(a, L, k.ctx.Params.Scale))

	for _, rot := range []int{1, 2, -3, 100} {
		got := k.enc.Decode(k.dec.DecryptNew(k.ev.Rotate(ct, rot)))
		for i := 0; i < n; i++ {
			want := a[((i+rot)%n+n)%n]
			if math.Abs(got[i]-want) > 1e-3 {
				t.Fatalf("rotate %d: slot %d got %g want %g", rot, i, got[i], want)
			}
		}
	}
	got := k.enc.Decode(k.dec.DecryptNew(k.ev.Conjugate(ct)))
	for i := 0; i < n; i++ {
		if math.Abs(got[i]-a[i]) > 1e-3 {
			t.Fatalf("conjugate of real vector should be identity at %d", i)
		}
	}
}

func TestRotateZeroAndHoisted(t *testing.T) {
	p, err := TinyParameters()
	if err != nil {
		t.Fatal(err)
	}
	k := newTestKit(t, p, []int{1, 5}, false)
	rng := rand.New(rand.NewSource(9))
	n := k.ctx.Params.Slots()
	a := randVec(rng, n, 1)
	ct := k.ept.Encrypt(k.enc.Encode(a, k.ctx.Params.MaxLevel(), k.ctx.Params.Scale))
	z := k.ev.Rotate(ct, 0)
	got := k.enc.Decode(k.dec.DecryptNew(z))
	if e := maxErr(a, got[:n]); e > 1e-4 {
		t.Fatalf("rotate 0 should be identity, err %g", e)
	}
	rs := k.ev.RotateHoisted(ct, []int{1, 5})
	for _, rot := range []int{1, 5} {
		got := k.enc.Decode(k.dec.DecryptNew(rs[rot]))
		for i := 0; i < n; i++ {
			want := a[(i+rot)%n]
			if math.Abs(got[i]-want) > 1e-3 {
				t.Fatalf("hoisted rotate %d mismatch", rot)
			}
		}
	}
}

// TestRotateBySlotMultipleIsCopy: a rotation by a multiple of the slot
// count has Galois element 1, the identity. It must return an exact copy —
// standalone or hoisted, with only an unrelated key present — and key
// generation must not build a switching key for it.
func TestRotateBySlotMultipleIsCopy(t *testing.T) {
	p, err := TinyParameters()
	if err != nil {
		t.Fatal(err)
	}
	k := newTestKit(t, p, []int{1}, false)
	slots := k.ctx.Params.Slots()
	if keys := k.kg.GenRotationKeys(k.sk, []int{0, slots, -slots, 3 * slots}, false).Keys; len(keys) != 0 {
		t.Fatalf("identity rotations generated %d keys, want 0", len(keys))
	}
	rng := rand.New(rand.NewSource(14))
	ct := k.ept.Encrypt(k.enc.Encode(randVec(rng, slots, 1), k.ctx.Params.MaxLevel(), k.ctx.Params.Scale))
	r := k.ctx.R
	limbs := r.Limbs(ct.Level, false)
	same := func(got *Ciphertext) bool {
		return got.Level == ct.Level && got.Scale == ct.Scale &&
			r.Equal(limbs, got.C0, ct.C0) && r.Equal(limbs, got.C1, ct.C1)
	}
	for _, rot := range []int{0, slots, -slots, 2 * slots} {
		if !same(k.ev.Rotate(ct, rot)) {
			t.Errorf("Rotate(%d) is not a copy", rot)
		}
		hoisted := k.ev.RotateHoisted(ct, []int{rot, 1})
		if !same(hoisted[rot]) {
			t.Errorf("RotateHoisted(%d) is not a copy", rot)
		}
		if hoisted[1] == nil || same(hoisted[1]) {
			t.Errorf("RotateHoisted(%d, 1) lost the real rotation", rot)
		}
	}
}

func TestScaleMismatchPanics(t *testing.T) {
	k := tiny(t)
	L := k.ctx.Params.MaxLevel()
	a := k.ept.Encrypt(k.enc.Encode([]float64{1}, L, k.ctx.Params.Scale))
	b := k.ept.Encrypt(k.enc.Encode([]float64{1}, L, k.ctx.Params.Scale*2))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on scale mismatch")
		}
	}()
	k.ev.Add(a, b)
}

func TestLevelMismatchPanics(t *testing.T) {
	k := tiny(t)
	L := k.ctx.Params.MaxLevel()
	a := k.ept.Encrypt(k.enc.Encode([]float64{1}, L, k.ctx.Params.Scale))
	b := k.ev.DropLevel(a, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on level mismatch")
		}
	}()
	k.ev.Add(a, b)
}

func TestDropLevel(t *testing.T) {
	k := tiny(t)
	rng := rand.New(rand.NewSource(10))
	n := k.ctx.Params.Slots()
	a := randVec(rng, n, 2)
	L := k.ctx.Params.MaxLevel()
	ct := k.ept.Encrypt(k.enc.Encode(a, L, k.ctx.Params.Scale))
	dropped := k.ev.DropLevel(ct, 2)
	if dropped.Level != L-2 {
		t.Fatalf("level %d want %d", dropped.Level, L-2)
	}
	got := k.enc.Decode(k.dec.DecryptNew(dropped))
	if e := maxErr(a, got[:n]); e > 1e-4 {
		t.Fatalf("droplevel changed values, err %g", e)
	}
}

func TestWideLimbChainMul(t *testing.T) {
	// Moduli-sweep configuration with wide (80-bit) limbs: the mult and
	// keyswitch paths must be correct on the wide backend too. Evaluation
	// is rescale-free (scale-growth mode), as in the paper's sweep where
	// chains as short as k=1..3 evaluate deep networks: with Δ=2^40 and
	// 80-bit primes a rescale would collapse the scale below 1.
	p, err := SweepParameters(9, 240, 3, math.Exp2(40))
	if err != nil {
		t.Fatal(err)
	}
	k := newTestKit(t, p, nil, false)
	rng := rand.New(rand.NewSource(11))
	n := k.ctx.Params.Slots()
	a := randVec(rng, n, 2)
	b := randVec(rng, n, 2)
	L := k.ctx.Params.MaxLevel()
	cta := k.ept.Encrypt(k.enc.Encode(a, L, k.ctx.Params.Scale))
	ctb := k.ept.Encrypt(k.enc.Encode(b, L, k.ctx.Params.Scale))
	prod := k.ev.Mul(cta, ctb) // no rescale: scale is now Δ² = 2^80
	if math.Abs(math.Log2(prod.Scale)-80) > 1e-9 {
		t.Fatalf("scale should be 2^80, got 2^%f", math.Log2(prod.Scale))
	}
	got := k.enc.Decode(k.dec.DecryptNew(prod))
	for i := 0; i < n; i++ {
		if math.Abs(got[i]-a[i]*b[i]) > 1e-3 {
			t.Fatalf("wide-chain mul error at %d: %g vs %g", i, got[i], a[i]*b[i])
		}
	}
}

func TestWideLimbRotation(t *testing.T) {
	p, err := SweepParameters(9, 240, 3, math.Exp2(40))
	if err != nil {
		t.Fatal(err)
	}
	k := newTestKit(t, p, []int{1, 7}, false)
	rng := rand.New(rand.NewSource(13))
	n := k.ctx.Params.Slots()
	a := randVec(rng, n, 2)
	L := k.ctx.Params.MaxLevel()
	ct := k.ept.Encrypt(k.enc.Encode(a, L, k.ctx.Params.Scale))
	for _, rot := range []int{1, 7} {
		got := k.enc.Decode(k.dec.DecryptNew(k.ev.Rotate(ct, rot)))
		for i := 0; i < n; i++ {
			want := a[(i+rot)%n]
			if math.Abs(got[i]-want) > 1e-3 {
				t.Fatalf("wide rotate %d mismatch at slot %d", rot, i)
			}
		}
	}
}

func TestParallelEvaluationMatches(t *testing.T) {
	p, err := TinyParameters()
	if err != nil {
		t.Fatal(err)
	}
	k := newTestKit(t, p, nil, false)
	rng := rand.New(rand.NewSource(12))
	n := k.ctx.Params.Slots()
	a := randVec(rng, n, 2)
	b := randVec(rng, n, 2)
	L := k.ctx.Params.MaxLevel()
	cta := k.ept.Encrypt(k.enc.Encode(a, L, k.ctx.Params.Scale))
	ctb := k.ept.Encrypt(k.enc.Encode(b, L, k.ctx.Params.Scale))

	seq := k.ev.Rescale(k.ev.Mul(cta, ctb))
	k.ctx.SetParallel(true)
	par := k.ev.Rescale(k.ev.Mul(cta, ctb))
	k.ctx.SetParallel(false)

	r := k.ctx.R
	limbs := r.Limbs(seq.Level, false)
	if !r.Equal(limbs, seq.C0, par.C0) || !r.Equal(limbs, seq.C1, par.C1) {
		t.Fatal("parallel evaluation differs from sequential")
	}
}

func TestPaperParametersShape(t *testing.T) {
	p, err := PaperParameters()
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 1<<14 {
		t.Fatalf("N = %d", p.N())
	}
	// 12 ciphertext primes [40, 26×11] plus the 40-bit key-switching prime:
	// 13 primes, 366 bits — the paper's q list in SEAL convention.
	if p.MaxLevel() != 11 {
		t.Fatalf("max level %d want 11 (12 ciphertext primes)", p.MaxLevel())
	}
	if got := len(p.Chain.Moduli); got != 13 {
		t.Fatalf("total primes = %d want 13", got)
	}
	if got := p.LogQP(); got != 366 {
		t.Fatalf("log qP = %d want 366 (Table II)", got)
	}
	if p.Scale != math.Exp2(26) {
		t.Fatalf("scale %g", p.Scale)
	}
}
