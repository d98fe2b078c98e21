package ckksbig

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"cnnhe/internal/ckks"
)

type kit struct {
	ctx *Context
	enc *Encoder
	kg  *KeyGenerator
	sk  *SecretKey
	ept *Encryptor
	dec *Decryptor
	ev  *Evaluator
	L   int
}

func newKit(t testing.TB, rotations []int, conjugate bool) *kit {
	t.Helper()
	rp, err := ckks.TinyParameters()
	if err != nil {
		t.Fatal(err)
	}
	p, err := FromRNSParameters(rp)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	kg := NewKeyGenerator(ctx, 11)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinearizationKey(sk)
	var rtk *RotationKeySet
	if len(rotations) > 0 || conjugate {
		rtk = kg.GenRotationKeys(sk, rotations, conjugate)
	}
	return &kit{
		ctx: ctx,
		enc: NewEncoder(ctx),
		kg:  kg,
		sk:  sk,
		ept: NewEncryptor(ctx, pk, 22),
		dec: NewDecryptor(ctx, sk),
		ev:  NewEvaluator(ctx, rlk, rtk),
		L:   p.MaxLevel(),
	}
}

func randVec(rng *rand.Rand, n int, amp float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = (rng.Float64()*2 - 1) * amp
	}
	return out
}

func TestBaselineModulusMatchesRNS(t *testing.T) {
	rp, err := ckks.TinyParameters()
	if err != nil {
		t.Fatal(err)
	}
	p, err := FromRNSParameters(rp)
	if err != nil {
		t.Fatal(err)
	}
	if p.QAt(p.MaxLevel()).Cmp(rp.Chain.Q()) != 0 {
		t.Fatal("baseline Q must equal the RNS chain Q")
	}
	ctx, err := NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.P.BitLen() < p.QAt(p.MaxLevel()).BitLen() {
		t.Fatalf("log P (%d) must be at least log Q (%d)", ctx.P.BitLen(), p.QAt(p.MaxLevel()).BitLen())
	}
}

func TestBigEncryptDecrypt(t *testing.T) {
	k := newKit(t, nil, false)
	rng := rand.New(rand.NewSource(1))
	n := k.ctx.Params.Slots()
	vals := randVec(rng, n, 4)
	ct := k.ept.Encrypt(k.enc.Encode(vals, k.L, k.ctx.Params.Scale))
	got := k.enc.Decode(k.dec.DecryptNew(ct))
	for i := 0; i < n; i++ {
		if math.Abs(got[i]-vals[i]) > 1e-4 {
			t.Fatalf("encrypt/decrypt error at %d: %g vs %g", i, got[i], vals[i])
		}
	}
}

func TestBigAddSubPlain(t *testing.T) {
	k := newKit(t, nil, false)
	rng := rand.New(rand.NewSource(2))
	n := k.ctx.Params.Slots()
	a := randVec(rng, n, 2)
	b := randVec(rng, n, 2)
	scale := k.ctx.Params.Scale
	cta := k.ept.Encrypt(k.enc.Encode(a, k.L, scale))
	ctb := k.ept.Encrypt(k.enc.Encode(b, k.L, scale))
	sum := k.enc.Decode(k.dec.DecryptNew(k.ev.Add(cta, ctb)))
	diff := k.enc.Decode(k.dec.DecryptNew(k.ev.Sub(cta, ctb)))
	ap := k.enc.Decode(k.dec.DecryptNew(k.ev.AddPlain(cta, k.enc.Encode(b, k.L, scale))))
	for i := 0; i < n; i++ {
		if math.Abs(sum[i]-(a[i]+b[i])) > 1e-4 ||
			math.Abs(diff[i]-(a[i]-b[i])) > 1e-4 ||
			math.Abs(ap[i]-(a[i]+b[i])) > 1e-4 {
			t.Fatalf("add/sub/addplain error at %d", i)
		}
	}
}

func TestBigMulPlainRescale(t *testing.T) {
	k := newKit(t, nil, false)
	rng := rand.New(rand.NewSource(3))
	n := k.ctx.Params.Slots()
	a := randVec(rng, n, 2)
	b := randVec(rng, n, 2)
	scale := k.ctx.Params.Scale
	ct := k.ept.Encrypt(k.enc.Encode(a, k.L, scale))
	prod := k.ev.Rescale(k.ev.MulPlain(ct, k.enc.Encode(b, k.L, scale)))
	if prod.Level != k.L-1 {
		t.Fatal("rescale did not drop a level")
	}
	got := k.enc.Decode(k.dec.DecryptNew(prod))
	for i := 0; i < n; i++ {
		if math.Abs(got[i]-a[i]*b[i]) > 1e-3 {
			t.Fatalf("mulplain+rescale error at %d", i)
		}
	}
}

func TestBigMulRelinRescale(t *testing.T) {
	k := newKit(t, nil, false)
	rng := rand.New(rand.NewSource(4))
	n := k.ctx.Params.Slots()
	a := randVec(rng, n, 2)
	b := randVec(rng, n, 2)
	scale := k.ctx.Params.Scale
	cta := k.ept.Encrypt(k.enc.Encode(a, k.L, scale))
	ctb := k.ept.Encrypt(k.enc.Encode(b, k.L, scale))
	prod := k.ev.Rescale(k.ev.Mul(cta, ctb))
	got := k.enc.Decode(k.dec.DecryptNew(prod))
	for i := 0; i < n; i++ {
		if math.Abs(got[i]-a[i]*b[i]) > 1e-3 {
			t.Fatalf("mul error at %d: %g vs %g", i, got[i], a[i]*b[i])
		}
	}
}

func TestBigDepthChain(t *testing.T) {
	k := newKit(t, nil, false)
	n := k.ctx.Params.Slots()
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 1.1
	}
	ct := k.ept.Encrypt(k.enc.Encode(vals, k.L, k.ctx.Params.Scale))
	want := 1.1
	for d := 0; d < k.L; d++ {
		ct = k.ev.Rescale(k.ev.Square(ct))
		want *= want
	}
	got := k.enc.Decode(k.dec.DecryptNew(ct))
	if math.Abs(got[0]-want)/want > 1e-2 {
		t.Fatalf("depth-%d chain: got %g want %g", k.L, got[0], want)
	}
	if ct.Level != 0 {
		t.Fatalf("expected level 0, got %d", ct.Level)
	}
}

func TestBigRotateConjugate(t *testing.T) {
	k := newKit(t, []int{1, -2}, true)
	rng := rand.New(rand.NewSource(5))
	n := k.ctx.Params.Slots()
	a := randVec(rng, n, 2)
	ct := k.ept.Encrypt(k.enc.Encode(a, k.L, k.ctx.Params.Scale))
	for _, rot := range []int{1, -2} {
		got := k.enc.Decode(k.dec.DecryptNew(k.ev.Rotate(ct, rot)))
		for i := 0; i < n; i++ {
			want := a[((i+rot)%n+n)%n]
			if math.Abs(got[i]-want) > 1e-3 {
				t.Fatalf("rotate %d error at %d", rot, i)
			}
		}
	}
	got := k.enc.Decode(k.dec.DecryptNew(k.ev.Conjugate(ct)))
	for i := 0; i < n; i++ {
		if math.Abs(got[i]-a[i]) > 1e-3 {
			t.Fatalf("conjugate error at %d", i)
		}
	}
}

func TestBigRotateHoisted(t *testing.T) {
	k := newKit(t, []int{1, 4, -2}, false)
	rng := rand.New(rand.NewSource(15))
	n := k.ctx.Params.Slots()
	a := randVec(rng, n, 2)
	ct := k.ept.Encrypt(k.enc.Encode(a, k.L, k.ctx.Params.Scale))
	outs := k.ev.RotateHoisted(ct, []int{0, 1, 4, -2})
	for _, rot := range []int{0, 1, 4, -2} {
		got := k.enc.Decode(k.dec.DecryptNew(outs[rot]))
		for i := 0; i < n; i++ {
			want := a[((i+rot)%n+n)%n]
			if math.Abs(got[i]-want) > 1e-3 {
				t.Fatalf("hoisted rotate %d error at slot %d", rot, i)
			}
		}
	}
}

// TestBigRotateBySlotMultipleIsCopy mirrors the RNS backend's test: a
// rotation by a multiple of the slot count (Galois element 1) is an exact
// copy, standalone or hoisted, and gets no switching key.
func TestBigRotateBySlotMultipleIsCopy(t *testing.T) {
	k := newKit(t, []int{1}, false)
	slots := k.ctx.Params.Slots()
	if keys := k.kg.GenRotationKeys(k.sk, []int{0, slots, -slots, 3 * slots}, false).Keys; len(keys) != 0 {
		t.Fatalf("identity rotations generated %d keys, want 0", len(keys))
	}
	rng := rand.New(rand.NewSource(16))
	ct := k.ept.Encrypt(k.enc.Encode(randVec(rng, slots, 1), k.L, k.ctx.Params.Scale))
	for _, rot := range []int{0, slots, -slots, 2 * slots} {
		if !reflect.DeepEqual(k.ev.Rotate(ct, rot), ct) {
			t.Errorf("Rotate(%d) is not a copy", rot)
		}
		hoisted := k.ev.RotateHoisted(ct, []int{rot, 1})
		if !reflect.DeepEqual(hoisted[rot], ct) {
			t.Errorf("RotateHoisted(%d) is not a copy", rot)
		}
		if hoisted[1] == nil || reflect.DeepEqual(hoisted[1], ct) {
			t.Errorf("RotateHoisted(%d, 1) lost the real rotation", rot)
		}
	}
}

func TestBigRotateAtLowerLevel(t *testing.T) {
	// Rotation keys are stored at the top level and must reduce correctly
	// to any level.
	k := newKit(t, []int{3}, false)
	rng := rand.New(rand.NewSource(6))
	n := k.ctx.Params.Slots()
	a := randVec(rng, n, 2)
	ct := k.ept.Encrypt(k.enc.Encode(a, k.L, k.ctx.Params.Scale))
	ct = k.ev.DropLevel(ct, 2)
	got := k.enc.Decode(k.dec.DecryptNew(k.ev.Rotate(ct, 3)))
	for i := 0; i < n; i++ {
		want := a[(i+3)%n]
		if math.Abs(got[i]-want) > 1e-3 {
			t.Fatalf("low-level rotate error at %d", i)
		}
	}
}

func TestBigMulAddConstMulInt(t *testing.T) {
	k := newKit(t, nil, false)
	rng := rand.New(rand.NewSource(7))
	n := k.ctx.Params.Slots()
	a := randVec(rng, n, 2)
	ct := k.ept.Encrypt(k.enc.Encode(a, k.L, k.ctx.Params.Scale))
	sc := k.ev.Rescale(k.ev.MulConst(ct, 1.5, 0))
	got := k.enc.Decode(k.dec.DecryptNew(sc))
	for i := 0; i < n; i++ {
		if math.Abs(got[i]-1.5*a[i]) > 1e-3 {
			t.Fatalf("mulconst error at %d", i)
		}
	}
	sh := k.ev.AddConst(ct, -0.75)
	got = k.enc.Decode(k.dec.DecryptNew(sh))
	for i := 0; i < n; i++ {
		if math.Abs(got[i]-(a[i]-0.75)) > 1e-3 {
			t.Fatalf("addconst error at %d", i)
		}
	}
	mi := k.ev.MulInt(ct, -3)
	got = k.enc.Decode(k.dec.DecryptNew(mi))
	for i := 0; i < n; i++ {
		if math.Abs(got[i]-(-3*a[i])) > 1e-3 {
			t.Fatalf("mulint error at %d", i)
		}
	}
}

func TestBigDropLevel(t *testing.T) {
	k := newKit(t, nil, false)
	rng := rand.New(rand.NewSource(8))
	n := k.ctx.Params.Slots()
	a := randVec(rng, n, 2)
	ct := k.ept.Encrypt(k.enc.Encode(a, k.L, k.ctx.Params.Scale))
	d := k.ev.DropLevel(ct, 2)
	if d.Level != k.L-2 {
		t.Fatal("wrong level after drop")
	}
	got := k.enc.Decode(k.dec.DecryptNew(d))
	for i := 0; i < n; i++ {
		if math.Abs(got[i]-a[i]) > 1e-4 {
			t.Fatalf("droplevel changed values at %d", i)
		}
	}
}

func TestBigScaleMismatchPanics(t *testing.T) {
	k := newKit(t, nil, false)
	a := k.ept.Encrypt(k.enc.Encode([]float64{1}, k.L, k.ctx.Params.Scale))
	b := k.ept.Encrypt(k.enc.Encode([]float64{1}, k.L, k.ctx.Params.Scale*2))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on scale mismatch")
		}
	}()
	k.ev.Add(a, b)
}
