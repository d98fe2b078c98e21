package ckks

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// keyedKit is tiny() plus rotation keys, for exercising the key-material
// wire format functionally.
func keyedKit(t testing.TB, rotations []int) *testKit {
	t.Helper()
	p, err := TinyParameters()
	if err != nil {
		t.Fatal(err)
	}
	return newTestKit(t, p, rotations, false)
}

func TestRelinearizationKeyRoundTrip(t *testing.T) {
	k := tiny(t)
	var buf bytes.Buffer
	if err := k.ctx.WriteRelinearizationKey(&buf, k.rlk); err != nil {
		t.Fatal(err)
	}
	rlk2, err := k.ctx.ReadRelinearizationKey(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// The deserialized key must actually relinearize: square a ciphertext
	// with an evaluator holding only the round-tripped key.
	ev2 := NewEvaluator(k.ctx, rlk2, nil)
	rng := rand.New(rand.NewSource(5))
	vals := randVec(rng, k.ctx.Params.Slots(), 2)
	ct := k.ept.Encrypt(k.enc.Encode(vals, k.ctx.Params.MaxLevel(), k.ctx.Params.Scale))
	sq := ev2.Rescale(ev2.Mul(ct, ct))
	got := k.enc.Decode(k.dec.DecryptNew(sq))
	for i := range vals {
		if math.Abs(got[i]-vals[i]*vals[i]) > 1e-2 {
			t.Fatalf("square wrong at %d: got %g want %g", i, got[i], vals[i]*vals[i])
		}
	}
}

func TestRotationKeySetRoundTrip(t *testing.T) {
	k := keyedKit(t, []int{1, -3, 7})
	rtk := k.kg.GenRotationKeys(k.sk, []int{1, -3, 7}, false)
	var buf bytes.Buffer
	if err := k.ctx.WriteRotationKeySet(&buf, rtk); err != nil {
		t.Fatal(err)
	}
	rtk2, err := k.ctx.ReadRotationKeySet(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(rtk2.Keys) != len(rtk.Keys) {
		t.Fatalf("key count: got %d want %d", len(rtk2.Keys), len(rtk.Keys))
	}
	ev2 := NewEvaluator(k.ctx, k.rlk, rtk2)
	rng := rand.New(rand.NewSource(6))
	n := k.ctx.Params.Slots()
	vals := randVec(rng, n, 2)
	ct := k.ept.Encrypt(k.enc.Encode(vals, k.ctx.Params.MaxLevel(), k.ctx.Params.Scale))
	got := k.enc.Decode(k.dec.DecryptNew(ev2.Rotate(ct, 7)))
	for i := 0; i < n; i++ {
		if math.Abs(got[i]-vals[(i+7)%n]) > 1e-2 {
			t.Fatalf("rotation wrong at slot %d", i)
		}
	}
}

// TestRotationKeySetDeterministicBytes pins the property the content
// fingerprint relies on: serializing the same set twice — and a set with
// identical contents built in a different map insertion order — yields
// identical bytes.
func TestRotationKeySetDeterministicBytes(t *testing.T) {
	k := keyedKit(t, nil)
	rtk := k.kg.GenRotationKeys(k.sk, []int{1, 2, 4, -1}, true)
	var a, b bytes.Buffer
	if err := k.ctx.WriteRotationKeySet(&a, rtk); err != nil {
		t.Fatal(err)
	}
	reordered := &RotationKeySet{Keys: map[uint64]*SwitchingKey{}}
	els := make([]uint64, 0, len(rtk.Keys))
	for g := range rtk.Keys {
		els = append(els, g)
	}
	for i := len(els) - 1; i >= 0; i-- {
		reordered.Keys[els[i]] = rtk.Keys[els[i]]
	}
	if err := k.ctx.WriteRotationKeySet(&b, reordered); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("rotation key set serialization depends on map order")
	}
}

func TestSecretKeyRoundTrip(t *testing.T) {
	k := tiny(t)
	var buf bytes.Buffer
	if err := k.ctx.WriteSecretKey(&buf, k.sk); err != nil {
		t.Fatal(err)
	}
	sk2, err := k.ctx.ReadSecretKey(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// The rebuilt NTT-domain polynomial must decrypt ciphertexts made
	// under the original key.
	rng := rand.New(rand.NewSource(7))
	vals := randVec(rng, k.ctx.Params.Slots(), 3)
	ct := k.ept.Encrypt(k.enc.Encode(vals, k.ctx.Params.MaxLevel(), k.ctx.Params.Scale))
	got := k.enc.Decode(NewDecryptor(k.ctx, sk2).DecryptNew(ct))
	for i := range vals {
		if math.Abs(got[i]-vals[i]) > 1e-3 {
			t.Fatalf("deserialized sk decrypts wrong at %d", i)
		}
	}
}

func TestSecretKeyRejectsNonTernary(t *testing.T) {
	k := tiny(t)
	var buf bytes.Buffer
	if err := k.ctx.WriteSecretKey(&buf, k.sk); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Overwrite the first coefficient word (offset 2 header + 8 length)
	// with 2 — outside {-1,0,1}.
	raw[10] = 2
	for i := 11; i < 18; i++ {
		raw[i] = 0
	}
	_, err := k.ctx.ReadSecretKey(bytes.NewReader(raw))
	if !errors.Is(err, ErrFormat) && !errors.Is(err, ErrChecksum) {
		t.Fatalf("want ErrFormat or ErrChecksum, got %v", err)
	}
}

func TestKeyBundleRoundTripAndFingerprint(t *testing.T) {
	k := keyedKit(t, []int{1, 5})
	rtk := k.kg.GenRotationKeys(k.sk, []int{1, 5}, false)
	bundle := &KeyBundle{
		ParamsDigest: k.ctx.Params.ParamsDigest(),
		PK:           k.pk,
		RLK:          k.rlk,
		RTK:          rtk,
	}
	var a, b bytes.Buffer
	if err := k.ctx.WriteKeyBundle(&a, bundle); err != nil {
		t.Fatal(err)
	}
	back, err := k.ctx.ReadKeyBundle(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.ParamsDigest != bundle.ParamsDigest {
		t.Fatal("params digest did not round-trip")
	}
	if len(back.RTK.Keys) != 2 {
		t.Fatalf("rotation keys: got %d want 2", len(back.RTK.Keys))
	}
	// Fingerprint stability: re-serializing the deserialized bundle must
	// reproduce the exact bytes, hence the same content fingerprint.
	if err := k.ctx.WriteKeyBundle(&b, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("bundle bytes not stable across a marshal round trip")
	}
	if BundleFingerprint(a.Bytes()) != BundleFingerprint(b.Bytes()) {
		t.Fatal("bundle fingerprint not stable")
	}
	// And the functional check: keys from the wire evaluate correctly.
	ev2 := NewEvaluator(k.ctx, back.RLK, back.RTK)
	rng := rand.New(rand.NewSource(8))
	n := k.ctx.Params.Slots()
	vals := randVec(rng, n, 2)
	enc2 := NewEncryptor(k.ctx, back.PK, 31)
	ct := enc2.Encrypt(k.enc.Encode(vals, k.ctx.Params.MaxLevel(), k.ctx.Params.Scale))
	got := k.enc.Decode(k.dec.DecryptNew(ev2.Rotate(ct, 5)))
	for i := 0; i < n; i++ {
		if math.Abs(got[i]-vals[(i+5)%n]) > 1e-2 {
			t.Fatalf("wire bundle rotate wrong at slot %d", i)
		}
	}
}

func TestKeyBundleWriteRequiresAllKeys(t *testing.T) {
	k := tiny(t)
	var buf bytes.Buffer
	err := k.ctx.WriteKeyBundle(&buf, &KeyBundle{PK: k.pk, RLK: k.rlk})
	if err == nil {
		t.Fatal("bundle without rotation keys should be rejected")
	}
}

func TestKeyFramesRejectCorruption(t *testing.T) {
	k := keyedKit(t, []int{1})
	rtk := k.kg.GenRotationKeys(k.sk, []int{1}, false)
	bundle := &KeyBundle{ParamsDigest: k.ctx.Params.ParamsDigest(), PK: k.pk, RLK: k.rlk, RTK: rtk}

	type frame struct {
		name  string
		bytes []byte
		read  func([]byte) error
	}
	var frames []frame
	{
		var buf bytes.Buffer
		if err := k.ctx.WriteRelinearizationKey(&buf, k.rlk); err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame{"relin", buf.Bytes(), func(b []byte) error {
			_, err := k.ctx.ReadRelinearizationKey(bytes.NewReader(b))
			return err
		}})
	}
	{
		var buf bytes.Buffer
		if err := k.ctx.WriteRotationKeySet(&buf, rtk); err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame{"rotset", buf.Bytes(), func(b []byte) error {
			_, err := k.ctx.ReadRotationKeySet(bytes.NewReader(b))
			return err
		}})
	}
	{
		var buf bytes.Buffer
		if err := k.ctx.WriteSecretKey(&buf, k.sk); err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame{"secret", buf.Bytes(), func(b []byte) error {
			_, err := k.ctx.ReadSecretKey(bytes.NewReader(b))
			return err
		}})
	}
	{
		var buf bytes.Buffer
		if err := k.ctx.WriteKeyBundle(&buf, bundle); err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame{"bundle", buf.Bytes(), func(b []byte) error {
			_, err := k.ctx.ReadKeyBundle(bytes.NewReader(b))
			return err
		}})
	}

	for _, f := range frames {
		t.Run(f.name, func(t *testing.T) {
			if err := f.read(f.bytes); err != nil {
				t.Fatalf("clean frame rejected: %v", err)
			}
			// Truncation at several depths.
			for _, cut := range []int{1, 3, len(f.bytes) / 2, len(f.bytes) - 1} {
				err := f.read(f.bytes[:cut])
				if !errors.Is(err, ErrFormat) && !errors.Is(err, ErrChecksum) {
					t.Fatalf("truncated at %d: want typed error, got %v", cut, err)
				}
			}
			// Bit flip mid-payload must trip a checksum (inner or outer)
			// or structural validation.
			flipped := append([]byte(nil), f.bytes...)
			flipped[len(flipped)/2] ^= 0x10
			err := f.read(flipped)
			if !errors.Is(err, ErrFormat) && !errors.Is(err, ErrChecksum) {
				t.Fatalf("bit flip: want typed error, got %v", err)
			}
			// Wrong leading tag.
			wrongTag := append([]byte(nil), f.bytes...)
			wrongTag[0] ^= 0xFF
			if err := f.read(wrongTag); !errors.Is(err, ErrFormat) {
				t.Fatalf("wrong tag: want ErrFormat, got %v", err)
			}
		})
	}
}

func TestRotationKeySetMerge(t *testing.T) {
	k := keyedKit(t, nil)
	gen := func(rots ...int) *RotationKeySet {
		return k.kg.GenRotationKeys(k.sk, rots, false)
	}

	t.Run("disjoint", func(t *testing.T) {
		a, b := gen(1, 2), gen(4, 8)
		a.Merge(b)
		if len(a.Keys) != 4 {
			t.Fatalf("got %d keys, want 4", len(a.Keys))
		}
	})
	t.Run("overlapping keeps later", func(t *testing.T) {
		a, b := gen(1, 2), gen(2, 4)
		want := b.Keys[galoisFor(k, 2)]
		a.Merge(b)
		if len(a.Keys) != 3 {
			t.Fatalf("got %d keys, want 3", len(a.Keys))
		}
		if a.Keys[galoisFor(k, 2)] != want {
			t.Fatal("overlap did not take the merged-in key")
		}
	})
	t.Run("nil receiver", func(t *testing.T) {
		var a *RotationKeySet
		a.Merge(gen(1)) // must not panic
	})
	t.Run("nil other", func(t *testing.T) {
		a := gen(1)
		a.Merge(nil)
		if len(a.Keys) != 1 {
			t.Fatal("nil other modified the set")
		}
	})
	t.Run("nil keys map", func(t *testing.T) {
		a := &RotationKeySet{}
		a.Merge(gen(1, 2))
		if len(a.Keys) != 2 {
			t.Fatalf("got %d keys, want 2", len(a.Keys))
		}
	})
}

func galoisFor(k *testKit, rot int) uint64 {
	for g := range k.kg.GenRotationKeys(k.sk, []int{rot}, false).Keys {
		return g
	}
	return 0
}

func TestParamsFingerprint(t *testing.T) {
	p1, err := TinyParameters()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := TinyParameters()
	if err != nil {
		t.Fatal(err)
	}
	if p1.Fingerprint() != p2.Fingerprint() {
		t.Fatal("identical parameters produced different fingerprints")
	}
	p3 := p2
	p3.Scale *= 2
	if p1.Fingerprint() == p3.Fingerprint() {
		t.Fatal("different scale, same fingerprint")
	}
	if len(p1.Fingerprint()) != 64 {
		t.Fatalf("fingerprint length %d, want 64 hex chars", len(p1.Fingerprint()))
	}
}

// TestWireSizes pins the exact-size helpers against real serializations,
// on one-limb and grouped digits; the serve layer uses them to set
// request body limits.
func TestWireSizes(t *testing.T) {
	for _, k := range []*testKit{keyedKit(t, []int{1, 2, 4}), groupedKit(t, []int{1, 2, 4})} {
		checkWireSizes(t, k)
	}
}

// checkWireSizes compares the size helpers with k's serializations.
func checkWireSizes(t *testing.T, k *testKit) {
	t.Helper()
	rtk := k.kg.GenRotationKeys(k.sk, []int{1, 2, 4}, false)

	var ctBuf bytes.Buffer
	ct := k.ept.Encrypt(k.enc.Encode([]float64{1}, k.ctx.Params.MaxLevel(), k.ctx.Params.Scale))
	if err := k.ctx.WriteCiphertext(&ctBuf, ct); err != nil {
		t.Fatal(err)
	}
	if got, want := ctBuf.Len(), k.ctx.CiphertextWireSize(ct.Level); got != want {
		t.Fatalf("ciphertext wire size: got %d computed %d", got, want)
	}

	var pkBuf bytes.Buffer
	if err := k.ctx.WritePublicKey(&pkBuf, k.pk); err != nil {
		t.Fatal(err)
	}
	if got, want := pkBuf.Len(), k.ctx.PublicKeyWireSize(); got != want {
		t.Fatalf("public key wire size: got %d computed %d", got, want)
	}

	var bBuf bytes.Buffer
	bundle := &KeyBundle{ParamsDigest: k.ctx.Params.ParamsDigest(), PK: k.pk, RLK: k.rlk, RTK: rtk}
	if err := k.ctx.WriteKeyBundle(&bBuf, bundle); err != nil {
		t.Fatal(err)
	}
	if got, want := bBuf.Len(), k.ctx.KeyBundleWireSize(len(rtk.Keys)); got != want {
		t.Fatalf("bundle wire size: got %d computed %d", got, want)
	}
}

// TestSecureKeyGeneratorProducesWorkingKeys exercises the crypto/rand
// path end to end: generate, encrypt under the secure encryptor, decrypt.
func TestSecureKeyGeneratorProducesWorkingKeys(t *testing.T) {
	p, err := TinyParameters()
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	kg := NewSecureKeyGenerator(ctx)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinearizationKey(sk)
	enc := NewEncoder(ctx)
	ept := NewSecureEncryptor(ctx, pk)
	dec := NewDecryptor(ctx, sk)
	ev := NewEvaluator(ctx, rlk, nil)

	rng := rand.New(rand.NewSource(9))
	vals := randVec(rng, p.Slots(), 2)
	ct := ept.Encrypt(enc.Encode(vals, p.MaxLevel(), p.Scale))
	sq := ev.Rescale(ev.Mul(ct, ct))
	got := enc.Decode(dec.DecryptNew(sq))
	for i := range vals {
		if math.Abs(got[i]-vals[i]*vals[i]) > 1e-2 {
			t.Fatalf("secure-key square wrong at %d", i)
		}
	}
	// Two secure generators must not coincide (the seeded ones would).
	sk2 := NewSecureKeyGenerator(ctx).GenSecretKey()
	same := true
	for i := range sk.Vec {
		if sk.Vec[i] != sk2.Vec[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two secure key generators produced identical secret keys")
	}
}
