package ckks

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestCiphertextRoundTrip(t *testing.T) {
	k := tiny(t)
	rng := rand.New(rand.NewSource(71))
	n := k.ctx.Params.Slots()
	vals := randVec(rng, n, 3)
	ct := k.ept.Encrypt(k.enc.Encode(vals, k.ctx.Params.MaxLevel(), k.ctx.Params.Scale))
	// Serialize at a lower level too.
	ct = k.ev.Rescale(k.ev.MulConst(ct, 1.0, 0))

	var buf bytes.Buffer
	if err := k.ctx.WriteCiphertext(&buf, ct); err != nil {
		t.Fatal(err)
	}
	size := buf.Len()
	back, err := k.ctx.ReadCiphertext(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Level != ct.Level || back.Scale != ct.Scale {
		t.Fatalf("metadata mismatch: %v vs %v", back, ct)
	}
	got := k.enc.Decode(k.dec.DecryptNew(back))
	for i := 0; i < n; i++ {
		if math.Abs(got[i]-vals[i]) > 1e-3 {
			t.Fatalf("value mismatch after roundtrip at %d", i)
		}
	}
	if size == 0 {
		t.Fatal("empty serialization")
	}
}

func TestPublicKeyRoundTripEncrypts(t *testing.T) {
	k := tiny(t)
	var buf bytes.Buffer
	pk := k.kg.GenPublicKey(k.sk)
	if err := k.ctx.WritePublicKey(&buf, pk); err != nil {
		t.Fatal(err)
	}
	pk2, err := k.ctx.ReadPublicKey(&buf)
	if err != nil {
		t.Fatal(err)
	}
	enc2 := NewEncryptor(k.ctx, pk2, 999)
	vals := []float64{1.25, -2.5}
	ct := enc2.Encrypt(k.enc.Encode(vals, k.ctx.Params.MaxLevel(), k.ctx.Params.Scale))
	got := k.enc.Decode(k.dec.DecryptNew(ct))
	for i, v := range vals {
		if math.Abs(got[i]-v) > 1e-3 {
			t.Fatalf("deserialized pk produced wrong encryption at %d", i)
		}
	}
}

func TestSwitchingKeyRoundTripRelinearizes(t *testing.T) {
	k := tiny(t)
	var buf bytes.Buffer
	if err := k.ctx.WriteSwitchingKey(&buf, &k.rlk.SwitchingKey); err != nil {
		t.Fatal(err)
	}
	swk, err := k.ctx.ReadSwitchingKey(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(k.ctx, &RelinearizationKey{SwitchingKey: *swk}, nil)
	rng := rand.New(rand.NewSource(73))
	n := k.ctx.Params.Slots()
	a := randVec(rng, n, 2)
	b := randVec(rng, n, 2)
	L := k.ctx.Params.MaxLevel()
	cta := k.ept.Encrypt(k.enc.Encode(a, L, k.ctx.Params.Scale))
	ctb := k.ept.Encrypt(k.enc.Encode(b, L, k.ctx.Params.Scale))
	prod := ev.Rescale(ev.Mul(cta, ctb))
	got := k.enc.Decode(k.dec.DecryptNew(prod))
	for i := 0; i < n; i++ {
		if math.Abs(got[i]-a[i]*b[i]) > 1e-2 {
			t.Fatalf("deserialized rlk failed relinearization at %d", i)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	k := tiny(t)
	if _, err := k.ctx.ReadCiphertext(bytes.NewReader([]byte{0x00, 0x01})); err == nil {
		t.Fatal("expected error for bad tag")
	}
	if _, err := k.ctx.ReadPublicKey(bytes.NewReader([]byte{tagCiphertext})); err == nil {
		t.Fatal("expected error for wrong tag")
	}
	if _, err := k.ctx.ReadCiphertext(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected error for empty input")
	}
	// Truncated ciphertext.
	var buf bytes.Buffer
	ct := k.ept.Encrypt(k.enc.Encode([]float64{1}, k.ctx.Params.MaxLevel(), k.ctx.Params.Scale))
	if err := k.ctx.WriteCiphertext(&buf, ct); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := k.ctx.ReadCiphertext(bytes.NewReader(trunc)); err == nil {
		t.Fatal("expected error for truncated ciphertext")
	}
}

// TestMarshalCorruption drives every serialized type through truncation
// and single-bit flips: each corrupted blob must produce a typed error
// (ErrFormat or ErrChecksum) — never a panic, never silent success.
func TestMarshalCorruption(t *testing.T) {
	k := tiny(t)
	ct := k.ept.Encrypt(k.enc.Encode([]float64{1.5, -2.25}, k.ctx.Params.MaxLevel(), k.ctx.Params.Scale))
	pk := k.kg.GenPublicKey(k.sk)

	encode := func(write func(w *bytes.Buffer) error) []byte {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cases := []struct {
		name string
		blob []byte
		read func([]byte) error
	}{
		{
			name: "ciphertext",
			blob: encode(func(w *bytes.Buffer) error { return k.ctx.WriteCiphertext(w, ct) }),
			read: func(b []byte) error { _, err := k.ctx.ReadCiphertext(bytes.NewReader(b)); return err },
		},
		{
			name: "public-key",
			blob: encode(func(w *bytes.Buffer) error { return k.ctx.WritePublicKey(w, pk) }),
			read: func(b []byte) error { _, err := k.ctx.ReadPublicKey(bytes.NewReader(b)); return err },
		},
		{
			name: "switching-key",
			blob: encode(func(w *bytes.Buffer) error { return k.ctx.WriteSwitchingKey(w, &k.rlk.SwitchingKey) }),
			read: func(b []byte) error { _, err := k.ctx.ReadSwitchingKey(bytes.NewReader(b)); return err },
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			safeRead := func(b []byte) (err error) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("decode panicked: %v", r)
					}
				}()
				return tc.read(b)
			}
			if err := safeRead(tc.blob); err != nil {
				t.Fatalf("pristine blob failed to decode: %v", err)
			}

			// Truncation: dense near the header, sampled through the body,
			// and every cut inside the trailing checksum.
			cuts := map[int]bool{}
			for i := 0; i < len(tc.blob) && i < 40; i++ {
				cuts[i] = true
			}
			for i := 1; i <= 4; i++ {
				cuts[len(tc.blob)-i] = true
			}
			rng := rand.New(rand.NewSource(41))
			for i := 0; i < 32; i++ {
				cuts[rng.Intn(len(tc.blob))] = true
			}
			for cut := range cuts {
				err := safeRead(tc.blob[:cut])
				if err == nil {
					t.Fatalf("truncation at %d/%d decoded successfully", cut, len(tc.blob))
				}
				if cut == 0 {
					continue // bare EOF at the leading tag is passed through
				}
				if !errors.Is(err, ErrFormat) && !errors.Is(err, ErrChecksum) {
					t.Fatalf("truncation at %d: untyped error %v", cut, err)
				}
			}

			// Single-bit flips: the CRC must catch every one the structural
			// checks miss.
			for i := 0; i < 200; i++ {
				pos := rng.Intn(len(tc.blob))
				bit := byte(1) << uint(rng.Intn(8))
				mut := append([]byte(nil), tc.blob...)
				mut[pos] ^= bit
				err := safeRead(mut)
				if err == nil {
					t.Fatalf("bit flip at byte %d mask %02x decoded successfully", pos, bit)
				}
				if !errors.Is(err, ErrFormat) && !errors.Is(err, ErrChecksum) {
					t.Fatalf("bit flip at byte %d: untyped error %v", pos, err)
				}
			}
		})
	}
}

// TestReadPolyRequiresExactLimbSet: every polynomial on the wire must
// carry exactly the limbs its object has — limbs 0..level for a
// ciphertext, every QP limb for a key — each once. Frames that drop,
// repeat or add a limb are refused as ErrFormat even under a valid
// checksum, instead of being zero-filled or overwritten.
func TestReadPolyRequiresExactLimbSet(t *testing.T) {
	k := tiny(t)
	r := k.ctx.R
	top := k.ctx.Params.MaxLevel()
	ct := k.ept.Encrypt(k.enc.Encode([]float64{1}, top, k.ctx.Params.Scale))
	qLimbs := r.Limbs(top, false)
	qpLimbs := r.Limbs(top, true)
	without := func(limbs []int, drop int) []int {
		var out []int
		for _, l := range limbs {
			if l != drop {
				out = append(out, l)
			}
		}
		return out
	}
	// frame writes a CRC-valid object whose first polynomial carries
	// limbs; the rest of the payload is the genuine one.
	ctFrame := func(limbs []int) []byte {
		var buf bytes.Buffer
		cw := newCRCWriter(&buf)
		cw.Write([]byte{tagCiphertext, formatVersion})
		writeUint64(cw, uint64(ct.Level))
		writeUint64(cw, math.Float64bits(ct.Scale))
		writePoly(cw, r, limbs, ct.C0)
		writePoly(cw, r, qLimbs, ct.C1)
		cw.writeSum()
		return buf.Bytes()
	}
	pkFrame := func(limbs []int) []byte {
		var buf bytes.Buffer
		cw := newCRCWriter(&buf)
		cw.Write([]byte{tagPublicKey, formatVersion})
		writePoly(cw, r, limbs, k.pk.B)
		writePoly(cw, r, qpLimbs, k.pk.A)
		cw.writeSum()
		return buf.Bytes()
	}
	swkFrame := func(limbs []int) []byte {
		var buf bytes.Buffer
		cw := newCRCWriter(&buf)
		cw.Write([]byte{tagSwitchKey, formatVersion})
		writeUint64(cw, uint64(len(k.rlk.B)))
		for i := range k.rlk.B {
			b := qpLimbs
			if i == len(k.rlk.B)-1 {
				b = limbs
			}
			writePoly(cw, r, b, k.rlk.B[i])
			writePoly(cw, r, qpLimbs, k.rlk.A[i])
		}
		cw.writeSum()
		return buf.Bytes()
	}
	dup := append(without(qLimbs, 2), 1) // limb 1 twice, limb 2 missing
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"ciphertext dropped limb", ctFrame(without(qLimbs, 2))},
		{"ciphertext repeated limb", ctFrame(dup)},
		{"ciphertext special limb", ctFrame(append(without(qLimbs, 2), len(r.SubRings)-1))},
		{"public key dropped special", pkFrame(qLimbs)},
		{"public key repeated limb", pkFrame(append(without(qpLimbs, 0), 1))},
		{"switching key dropped limb", swkFrame(without(qpLimbs, 3))},
	} {
		var err error
		switch tc.data[0] {
		case tagCiphertext:
			_, err = k.ctx.ReadCiphertext(bytes.NewReader(tc.data))
		case tagPublicKey:
			_, err = k.ctx.ReadPublicKey(bytes.NewReader(tc.data))
		case tagSwitchKey:
			_, err = k.ctx.ReadSwitchingKey(bytes.NewReader(tc.data))
		}
		if !errors.Is(err, ErrFormat) {
			t.Errorf("%s: got %v, want ErrFormat", tc.name, err)
		}
	}
	// The genuine frames still read.
	if _, err := k.ctx.ReadCiphertext(bytes.NewReader(ctFrame(qLimbs))); err != nil {
		t.Fatalf("genuine ciphertext: %v", err)
	}
	if _, err := k.ctx.ReadPublicKey(bytes.NewReader(pkFrame(qpLimbs))); err != nil {
		t.Fatalf("genuine public key: %v", err)
	}
	if _, err := k.ctx.ReadSwitchingKey(bytes.NewReader(swkFrame(qpLimbs))); err != nil {
		t.Fatalf("genuine switching key: %v", err)
	}

	// A public key of a shorter chain, read by a longer one.
	short, err := NewParameters(10, []int{40, 30, 30}, 50, 1, math.Exp2(30))
	if err != nil {
		t.Fatal(err)
	}
	sk := newTestKit(t, short, nil, false)
	var buf bytes.Buffer
	if err := sk.ctx.WritePublicKey(&buf, sk.pk); err != nil {
		t.Fatal(err)
	}
	if _, err := k.ctx.ReadPublicKey(&buf); !errors.Is(err, ErrFormat) {
		t.Fatalf("3-limb public key on a 5-limb context: got %v, want ErrFormat", err)
	}
}
