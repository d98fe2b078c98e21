package henn

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"cnnhe/internal/ckks"
	"cnnhe/internal/ckksbig"
)

// TestRotateHoistedGroupingBitIdentical pins the empirical fact the
// lowering's rotation plan relies on: for a hoisted rotation, the
// GROUPING does not affect the bits — RotateMany(ct, ks) and
// RotateMany(ct, [k]) produce identical ciphertexts for every k ∈ ks, on
// both backends, because the key-switch decomposition depends only on
// the source ciphertext. This is what lets lowering put every hoisted
// rotation of a source, from whichever stage, into one fan-out group.
//
// It also pins the converse: a standalone Rotate is NOT bit-identical
// to a hoisted rotation by the same k (different key-switch algorithm,
// different rounding) — which is why lowering never merges standalone
// and hoisted rotations.
//
// The rns half additionally pins the key switch itself: SHA-256 digests of
// the hoisted rotations, the standalone rotations, and relinearizations
// plus lower-level switches, recorded from the eager per-digit
// MulCoeffsThenAdd key switch before ring.InnerProduct replaced it. The
// lazily reduced sums must reproduce them bit for bit.
func TestRotateHoistedGroupingBitIdentical(t *testing.T) {
	logN := 10
	bits := []int{40, 30, 30, 30, 40}
	params, err := ckks.NewParameters(logN, bits, 60, 1, math.Exp2(30))
	if err != nil {
		t.Fatal(err)
	}
	rots := []int{1, 3, 7, 100, -5}
	rng := rand.New(rand.NewSource(42))
	vec := make([]float64, 1<<(logN-1))
	for i := range vec {
		vec[i] = rng.Float64()*2 - 1
	}

	t.Run("rns", func(t *testing.T) {
		e, err := NewRNSEngine(params, rots, 7)
		if err != nil {
			t.Fatal(err)
		}
		ctBytes := func(c Ct) []byte {
			var b bytes.Buffer
			if err := e.Ctx.WriteCiphertext(&b, c.(*ckks.Ciphertext)); err != nil {
				t.Fatal(err)
			}
			return b.Bytes()
		}
		ct := e.EncryptVec(vec)
		grouped := e.RotateMany(ct, rots)
		standaloneDiffers := false
		hoisted, standalone := sha256.New(), sha256.New()
		for _, k := range rots {
			single := ctBytes(e.RotateMany(ct, []int{k})[k])
			if !bytes.Equal(ctBytes(grouped[k]), single) {
				t.Errorf("rns: grouped vs singleton hoisted rotation differ at k=%d", k)
			}
			alone := ctBytes(e.Rotate(ct, k))
			if !bytes.Equal(alone, single) {
				standaloneDiffers = true
			}
			hoisted.Write(single)
			standalone.Write(alone)
		}
		if !standaloneDiffers {
			t.Error("rns: standalone Rotate became bit-identical to hoisted; revisit the lowering's standalone/hoisted split")
		}
		relin := sha256.New()
		relin.Write(ctBytes(e.MulRelin(ct, grouped[3])))
		low := e.DropLevel(ct, 2) // fewer digits than the key has
		relin.Write(ctBytes(e.MulRelin(low, low)))
		relin.Write(ctBytes(e.RotateMany(low, []int{7})[7]))
		relin.Write(ctBytes(e.Rotate(low, -5)))
		for _, d := range []struct {
			name string
			got  []byte
			want string
		}{
			{"hoisted rotations", hoisted.Sum(nil), "da5e1fa47d79a63fa572fda86ac97135e119077afc050a7e363961182fdb4064"},
			{"standalone rotations", standalone.Sum(nil), "87c18fa3feeb84b8940b6baa922d914f02b472e7dd586a7021eb48dabce50fca"},
			{"relinearization and lower-level switches", relin.Sum(nil), "d932ed4e2c155135aad0411ccfecb6339cba6638f68226067e62a2b4fd2d4f65"},
		} {
			if got := hex.EncodeToString(d.got); got != d.want {
				t.Errorf("rns: %s no longer bit-identical to the eager key switch: digest %s, want %s", d.name, got, d.want)
			}
		}
	})

	t.Run("big", func(t *testing.T) {
		bp, err := ckksbig.FromRNSParameters(params)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewBigEngine(bp, rots, 7)
		if err != nil {
			t.Fatal(err)
		}
		ct := e.EncryptVec(vec)
		grouped := e.RotateMany(ct, rots)
		standaloneDiffers := false
		for _, k := range rots {
			single := e.RotateMany(ct, []int{k})[k].(*ckksbig.Ciphertext)
			if !reflect.DeepEqual(grouped[k].(*ckksbig.Ciphertext), single) {
				t.Errorf("big: grouped vs singleton hoisted rotation differ at k=%d", k)
			}
			if !reflect.DeepEqual(e.Rotate(ct, k).(*ckksbig.Ciphertext), single) {
				standaloneDiffers = true
			}
		}
		if !standaloneDiffers {
			t.Error("big: standalone Rotate became bit-identical to hoisted; revisit the lowering's standalone/hoisted split")
		}
	})
}
