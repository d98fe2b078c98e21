package ckks

import (
	"bytes"
	"errors"
	"io"
	"math"
	"sync"
	"testing"

	"cnnhe/internal/ring"
)

// Fuzz targets for every wire-format reader: arbitrary input must yield
// a typed error (ErrFormat/ErrChecksum) or a clean EOF pass-through —
// never a panic, and never an unclassified error.

// fuzzCtxOnce is a grouped-digit context: [40, 26, 26, 26] under a
// 60-bit special prime has the key-switch digits [0,1), [1,3), [3,4).
var fuzzCtxOnce = sync.OnceValues(func() (*Context, error) {
	p, err := NewParameters(10, []int{40, 26, 26, 26}, 60, 1, math.Exp2(26))
	if err != nil {
		return nil, err
	}
	return NewContext(p)
})

func fuzzCtx(f *testing.F) *Context {
	f.Helper()
	ctx, err := fuzzCtxOnce()
	if err != nil {
		f.Fatal(err)
	}
	return ctx
}

// checkDecodeErr asserts the reader's error contract on arbitrary input.
// ErrParamsMismatch is the key bundle's typed answer to a foreign digest.
func checkDecodeErr(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		return
	}
	if errors.Is(err, ErrFormat) || errors.Is(err, ErrChecksum) || errors.Is(err, ErrParamsMismatch) || err == io.EOF {
		return
	}
	t.Fatalf("untyped decode error: %v", err)
}

// checkDigits asserts an accepted switching key has exactly the digit
// count key switching slices from — one per top-level digit of the
// layout — with every QP limb of every polynomial present.
func checkDigits(t *testing.T, ctx *Context, swk *SwitchingKey) {
	t.Helper()
	top := ctx.Params.MaxLevel()
	if want := len(ctx.Params.Digits(top)); len(swk.B) != want || len(swk.A) != want {
		t.Fatalf("accepted a switching key with %d/%d digits, want %d", len(swk.B), len(swk.A), want)
	}
	for g := range swk.B {
		for _, p := range []*ring.Poly{swk.B[g], swk.A[g]} {
			for _, i := range ctx.R.Limbs(top, true) {
				if len(p.Coeffs[i]) != ctx.Params.N()*ctx.R.SubRings[i].Width() {
					t.Fatalf("accepted a switching key whose digit %d lacks limb %d", g, i)
				}
			}
		}
	}
}

// fuzzSeeds builds one golden frame per reader from a deterministic key
// set, plus a few structurally hostile prefixes.
func fuzzSeeds(f *testing.F, write func(ctx *Context, w io.Writer) error) {
	f.Helper()
	ctx := fuzzCtx(f)
	var buf bytes.Buffer
	if err := write(ctx, &buf); err != nil {
		f.Fatal(err)
	}
	golden := buf.Bytes()
	f.Add(golden)
	f.Add(golden[:len(golden)-1]) // truncated checksum
	f.Add(golden[:len(golden)/2]) // truncated payload
	f.Add([]byte{})
	f.Add([]byte{golden[0]})                    // tag only
	f.Add([]byte{golden[0], formatVersion + 1}) // bad version
	flipped := append([]byte(nil), golden...)
	flipped[len(flipped)/2] ^= 0x01
	f.Add(flipped)
}

func FuzzReadCiphertext(f *testing.F) {
	fuzzSeeds(f, func(ctx *Context, w io.Writer) error {
		kg := NewKeyGenerator(ctx, 1)
		sk := kg.GenSecretKey()
		pk := kg.GenPublicKey(sk)
		enc := NewEncoder(ctx)
		ept := NewEncryptor(ctx, pk, 2)
		ct := ept.Encrypt(enc.Encode([]float64{1, -2, 3}, ctx.Params.MaxLevel(), ctx.Params.Scale))
		return ctx.WriteCiphertext(w, ct)
	})
	ctx := fuzzCtx(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		_, err := ctx.ReadCiphertext(bytes.NewReader(data))
		checkDecodeErr(t, err)
	})
}

func FuzzReadPublicKey(f *testing.F) {
	fuzzSeeds(f, func(ctx *Context, w io.Writer) error {
		kg := NewKeyGenerator(ctx, 1)
		return ctx.WritePublicKey(w, kg.GenPublicKey(kg.GenSecretKey()))
	})
	ctx := fuzzCtx(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		_, err := ctx.ReadPublicKey(bytes.NewReader(data))
		checkDecodeErr(t, err)
	})
}

func FuzzReadRelinearizationKey(f *testing.F) {
	fuzzSeeds(f, func(ctx *Context, w io.Writer) error {
		kg := NewKeyGenerator(ctx, 1)
		return ctx.WriteRelinearizationKey(w, kg.GenRelinearizationKey(kg.GenSecretKey()))
	})
	ctx := fuzzCtx(f)
	// A well-formed frame one digit short of the chain.
	kg := NewKeyGenerator(ctx, 1)
	short := kg.GenRelinearizationKey(kg.GenSecretKey())
	short.B, short.A = short.B[1:], short.A[1:]
	var buf bytes.Buffer
	if err := ctx.WriteRelinearizationKey(&buf, short); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		rlk, err := ctx.ReadRelinearizationKey(bytes.NewReader(data))
		checkDecodeErr(t, err)
		if err == nil {
			checkDigits(t, ctx, &rlk.SwitchingKey)
		}
	})
}

func FuzzReadRotationKeySet(f *testing.F) {
	fuzzSeeds(f, func(ctx *Context, w io.Writer) error {
		kg := NewKeyGenerator(ctx, 1)
		sk := kg.GenSecretKey()
		return ctx.WriteRotationKeySet(w, kg.GenRotationKeys(sk, []int{1, -2}, true))
	})
	ctx := fuzzCtx(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		set, err := ctx.ReadRotationKeySet(bytes.NewReader(data))
		checkDecodeErr(t, err)
		if err == nil {
			for _, swk := range set.Keys {
				checkDigits(t, ctx, swk)
			}
		}
	})
}

func FuzzReadSecretKey(f *testing.F) {
	fuzzSeeds(f, func(ctx *Context, w io.Writer) error {
		kg := NewKeyGenerator(ctx, 1)
		return ctx.WriteSecretKey(w, kg.GenSecretKey())
	})
	ctx := fuzzCtx(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		_, err := ctx.ReadSecretKey(bytes.NewReader(data))
		checkDecodeErr(t, err)
	})
}

func FuzzReadKeyBundle(f *testing.F) {
	fuzzSeeds(f, func(ctx *Context, w io.Writer) error {
		kg := NewKeyGenerator(ctx, 1)
		sk := kg.GenSecretKey()
		return ctx.WriteKeyBundle(w, &KeyBundle{
			ParamsDigest: ctx.Params.ParamsDigest(),
			PK:           kg.GenPublicKey(sk),
			RLK:          kg.GenRelinearizationKey(sk),
			RTK:          kg.GenRotationKeys(sk, []int{1}, false),
		})
	})
	ctx := fuzzCtx(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		_, err := ctx.ReadKeyBundle(bytes.NewReader(data))
		checkDecodeErr(t, err)
	})
}
