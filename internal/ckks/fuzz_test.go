package ckks

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"
)

// Fuzz targets for every wire-format reader: arbitrary input must yield
// a typed error (ErrFormat/ErrChecksum) or a clean EOF pass-through —
// never a panic, and never an unclassified error.

var fuzzCtxOnce = sync.OnceValues(func() (*Context, error) {
	p, err := TinyParameters()
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
func checkDecodeErr(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		return
	}
	if errors.Is(err, ErrFormat) || errors.Is(err, ErrChecksum) || err == io.EOF {
		return
	}
	t.Fatalf("untyped decode error: %v", err)
}

// checkDigits asserts an accepted switching key has exactly the digit
// count key switching slices from: one per chain modulus.
func checkDigits(t *testing.T, ctx *Context, swk *SwitchingKey) {
	t.Helper()
	if want := ctx.Params.MaxLevel() + 1; len(swk.B) != want || len(swk.A) != want {
		t.Fatalf("accepted a switching key with %d/%d digits, want %d", len(swk.B), len(swk.A), want)
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
