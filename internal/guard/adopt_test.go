package guard_test

import (
	"bytes"
	"errors"
	"testing"

	"cnnhe/internal/ckks"
	"cnnhe/internal/guard"
)

// TestAdoptWireCiphertext: a ciphertext that crossed the wire can be
// adopted into a guarded engine, evaluated, and the result unwrapped for
// serialization — the serve-side lifecycle of an encrypted request.
func TestAdoptWireCiphertext(t *testing.T) {
	plan := tinyPlan(t)
	e := rnsEngine(t, plan, 21)
	g := guard.New(e, guard.DefaultConfig())

	// Client side: encrypt and serialize.
	ct := e.EncryptVec([]float64{1, 2, 3})
	var buf bytes.Buffer
	if err := e.Ctx.WriteCiphertext(&buf, ct.(*ckks.Ciphertext)); err != nil {
		t.Fatal(err)
	}
	wire, err := e.Ctx.ReadCiphertext(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Without adoption the guard rejects the foreign handle.
	err = catchGuard(t, func() { g.Rotate(wire, 1) })
	if !errors.Is(err, guard.ErrForeignCiphertext) {
		t.Fatalf("want ErrForeignCiphertext, got %v", err)
	}

	adopted, err := g.Adopt(wire)
	if err != nil {
		t.Fatal(err)
	}
	out := g.Add(adopted, adopted)
	under := guard.Underlying(out)
	if _, ok := under.(*ckks.Ciphertext); !ok {
		t.Fatalf("Underlying returned %T, want *ckks.Ciphertext", under)
	}
	got := e.Enc.Decode(e.Dec.DecryptNew(under.(*ckks.Ciphertext)))
	for i, want := range []float64{2, 4, 6} {
		if d := got[i] - want; d > 1e-3 || d < -1e-3 {
			t.Fatalf("slot %d: got %v want %v", i, got[i], want)
		}
	}
	// Adopting an already-tracked handle is a no-op.
	again, err := g.Adopt(out)
	if err != nil {
		t.Fatal(err)
	}
	if again != out {
		t.Fatal("re-adoption should return the same handle")
	}
}

// TestAdoptRejectsCorruptWithoutLatching: a malformed client ciphertext
// must be refused, and the refusal must not poison the engine for the
// next request.
func TestAdoptRejectsCorruptWithoutLatching(t *testing.T) {
	plan := tinyPlan(t)
	e := rnsEngine(t, plan, 22)
	g := guard.New(e, guard.DefaultConfig())

	ct := e.EncryptVec([]float64{1}).(*ckks.Ciphertext)
	// Corrupt a coefficient out of [0, q).
	ct.C0.Coeffs[0][0] = ^uint64(0)
	if _, err := g.Adopt(ct); err == nil {
		t.Fatal("corrupt ciphertext adopted")
	}

	// The engine still works.
	good, err := g.Adopt(e.EncryptVec([]float64{5}))
	if err != nil {
		t.Fatal(err)
	}
	g.Add(good, good)
}
