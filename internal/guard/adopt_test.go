package guard_test

import (
	"bytes"
	"errors"
	"testing"

	"cnnhe/internal/ckks"
	"cnnhe/internal/guard"
	"cnnhe/internal/henn"
)

// TestAdoptWireCiphertext: a ciphertext that crossed the wire is scanned
// by Adopt and handed back as it is, evaluated, and the result
// serialized — the serve-side lifecycle of an encrypted request.
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

	adopted, err := g.Adopt(wire)
	if err != nil {
		t.Fatal(err)
	}
	if adopted != henn.Ct(wire) {
		t.Fatal("Adopt must return the ciphertext it scanned")
	}
	out := g.Add(adopted, adopted)
	if guard.Underlying(out) != out {
		t.Fatal("Underlying must return its argument")
	}
	got := e.Enc.Decode(e.Dec.DecryptNew(out.(*ckks.Ciphertext)))
	for i, want := range []float64{2, 4, 6} {
		if d := got[i] - want; d > 1e-3 || d < -1e-3 {
			t.Fatalf("slot %d: got %v want %v", i, got[i], want)
		}
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
	if _, err := g.Adopt(ct); !errors.Is(err, guard.ErrCorruptCiphertext) {
		t.Fatalf("corrupt ciphertext: %v, want ErrCorruptCiphertext", err)
	}

	// The engine still works.
	good, err := g.Adopt(e.EncryptVec([]float64{5}))
	if err != nil {
		t.Fatal(err)
	}
	g.Add(good, good)
}
