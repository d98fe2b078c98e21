package exec

import (
	"context"
	"reflect"
	"testing"

	"cnnhe/internal/henn/ir"
)

// Engines that differ from fakeEngine in exactly one parameter.
type (
	slotsFake struct{ *fakeEngine }
	levelFake struct{ *fakeEngine }
	scaleFake struct{ *fakeEngine }
	primeFake struct{ *fakeEngine }
)

func (slotsFake) Slots() int     { return 8 }
func (levelFake) MaxLevel() int  { return 4 }
func (scaleFake) Scale() float64 { return 2 }
func (primeFake) QiFloat(l int) float64 {
	if l == 1 {
		return 3
	}
	return 2
}

// TestOnRefusesMismatchedEngine: a rebind that could run the shared
// plaintexts against the wrong parameters is an error, never a panic.
func TestOnRefusesMismatchedEngine(t *testing.T) {
	plain, err := Prepare(&fakeEngine{}, fusedGraph())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		e    ir.Engine
	}{
		{"slots", slotsFake{&fakeEngine{}}},
		{"max level", levelFake{&fakeEngine{}}},
		{"scale", scaleFake{&fakeEngine{}}},
		{"level prime", primeFake{&fakeEngine{}}},
	} {
		if q, err := plain.On(tc.e); err == nil || q != nil {
			t.Errorf("%s: On = %v, %v; want a refusal", tc.name, q, err)
		}
	}
}

// TestOnSharesPreparation: a rebound copy runs on its own engine with the
// original's plaintext handles and task table, and computes the same
// output; the original keeps its engine. The task table does not depend
// on the engine's optional calls, so a rebind between an engine with the
// fused recombine calls and one without computes the same output too.
func TestOnSharesPreparation(t *testing.T) {
	// Each constructor also returns the fake that logs the engine's calls.
	fused := func() (ir.Engine, *fakeEngine) { f := &fakeEngine{}; return fusedFake{f}, f }
	chain := func() (ir.Engine, *fakeEngine) { f := &fakeEngine{}; return f, f }
	for _, tc := range []struct {
		name        string
		orig, other func() (ir.Engine, *fakeEngine)
	}{
		{"fused to fused", fused, fused},
		{"fused to chain-only", fused, chain},
		{"chain-only to fused", chain, fused},
	} {
		for _, workers := range []int{1, 4} {
			orig, _ := tc.orig()
			other, otherFake := tc.other()
			p, err := Prepare(orig, fusedGraph())
			if err != nil {
				t.Fatal(err)
			}
			q, err := p.On(other)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if q.e != other || p.e != orig {
				t.Fatalf("%s: On rebound the original instead of a copy", tc.name)
			}
			if &q.pts[0] != &p.pts[0] || &q.tasks[0] != &p.tasks[0] || q.g != p.g {
				t.Fatalf("%s: rebound copy does not share the preparation", tc.name)
			}
			in := [][]float64{{1, 2, 3, 4}}
			want, err := p.Run(context.Background(), in)
			if err != nil {
				t.Fatal(err)
			}
			got, err := q.runWorkers(context.Background(), in, workers)
			if err != nil {
				t.Fatalf("%s, workers=%d: %v", tc.name, workers, err)
			}
			if !reflect.DeepEqual(other.DecryptVec(got.Out), orig.DecryptVec(want.Out)) {
				t.Fatalf("%s, workers=%d: rebound output %v, original %v",
					tc.name, workers, other.DecryptVec(got.Out), orig.DecryptVec(want.Out))
			}
			for _, c := range otherFake.calls {
				if c == "EncodeVecsAt" {
					t.Fatalf("%s: the rebound copy encoded plaintexts again", tc.name)
				}
			}
			if len(otherFake.calls) == 0 {
				t.Fatalf("%s: the rebound copy did not run on its engine", tc.name)
			}
		}
	}
}
