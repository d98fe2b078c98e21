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
	// recombineOnly offers ir.Recombiner but not ir.PlainRecombiner.
	recombineOnly struct{ *fakeEngine }
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

func (r recombineOnly) Recombine(args []ir.Ct, weights []int64) ir.Ct {
	return fusedFake{r.fakeEngine}.Recombine(args, weights)
}

// TestOnRefusesMismatchedEngine: a rebind that could run the shared
// plaintexts or task table against the wrong parameters or call set is an
// error, never a panic.
func TestOnRefusesMismatchedEngine(t *testing.T) {
	plain, err := Prepare(&fakeEngine{}, fusedGraph())
	if err != nil {
		t.Fatal(err)
	}
	fused, err := Prepare(fusedFake{&fakeEngine{}}, fusedGraph())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		p    *Prepared
		e    ir.Engine
	}{
		{"slots", plain, slotsFake{&fakeEngine{}}},
		{"max level", plain, levelFake{&fakeEngine{}}},
		{"scale", plain, scaleFake{&fakeEngine{}}},
		{"level prime", plain, primeFake{&fakeEngine{}}},
		{"gains both recombine calls", plain, fusedFake{&fakeEngine{}}},
		{"gains Recombine", plain, recombineOnly{&fakeEngine{}}},
		{"loses both recombine calls", fused, &fakeEngine{}},
		{"loses PlainRecombine", fused, recombineOnly{&fakeEngine{}}},
	} {
		if q, err := tc.p.On(tc.e); err == nil || q != nil {
			t.Errorf("%s: On = %v, %v; want a refusal", tc.name, q, err)
		}
	}
}

// TestOnSharesPreparation: a rebound copy runs on its own engine with the
// original's plaintext handles and task table, and computes the same
// output; the original keeps its engine.
func TestOnSharesPreparation(t *testing.T) {
	orig := fusedFake{&fakeEngine{}}
	p, err := Prepare(orig, fusedGraph())
	if err != nil {
		t.Fatal(err)
	}
	other := fusedFake{&fakeEngine{}}
	q, err := p.On(other)
	if err != nil {
		t.Fatal(err)
	}
	if q.e != other || p.e != orig {
		t.Fatal("On rebound the original instead of a copy")
	}
	if &q.pts[0] != &p.pts[0] || &q.tasks[0] != &p.tasks[0] || q.g != p.g {
		t.Fatal("rebound copy does not share the preparation")
	}
	in := [][]float64{{1, 2, 3, 4}}
	want, err := p.Run(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := q.Run(context.Background(), in, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(other.DecryptVec(got.Out), orig.DecryptVec(want.Out)) {
		t.Fatalf("rebound output %v, original %v", other.DecryptVec(got.Out), orig.DecryptVec(want.Out))
	}
	for _, c := range other.calls {
		if c == "EncodeVecsAt" {
			t.Fatal("the rebound copy encoded plaintexts again")
		}
	}
	if len(other.calls) == 0 {
		t.Fatal("the rebound copy did not run on its engine")
	}
}
