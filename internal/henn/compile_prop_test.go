package henn

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"cnnhe/internal/tensor"
)

// TestDiagonalsReconstructMatrix: the generalized diagonals stored by
// NewLinearStage must reconstruct the (padded) matrix exactly, and so
// must the wrapped diagonals evalRaw reads at the stage's period p:
// wrapped diagonal k < p at slot s holds M[s mod p][(s+k) mod slots].
func TestDiagonalsReconstructMatrix(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		slots := 64
		rows := 1 + rng.Intn(slots)
		cols := 1 + rng.Intn(slots)
		m := tensor.New(rows, cols)
		for i := range m.Data {
			if rng.Float64() < 0.3 {
				m.Data[i] = rng.NormFloat64()
			}
		}
		at := func(i, j int) float64 {
			if i >= rows || j >= cols {
				return 0
			}
			return m.Data[i*cols+j]
		}
		st, err := NewLinearStage("p", m, make([]float64, rows), slots)
		if err != nil {
			// all-zero matrices are rejected; that's fine
			return isZero(m.Data)
		}
		// Rebuild: M'[i][j] from diag_k with k = (j - i) mod slots.
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				k := ((j-i)%slots + slots) % slots
				var v float64
				if d, ok := st.Diags[k]; ok {
					v = d[i]
				}
				if v != m.Data[i*cols+j] {
					return false
				}
			}
		}
		// No spurious entries: every stored value maps back into the matrix.
		for k, d := range st.Diags {
			for i, v := range d {
				if v == 0 {
					continue
				}
				j := (i + k) % slots
				if i >= rows || j >= cols || m.Data[i*cols+j] != v {
					return false
				}
			}
		}
		// The (slot, wrapped diagonal) pairs are in bijection with the
		// p×slots entries M[i][j], i < p, so matching every pair
		// reconstructs M and leaves no spurious entry.
		p := shapeOf([]*LinearStage{st}).p
		w := st.wrapped(p)
		for k, d := range w {
			if k < 0 || k >= p || len(d) != slots {
				return false
			}
		}
		for k := 0; k < p; k++ {
			for s := 0; s < slots; s++ {
				var v float64
				if d, ok := w[k]; ok {
					v = d[s]
				}
				if v != at(s%p, (s+k)%slots) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func isZero(v []float64) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// TestRotationsAreCoveredByBSGS: at every period, each wrapped diagonal
// must be reachable from the declared baby and giant rotations, every
// fold p, 2p, …, slots/2 must be declared, and the split must cover the
// period: baby · giant = p.
func TestRotationsAreCoveredByBSGS(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const slots = 128
	for _, tc := range []struct{ rows, cols, p int }{
		{1, 60, 1}, {2, 128, 2}, {10, 60, 16}, {50, 60, 64}, {64, 128, 64}, {65, 3, 128}, {128, 128, 128},
	} {
		m := tensor.New(tc.rows, tc.cols)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		st, err := NewLinearStage("r", m, make([]float64, tc.rows), slots)
		if err != nil {
			t.Fatal(err)
		}
		b := shapeOf([]*LinearStage{st})
		p, baby := b.p, b.baby
		if p != tc.p {
			t.Fatalf("%d rows: period %d, want %d", tc.rows, p, tc.p)
		}
		if baby*b.giant != p {
			t.Fatalf("period %d: BSGS split %d×%d", p, baby, b.giant)
		}
		rot := map[int]bool{0: true}
		for _, r := range st.Rotations() {
			rot[r] = true
		}
		for k := range st.wrapped(p) {
			if !rot[k%baby] {
				t.Fatalf("period %d: baby step %d not declared", p, k%baby)
			}
			if !rot[k/baby*baby] {
				t.Fatalf("period %d: giant step %d not declared", p, k/baby*baby)
			}
		}
		for f := p; f < slots; f *= 2 {
			if !rot[f] {
				t.Fatalf("period %d: fold %d not declared", p, f)
			}
		}
		if len(b.folds) != bits.Len(uint(slots/p))-1 {
			t.Fatalf("period %d: %d folds, want log2(%d/%d)", p, len(b.folds), slots, p)
		}
	}
}

// TestPlanDepthAccounting: plan depth is the sum of stage depths and
// CheckDepth enforces the level budget.
func TestPlanDepthAccounting(t *testing.T) {
	m := tinyModel(41)
	plan, err := Compile(m, 512)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, s := range plan.Stages {
		want += s.Depth()
	}
	if plan.Depth != want {
		t.Fatalf("depth %d, stages sum %d", plan.Depth, want)
	}
	if err := plan.CheckDepth(plan.Depth); err != nil {
		t.Fatal("exact budget must pass:", err)
	}
	if err := plan.CheckDepth(plan.Depth - 1); err == nil {
		t.Fatal("insufficient budget must fail")
	}
	if plan.Describe() == "" {
		t.Fatal("empty describe")
	}
}

// TestRotateVec sanity.
func TestRotateVec(t *testing.T) {
	v := []float64{1, 2, 3, 4}
	got := rotateVec(v, 1)
	want := []float64{2, 3, 4, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rotateVec +1: %v", got)
		}
	}
	got = rotateVec(v, -1)
	want = []float64{4, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rotateVec -1: %v", got)
		}
	}
	if &rotateVec(v, 0)[0] != &v[0] {
		t.Fatal("rotateVec 0 should return the input")
	}
}
