package exec

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"cnnhe/internal/henn/ir"
	"cnnhe/internal/telemetry"
)

// fusedFake adds both optional recombine interfaces to the fake engine.
type fusedFake struct{ *fakeEngine }

func (f fusedFake) combine(op string, args []ir.Ct, pts []ir.Pt, weights []int64) ir.Ct {
	f.log(op)
	out := &fakeCt{v: make([]float64, f.Slots())}
	for i, a := range args {
		c := a.(*fakeCt)
		if i == 0 {
			out.level, out.scale = c.level, c.scale
		}
		for j, x := range c.v {
			if pts != nil && pts[i] != nil {
				x *= pts[i].(*fakePt).v[j]
			}
			out.v[j] += float64(weights[i]) * x
		}
	}
	return out
}

func (f fusedFake) Recombine(args []ir.Ct, weights []int64) ir.Ct {
	return f.combine("Recombine", args, nil, weights)
}

func (f fusedFake) PlainRecombine(args []ir.Ct, pts []ir.Pt, weights []int64) ir.Ct {
	return f.combine("PlainRecombine", args, pts, weights)
}

// fusedGraph is one giant step of a BSGS stage: a hoisted pair of baby-step
// rotations, four plaintext products and a standalone rotation, summed by
// one recombine. Products 4–6 are absorbed; product 7 carries weight 2 and
// the rotation is no product at all, so both stay arguments of their own.
//
//	stage 1: r1, r2 = rot(x, 1), rot(x, 2)    [hoisted]
//	         r3 = rot(x, 3)
//	         m0 = x⊙w0, m1 = r1⊙w1, m2 = r2⊙w2, m3 = r1⊙w3
//	         y  = m0 + m1 + m2 + 2·m3 + r3
func fusedGraph() *ir.Graph {
	g := &ir.Graph{Slots: 4, Inputs: 1}
	g.Stages = []ir.StageInfo{
		{Name: "encrypt", Out: 0, Record: false},
		{Name: "stage 0 (linear)", Record: true},
	}
	add := func(op ir.Op) int {
		op.ID, op.Hoist, op.Level, op.Scale = len(g.Ops), -1, 3, 1
		if op.Kind == ir.OpMulPlain {
			op.PtScale = 1
		}
		g.Ops = append(g.Ops, op)
		return op.ID
	}
	x := add(ir.Op{Kind: ir.OpEncrypt})
	r1 := add(ir.Op{Kind: ir.OpRotate, Args: []int{x}, K: 1, Stage: 1})
	r2 := add(ir.Op{Kind: ir.OpRotate, Args: []int{x}, K: 2, Stage: 1})
	g.Ops[r1].Hoist, g.Ops[r2].Hoist = 0, 0
	g.Hoists = [][]int{{r1, r2}}
	r3 := add(ir.Op{Kind: ir.OpRotate, Args: []int{x}, K: 3, Stage: 1})
	m0 := add(ir.Op{Kind: ir.OpMulPlain, Args: []int{x}, Stage: 1, Plain: []float64{1, 2, 3, 4}})
	m1 := add(ir.Op{Kind: ir.OpMulPlain, Args: []int{r1}, Stage: 1, Plain: []float64{5, 6, 7, 8}})
	m2 := add(ir.Op{Kind: ir.OpMulPlain, Args: []int{r2}, Stage: 1, Plain: []float64{9, 10, 11, 12}})
	m3 := add(ir.Op{Kind: ir.OpMulPlain, Args: []int{r1}, Stage: 1, Plain: []float64{13, 14, 15, 16}})
	y := add(ir.Op{Kind: ir.OpRecombine, Args: []int{m0, m1, m2, m3, r3}, Weights: []int64{1, 1, 1, 2, 1}, Stage: 1})
	g.Output, g.Stages[1].Out = y, y
	return g
}

func TestAbsorbedByRule(t *testing.T) {
	g := fusedGraph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := g.AbsorbedBy(), []int{-1, -1, -1, -1, 8, 8, 8, -1, -1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("AbsorbedBy %v, want %v (weight-2 product and rotation stay out)", got, want)
	}
	// 9 ops: encrypt, one RotateMany, one Rotate, one MulPlainPt, one
	// PlainRecombine covering 4 of them.
	if st := g.Stats(); st.EngineCalls != 5 || st.RotateCalls() != 2 {
		t.Fatalf("stats: %d engine calls, %d rotate calls; want 5 and 2", st.EngineCalls, st.RotateCalls())
	}
	// A second consumer, a stage-output role, or another stage each keep
	// a product out.
	g.Ops = append(g.Ops, ir.Op{ID: 9, Kind: ir.OpAdd, Args: []int{4, 8}, Hoist: -1, Stage: 1, Level: 3, Scale: 1})
	g.Stages = append(g.Stages, ir.StageInfo{Name: "extra", Out: 5})
	g.Ops[6].Stage = 0
	if got, want := g.AbsorbedBy(), []int{-1, -1, -1, -1, -1, -1, -1, -1, -1, -1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("AbsorbedBy %v, want nothing absorbed", got)
	}
}

func TestFusedRecombineExecution(t *testing.T) {
	in := [][]float64{{1, 2, 3, 4}}
	ctx := context.Background()
	// Reference: no optional interface at all — MulPlainPt per product,
	// then the MulInt/Add chain.
	ref := &fakeEngine{}
	pRef, err := Prepare(ref, fusedGraph())
	if err != nil {
		t.Fatal(err)
	}
	resRef, err := pRef.Run(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.DecryptVec(resRef.Out)

	for _, workers := range []int{1, 4} {
		e := fusedFake{&fakeEngine{}}
		p, err := Prepare(e, fusedGraph())
		if err != nil {
			t.Fatal(err)
		}
		rec := telemetry.NewRunRecorder()
		res, err := p.runWorkers(telemetry.WithRecorder(ctx, rec), in, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.DecryptVec(res.Out); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: fused output %v, chain output %v", workers, got, want)
		}
		count := map[string]int{}
		for _, c := range e.calls {
			count[c]++
		}
		wantCalls := map[string]int{"EncodeVecsAt": 1, "EncryptVec": 1, "RotateMany": 1, "Rotate": 1, "MulPlainPt": 1, "PlainRecombine": 1}
		if !reflect.DeepEqual(count, wantCalls) {
			t.Fatalf("workers=%d: engine calls %v, want %v", workers, count, wantCalls)
		}
		// Bookkeeping is in logical ops: the stage row and the recorder
		// still see all nine, the recombine span covers four of them.
		if row := res.Stages[0]; row.Ops != 8 || row.Level != 3 {
			t.Fatalf("workers=%d: stage row %+v, want 8 ops at level 3", workers, row)
		}
		if got := rec.OpCount(); got != 9 {
			t.Fatalf("workers=%d: recorder saw %d logical ops, want 9", workers, got)
		}
		if k := rec.ByKind()["Recombine"]; k.Calls != 1 || k.Count != 4 {
			t.Fatalf("workers=%d: recombine span %+v, want 1 call covering 4 ops", workers, k)
		}
		if k := rec.ByKind()["MulPlain"]; k.Calls != 1 {
			t.Fatalf("workers=%d: %d standalone MulPlain calls, want 1", workers, k.Calls)
		}
	}
}

// TestFusedRecombineFreesInputs: the inputs of absorbed products are
// released by the fused call, so nothing but the output stays live.
func TestFusedRecombineFreesInputs(t *testing.T) {
	g := fusedGraph()
	p, err := Prepare(fusedFake{&fakeEngine{}}, g)
	if err != nil {
		t.Fatal(err)
	}
	rs := p.newRunState()
	cts, _, _, err := p.EncryptInputs(context.Background(), [][]float64{{1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range p.encryptOps {
		rs.slots[id] = cts[i]
	}
	if err := rs.run(context.Background(), 1, &Result{}); err != nil {
		t.Fatal(err)
	}
	for i := range rs.slots {
		if live := rs.slots[i] != nil; live != (i == g.Output) {
			t.Fatalf("op %d live=%v after the run", i, live)
		}
	}
}

// TestFusedMetricsStayLogical: with metrics on, the per-kind op counters
// still count logical ops — the absorbed products as MulPlain, not as
// recombines — and the hoist counters are untouched by the fused call.
func TestFusedMetricsStayLogical(t *testing.T) {
	telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(false)
	before := telemetry.Default().Snapshot()
	p, err := Prepare(fusedFake{&fakeEngine{}}, fusedGraph())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(context.Background(), [][]float64{{1, 2, 3, 4}}); err != nil {
		t.Fatal(err)
	}
	diff := telemetry.Default().Snapshot().Sub(before)
	ops, _ := diff.Family("cnnhe_exec_ops_total")
	got := map[string]int64{}
	for _, s := range ops.Series {
		if s.Value != 0 {
			got[s.Label("kind")] = int64(s.Value)
		}
	}
	if want := map[string]int64{"Encrypt": 1, "Rotate": 3, "MulPlain": 4, "Recombine": 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ops_total by kind %v, want %v", got, want)
	}
	if f, ok := diff.Family("cnnhe_exec_hoist_groups_total"); !ok || f.Series[0].Value != 1 {
		t.Fatalf("hoist groups counter moved by the fused recombine: %+v", f)
	}
}

// releasingFake is the fused fake engine plus ir.Releaser: it counts the
// releases of each handle and overwrites a released ciphertext with NaN,
// so a read after its release shows in the output.
type releasingFake struct {
	fusedFake
	mu       sync.Mutex
	released map[*fakeCt]int
}

func (f *releasingFake) Release(ct ir.Ct) {
	c := ct.(*fakeCt)
	f.mu.Lock()
	f.released[c]++
	f.mu.Unlock()
	for i := range c.v {
		c.v[i] = math.NaN()
	}
}

// TestReleaseHandsBackEachIntermediateOnce: on an ir.Releaser engine every
// intermediate result goes back to the engine exactly once, after its
// last consumer has run (the output matches a run without releases);
// the encrypted input and the output are never released, nor are the
// products a recombine absorbs, which never exist. One and four workers.
func TestReleaseHandsBackEachIntermediateOnce(t *testing.T) {
	in := [][]float64{{1, 2, 3, 4}}
	ctx := context.Background()
	for _, tc := range []struct {
		name     string
		graph    func() *ir.Graph
		releases int // ops that are neither encrypts, the output nor absorbed
	}{
		{"plain", testGraph, 6},
		{"fused", fusedGraph, 4},
	} {
		ref, err := Prepare(fusedFake{&fakeEngine{}}, tc.graph())
		if err != nil {
			t.Fatal(err)
		}
		resRef, err := ref.Run(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		want := resRef.Out.(*fakeCt).v
		for _, workers := range []int{1, 4} {
			e := &releasingFake{fusedFake: fusedFake{&fakeEngine{}}, released: map[*fakeCt]int{}}
			p, err := Prepare(e, tc.graph())
			if err != nil {
				t.Fatal(err)
			}
			cts, _, _, err := p.EncryptInputs(ctx, in)
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.runEncrypted(ctx, cts, workers)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Out.(*fakeCt).v; !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, %d workers: output %v, want %v", tc.name, workers, got, want)
			}
			if len(e.released) != tc.releases {
				t.Fatalf("%s, %d workers: %d ciphertexts released, want %d", tc.name, workers, len(e.released), tc.releases)
			}
			for _, n := range e.released {
				if n != 1 {
					t.Fatalf("%s, %d workers: a ciphertext was released %d times", tc.name, workers, n)
				}
			}
			if e.released[cts[0].(*fakeCt)] != 0 || e.released[res.Out.(*fakeCt)] != 0 {
				t.Fatalf("%s, %d workers: the input or the output was released", tc.name, workers)
			}
		}
	}
}
