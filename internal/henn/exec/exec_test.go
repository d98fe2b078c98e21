package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cnnhe/internal/henn/ir"
)

// fakeCt/fakePt evaluate the graph over plain float vectors so scheduler
// behaviour (ordering, hoisting, freeing, parallelism) is testable
// without a CKKS backend.
type fakeCt struct {
	v     []float64
	level int
	scale float64
}

type fakePt struct {
	v     []float64
	level int
	scale float64
}

type fakeEngine struct {
	mu      sync.Mutex
	quiet   bool // skip call logging (keeps benchmark memory flat)
	calls   []string
	stages  []string
	panicOn string
}

func (f *fakeEngine) log(op string) {
	if f.quiet {
		return
	}
	f.mu.Lock()
	f.calls = append(f.calls, op)
	panicOn := f.panicOn
	f.mu.Unlock()
	if panicOn == op {
		panic(errors.New("fake: induced failure in " + op))
	}
}

func (f *fakeEngine) BeginStage(name string) {
	f.mu.Lock()
	f.stages = append(f.stages, name)
	f.mu.Unlock()
}

func (f *fakeEngine) Name() string              { return "fake" }
func (f *fakeEngine) Slots() int                { return 4 }
func (f *fakeEngine) MaxLevel() int             { return 3 }
func (f *fakeEngine) Scale() float64            { return 1 }
func (f *fakeEngine) QiFloat(level int) float64 { return 2 }

func (f *fakeEngine) EncryptVec(values []float64) ir.Ct {
	f.log("EncryptVec")
	v := make([]float64, f.Slots())
	copy(v, values)
	return &fakeCt{v: v, level: f.MaxLevel(), scale: f.Scale()}
}

func (f *fakeEngine) DecryptVec(ct ir.Ct) []float64 { return ct.(*fakeCt).v }
func (f *fakeEngine) Level(ct ir.Ct) int            { return ct.(*fakeCt).level }
func (f *fakeEngine) ScaleOf(ct ir.Ct) float64      { return ct.(*fakeCt).scale }

func (f *fakeEngine) lift(ct ir.Ct, op string) *fakeCt {
	f.log(op)
	c := ct.(*fakeCt)
	v := make([]float64, len(c.v))
	copy(v, c.v)
	return &fakeCt{v: v, level: c.level, scale: c.scale}
}

func (f *fakeEngine) Add(a, b ir.Ct) ir.Ct {
	out := f.lift(a, "Add")
	for i, x := range b.(*fakeCt).v {
		out.v[i] += x
	}
	return out
}

func (f *fakeEngine) AddPlainVec(ct ir.Ct, v []float64) ir.Ct {
	out := f.lift(ct, "AddPlainVec")
	for i := range v {
		out.v[i] += v[i]
	}
	return out
}

func (f *fakeEngine) AddPlainVecCached(ct ir.Ct, key string, v []float64) ir.Ct {
	return f.AddPlainVec(ct, v)
}

func (f *fakeEngine) MulPlainVecAtScale(ct ir.Ct, v []float64, scale float64) ir.Ct {
	out := f.lift(ct, "MulPlainVecAtScale")
	for i := range out.v {
		if i < len(v) {
			out.v[i] *= v[i]
		} else {
			out.v[i] = 0
		}
	}
	out.scale *= scale
	return out
}

func (f *fakeEngine) MulPlainVecCached(ct ir.Ct, key string, v []float64, scale float64) ir.Ct {
	return f.MulPlainVecAtScale(ct, v, scale)
}

func (f *fakeEngine) MulRelin(a, b ir.Ct) ir.Ct {
	out := f.lift(a, "MulRelin")
	bc := b.(*fakeCt)
	for i := range out.v {
		out.v[i] *= bc.v[i]
	}
	out.scale *= bc.scale
	return out
}

func (f *fakeEngine) MulInt(ct ir.Ct, n int64) ir.Ct {
	out := f.lift(ct, "MulInt")
	for i := range out.v {
		out.v[i] *= float64(n)
	}
	return out
}

func (f *fakeEngine) Rescale(ct ir.Ct) ir.Ct {
	out := f.lift(ct, "Rescale")
	out.scale /= f.QiFloat(out.level)
	out.level--
	return out
}

func (f *fakeEngine) DropLevel(ct ir.Ct, n int) ir.Ct {
	out := f.lift(ct, "DropLevel")
	out.level -= n
	return out
}

func rotated(v []float64, k int) []float64 {
	n := len(v)
	out := make([]float64, n)
	for i := range v {
		out[i] = v[(i+k%n+n)%n]
	}
	return out
}

func (f *fakeEngine) Rotate(ct ir.Ct, k int) ir.Ct {
	out := f.lift(ct, "Rotate")
	out.v = rotated(out.v, k)
	return out
}

func (f *fakeEngine) RotateMany(ct ir.Ct, ks []int) map[int]ir.Ct {
	f.log("RotateMany")
	c := ct.(*fakeCt)
	out := make(map[int]ir.Ct, len(ks))
	for _, k := range ks {
		out[k] = &fakeCt{v: rotated(c.v, k), level: c.level, scale: c.scale}
	}
	return out
}

func (f *fakeEngine) EncodeVecsAt(specs []ir.PlainSpec) []ir.Pt {
	f.log("EncodeVecsAt")
	out := make([]ir.Pt, len(specs))
	for i, s := range specs {
		out[i] = &fakePt{v: s.Values, level: s.Level, scale: s.Scale}
	}
	return out
}

func (f *fakeEngine) MulPlainPt(ct ir.Ct, pt ir.Pt) ir.Ct {
	p := pt.(*fakePt)
	out := f.lift(ct, "MulPlainPt")
	for i := range out.v {
		if i < len(p.v) {
			out.v[i] *= p.v[i]
		} else {
			out.v[i] = 0
		}
	}
	out.scale *= p.scale
	return out
}

func (f *fakeEngine) AddPlainPt(ct ir.Ct, pt ir.Pt) ir.Ct {
	p := pt.(*fakePt)
	out := f.lift(ct, "AddPlainPt")
	for i := range p.v {
		out.v[i] += p.v[i]
	}
	return out
}

var _ ir.Engine = (*fakeEngine)(nil)

// testGraph builds, by hand, a two-stage graph exercising every executor
// path: a hoist group, standalone ops, a plaintext multiply and add, a
// squaring, a rescale, and a final recombine-free output.
//
//	stage 0: encrypt x                             (not recorded)
//	stage 1: r1 = rot(x,1); r2 = rot(x,2) [hoisted]
//	         s  = r1 + r2
//	         m  = s ⊙ w        (w = [1,2,3,4], scale 2)
//	         a  = m + b        (b = [0.5,...])
//	         y  = rescale(a·a)
func testGraph() *ir.Graph {
	g := &ir.Graph{Slots: 4, Inputs: 1, Output: 7}
	g.Stages = []ir.StageInfo{
		{Name: "encrypt", Out: 0, Record: false},
		{Name: "stage 0 (mix)", Out: 7, Record: true},
	}
	add := func(op ir.Op) int {
		op.ID = len(g.Ops)
		g.Ops = append(g.Ops, op)
		return op.ID
	}
	x := add(ir.Op{Kind: ir.OpEncrypt, Hoist: -1, Stage: 0, Level: 3, Scale: 1})
	r1 := add(ir.Op{Kind: ir.OpRotate, Args: []int{x}, K: 1, Hoist: 0, Stage: 1, Level: 3, Scale: 1})
	r2 := add(ir.Op{Kind: ir.OpRotate, Args: []int{x}, K: 2, Hoist: 0, Stage: 1, Level: 3, Scale: 1})
	s := add(ir.Op{Kind: ir.OpAdd, Args: []int{r1, r2}, Hoist: -1, Stage: 1, Level: 3, Scale: 1})
	m := add(ir.Op{Kind: ir.OpMulPlain, Args: []int{s}, Hoist: -1, Stage: 1,
		Plain: []float64{1, 2, 3, 4}, PlainKey: "w", PtScale: 2, Level: 3, Scale: 2})
	a := add(ir.Op{Kind: ir.OpAddPlain, Args: []int{m}, Hoist: -1, Stage: 1,
		Plain: []float64{0.5, 0.5, 0.5, 0.5}, PlainKey: "b", PtScale: 2, Level: 3, Scale: 2})
	sq := add(ir.Op{Kind: ir.OpMulRelin, Args: []int{a, a}, Hoist: -1, Stage: 1, Level: 3, Scale: 4})
	add(ir.Op{Kind: ir.OpRescale, Args: []int{sq}, Hoist: -1, Stage: 1, Level: 2, Scale: 2})
	g.Hoists = [][]int{{r1, r2}}
	return g
}

// wantOutput mirrors testGraph over plain floats.
func wantOutput(x []float64) []float64 {
	r1, r2 := rotated(x, 1), rotated(x, 2)
	w := []float64{1, 2, 3, 4}
	out := make([]float64, 4)
	for i := range out {
		v := (r1[i]+r2[i])*w[i] + 0.5
		out[i] = v * v
	}
	return out
}

func runGraph(t *testing.T, e *fakeEngine, opts Options) (*Result, []float64) {
	t.Helper()
	g := testGraph()
	p, err := Prepare(e, g)
	if err != nil {
		t.Fatal(err)
	}
	cts, _, _, err := p.EncryptInputs(context.Background(), [][]float64{{1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.RunEncrypted(context.Background(), cts, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, e.DecryptVec(res.Out)
}

func TestSequentialRun(t *testing.T) {
	e := &fakeEngine{}
	res, got := runGraph(t, e, Options{})
	if want := wantOutput([]float64{1, 2, 3, 4}); !reflect.DeepEqual(got, want) {
		t.Fatalf("output %v, want %v", got, want)
	}
	if len(res.Stages) != 1 {
		t.Fatalf("%d stage rows, want 1 (encrypt is unrecorded)", len(res.Stages))
	}
	row := res.Stages[0]
	if row.Name != "stage 0 (mix)" || row.Level != 2 || row.Scale != 2 || row.Ops != 7 {
		t.Fatalf("stage row %+v", row)
	}
	// One hoisted RotateMany, no standalone Rotate, AOT plain ops only.
	joined := strings.Join(e.calls, ",")
	if strings.Contains(joined, "Rotate,") && !strings.Contains(joined, "RotateMany") {
		t.Fatalf("hoist group not executed via RotateMany: %v", e.calls)
	}
	for _, c := range e.calls {
		if c == "MulPlainVecCached" || c == "AddPlainVecCached" {
			t.Fatalf("lazy cached path used: %v", e.calls)
		}
	}
	wantCalls := []string{"EncodeVecsAt", "EncryptVec", "RotateMany", "Add", "MulPlainPt", "AddPlainPt", "MulRelin", "Rescale"}
	if !reflect.DeepEqual(e.calls, wantCalls) {
		t.Fatalf("calls %v, want %v", e.calls, wantCalls)
	}
	if !reflect.DeepEqual(e.stages, []string{"encrypt", "stage 0 (mix)"}) {
		t.Fatalf("stage announcements %v", e.stages)
	}
}

// TestParallelMatchesSequential forces four workers onto the one-input
// graph: the concurrent schedule gives the one-worker output.
func TestParallelMatchesSequential(t *testing.T) {
	_, seq := runGraph(t, &fakeEngine{}, Options{})
	p, err := Prepare(&fakeEngine{}, testGraph())
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.runWorkers(context.Background(), [][]float64{{1, 2, 3, 4}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if par := res.Out.(*fakeCt).v; !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel %v != sequential %v", par, seq)
	}
}

func TestPlaintextDedup(t *testing.T) {
	g := testGraph()
	// Reference the same keyed constant twice: still one encode spec.
	last := g.Ops[g.Output]
	dup := ir.Op{ID: len(g.Ops), Kind: ir.OpMulPlain, Args: []int{g.Output}, Hoist: -1, Stage: 1,
		Plain: []float64{1, 2, 3, 4}, PlainKey: "w", PtScale: 2, Level: last.Level, Scale: last.Scale * 2}
	g.Ops = append(g.Ops, dup)
	g.Output = dup.ID
	g.Stages[1].Out = dup.ID
	e := &fakeEngine{}
	p, err := Prepare(e, g)
	if err != nil {
		t.Fatal(err)
	}
	// "w" appears twice but at different levels (3 vs 2): two specs. Add a
	// true duplicate at the same (key, level, scale) and re-prepare.
	if p.pts[4] == p.pts[dup.ID] {
		t.Fatal("distinct (level, scale) encodings were merged")
	}
	tri := ir.Op{ID: len(g.Ops), Kind: ir.OpMulPlain, Args: []int{dup.ID}, Hoist: -1, Stage: 1,
		Plain: []float64{1, 2, 3, 4}, PlainKey: "w", PtScale: 2, Level: dup.Level, Scale: dup.Scale * 2}
	g.Ops = append(g.Ops, tri)
	g.Output = tri.ID
	g.Stages[1].Out = tri.ID
	p, err = Prepare(e, g)
	if err != nil {
		t.Fatal(err)
	}
	if p.pts[dup.ID] != p.pts[tri.ID] {
		t.Fatal("same (key, level, scale) encoded twice")
	}
}

func TestRefCountFreesSlots(t *testing.T) {
	g := testGraph()
	p, err := Prepare(&fakeEngine{}, g)
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
		if i == g.Output {
			if rs.slots[i] == nil {
				t.Fatal("output was freed")
			}
			continue
		}
		if rs.slots[i] != nil {
			t.Fatalf("intermediate op %d still live after last use", i)
		}
	}
}

func TestRunFailure(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e := &fakeEngine{panicOn: "MulRelin"}
		p, err := Prepare(e, testGraph())
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.runWorkers(context.Background(), [][]float64{{1, 2, 3, 4}}, workers)
		if err == nil {
			t.Fatalf("workers=%d: failure not surfaced", workers)
		}
		if !strings.Contains(err.Error(), "induced failure") {
			t.Fatalf("workers=%d: error %v does not carry the cause", workers, err)
		}
		if res.FailedStage != "stage 0 (mix)" {
			t.Fatalf("workers=%d: failed stage %q", workers, res.FailedStage)
		}
	}
}

// shardGraph builds a four-input graph whose inputs meet only in the
// last stage, so the executor runs it on four workers:
//
//	stage i (shard i), i < 4: r_i = rot(x_i, i+1)   (shard 2: r_2 = r_2·r_2)
//	stage 4 (sum):            y = (r_0 + r_1) + (r_2 + r_3)
//
// Shard 2's MulRelin is the graph's only one, so a fakeEngine that fails
// on it fails exactly that shard.
func shardGraph() *ir.Graph {
	const n = 4
	g := &ir.Graph{Slots: 4, Inputs: n}
	add := func(op ir.Op) int {
		op.ID = len(g.Ops)
		op.Hoist = -1
		g.Ops = append(g.Ops, op)
		return op.ID
	}
	var outs []int
	for i := 0; i < n; i++ {
		st := len(g.Stages)
		g.Stages = append(g.Stages, ir.StageInfo{Name: fmt.Sprintf("shard %d", i), Record: true})
		x := add(ir.Op{Kind: ir.OpEncrypt, InputIdx: i, Stage: st, Level: 3, Scale: 1})
		r := add(ir.Op{Kind: ir.OpRotate, Args: []int{x}, K: i + 1, Stage: st, Level: 3, Scale: 1})
		if i == 2 {
			r = add(ir.Op{Kind: ir.OpMulRelin, Args: []int{r, r}, Stage: st, Level: 3, Scale: 1})
		}
		g.Stages[st].Out = r
		outs = append(outs, r)
	}
	st := len(g.Stages)
	g.Stages = append(g.Stages, ir.StageInfo{Name: "sum", Record: true})
	a := add(ir.Op{Kind: ir.OpAdd, Args: []int{outs[0], outs[1]}, Stage: st, Level: 3, Scale: 1})
	b := add(ir.Op{Kind: ir.OpAdd, Args: []int{outs[2], outs[3]}, Stage: st, Level: 3, Scale: 1})
	g.Output = add(ir.Op{Kind: ir.OpAdd, Args: []int{a, b}, Stage: st, Level: 3, Scale: 1})
	g.Stages[st].Out = g.Output
	return g
}

// cancelOnMulRelin cancels a run's context from inside shard 2's op.
type cancelOnMulRelin struct {
	*fakeEngine
	cancel context.CancelFunc
}

func (c cancelOnMulRelin) MulRelin(a, b ir.Ct) ir.Ct {
	c.cancel()
	return c.fakeEngine.MulRelin(a, b)
}

// barrierEngine holds every Rotate until n are in flight at once, which
// only n concurrent workers can bring about; after a timeout it lets
// them go, and all stays open.
type barrierEngine struct {
	*fakeEngine
	n       int
	mu      sync.Mutex
	arrived int
	all     chan struct{}
}

func (b *barrierEngine) Rotate(ct ir.Ct, k int) ir.Ct {
	b.mu.Lock()
	if b.arrived++; b.arrived == b.n {
		close(b.all)
	}
	b.mu.Unlock()
	select {
	case <-b.all:
	case <-time.After(10 * time.Second):
	}
	return b.fakeEngine.Rotate(ct, k)
}

// TestMultiInputRunStops: a four-input graph runs on four workers at
// once; when one shard's op fails, or the context is cancelled mid-run,
// the run returns with the failing stage named and every worker gone.
func TestMultiInputRunStops(t *testing.T) {
	shards := [][]float64{{1, 2, 3, 4}, {5, 6, 7, 8}, {9, 10, 11, 12}, {13, 14, 15, 16}}
	run := func(t *testing.T, ctx context.Context, e ir.Engine) (*Result, error) {
		t.Helper()
		p, err := Prepare(e, shardGraph())
		if err != nil {
			t.Fatal(err)
		}
		if len(p.encryptOps) != 4 {
			t.Fatalf("%d encrypt ops, want 4", len(p.encryptOps))
		}
		cts, _, _, err := p.EncryptInputs(context.Background(), shards)
		if err != nil {
			t.Fatal(err)
		}
		base := runtime.NumGoroutine()
		type outcome struct {
			res *Result
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			res, err := p.RunEncrypted(ctx, cts, Options{})
			done <- outcome{res, err}
		}()
		var o outcome
		select {
		case o = <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("the run did not return")
		}
		// The run's own goroutine sends before it exits; the workers
		// are gone before RunEncrypted returns.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
		return o.res, o.err
	}

	t.Run("ok", func(t *testing.T) {
		e := &barrierEngine{fakeEngine: &fakeEngine{}, n: 4, all: make(chan struct{})}
		res, err := run(t, context.Background(), e)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-e.all:
		default:
			t.Fatal("the four shards' rotations never ran at once")
		}
		want := make([]float64, 4)
		for i, x := range shards {
			r := rotated(x, i+1)
			for j := range want {
				if i == 2 {
					r[j] *= r[j]
				}
				want[j] += r[j]
			}
		}
		if got := e.DecryptVec(res.Out); !reflect.DeepEqual(got, want) {
			t.Fatalf("output %v, want %v", got, want)
		}
		if len(res.Stages) != 5 {
			t.Fatalf("%d stage rows, want 5", len(res.Stages))
		}
	})
	t.Run("failure", func(t *testing.T) {
		for i := 0; i < 20; i++ {
			res, err := run(t, context.Background(), &fakeEngine{panicOn: "MulRelin"})
			if err == nil || !strings.Contains(err.Error(), "induced failure") {
				t.Fatalf("error %v, want the induced failure", err)
			}
			if res.FailedStage != "shard 2" {
				t.Fatalf("failed stage %q, want shard 2", res.FailedStage)
			}
		}
	})
	t.Run("cancel", func(t *testing.T) {
		for i := 0; i < 20; i++ {
			ctx, cancel := context.WithCancel(context.Background())
			res, err := run(t, ctx, cancelOnMulRelin{&fakeEngine{}, cancel})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("error %v, want context.Canceled", err)
			}
			// Only tasks after shard 2's op can see the cancellation:
			// another shard's, or the sum's.
			if res.FailedStage == "" || res.FailedStage == "shard 2" {
				t.Fatalf("failed stage %q", res.FailedStage)
			}
		}
	})
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p, err := Prepare(&fakeEngine{}, testGraph())
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(ctx, [][]float64{{1, 2, 3, 4}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	if res.FailedStage == "" {
		t.Fatal("cancellation did not name a stage")
	}
}

func TestBadInputCount(t *testing.T) {
	p, err := Prepare(&fakeEngine{}, testGraph())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := p.EncryptInputs(context.Background(), nil); err == nil {
		t.Fatal("zero inputs accepted for a 1-input graph")
	}
}

func TestStatsNoise(t *testing.T) {
	// fakeEngine is not noiseAware: rows carry NaN.
	res, _ := runGraph(t, &fakeEngine{}, Options{})
	if !math.IsNaN(res.Stages[0].NoiseBits) {
		t.Fatalf("noise bits %v, want NaN", res.Stages[0].NoiseBits)
	}
	if res.Stages[0].Duration <= 0 {
		t.Fatal("stage duration not measured")
	}
}

// noisyEngine is a noise-aware fakeEngine: op i keeps −i bits, or every
// graph is refused with refuse.
type noisyEngine struct {
	fakeEngine
	refuse error
}

func (e *noisyEngine) NoiseBits(g *ir.Graph) ([]float64, error) {
	if e.refuse != nil {
		return nil, e.refuse
	}
	bits := make([]float64, len(g.Ops))
	for i := range bits {
		bits[i] = -float64(i)
	}
	return bits, nil
}

// TestStatsNoiseFromEngine: a noise-aware engine's per-op bits reach the
// stage rows, and its refusal fails Prepare and On.
func TestStatsNoiseFromEngine(t *testing.T) {
	g := testGraph()
	p, err := Prepare(&noisyEngine{}, g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background(), [][]float64{{1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Stages[0].NoiseBits, -float64(g.Stages[1].Out); got != want {
		t.Fatalf("stage row noise bits %v, want op %d's %v", got, g.Stages[1].Out, want)
	}
	refusal := errors.New("refused")
	if _, err := Prepare(&noisyEngine{refuse: refusal}, g); !errors.Is(err, refusal) {
		t.Fatalf("Prepare: %v, want the engine's refusal", err)
	}
	if _, err := p.On(&noisyEngine{refuse: refusal}); !errors.Is(err, refusal) {
		t.Fatalf("On: %v, want the engine's refusal", err)
	}
}

// TestRunEncryptedRejectsMismatchedInput: an input at another scale or
// level than its encrypt op's is refused, naming it, before any op runs.
func TestRunEncryptedRejectsMismatchedInput(t *testing.T) {
	e := &fakeEngine{}
	p, err := Prepare(e, testGraph())
	if err != nil {
		t.Fatal(err)
	}
	for _, ct := range []*fakeCt{{level: 3, scale: 2}, {level: 2, scale: 1}} {
		ct.v = make([]float64, 4)
		e.calls = nil
		res, err := p.RunEncrypted(context.Background(), []ir.Ct{ct}, Options{})
		if !errors.Is(err, ErrInputMismatch) || !strings.Contains(err.Error(), "input 0") {
			t.Fatalf("level %d, scale %v: %v, want ErrInputMismatch naming input 0", ct.level, ct.scale, err)
		}
		if len(e.calls) != 0 || res.FailedStage != "encrypt" {
			t.Fatalf("level %d, scale %v: ran %v, failed stage %q", ct.level, ct.scale, e.calls, res.FailedStage)
		}
	}
	if _, err := p.RunEncrypted(context.Background(), []ir.Ct{"not a ciphertext"}, Options{}); !errors.Is(err, ErrInputMismatch) {
		t.Fatalf("unreadable handle: %v, want ErrInputMismatch", err)
	}
}

func TestPrepareRejectsInvalidGraph(t *testing.T) {
	g := testGraph()
	g.Ops[3].Args = []int{5, 1} // forward reference: not topological
	if _, err := Prepare(&fakeEngine{}, g); err == nil {
		t.Fatal("invalid graph accepted")
	}
}

func init() {
	// Guard against fixture drift: the hand-built graph must stay valid.
	if err := testGraph().Validate(); err != nil {
		panic(fmt.Sprintf("test fixture invalid: %v", err))
	}
}
