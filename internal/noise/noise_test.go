package noise

import (
	"math"
	"math/rand"
	"testing"

	"cnnhe/internal/ckks"
	"cnnhe/internal/henn/ir"
)

func model(p ckks.Parameters) Model {
	return Model{N: p.N(), Sigma: p.Sigma, H: p.H}
}

// maxSlotErr measures canonical-embedding noise empirically: encrypt a
// vector, operate, decrypt, compare. Errors are converted to coefficient
// units by multiplying with the scale.
func maxSlotErr(got, want []float64, scale float64) float64 {
	m := 0.0
	for i := range want {
		if e := math.Abs(got[i] - want[i]); e > m {
			m = e
		}
	}
	return m * scale
}

func TestFreshNoiseBoundHolds(t *testing.T) {
	p, err := ckks.TinyParameters()
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := ckks.NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(ctx, 1)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	enc := ckks.NewEncoder(ctx)
	ept := ckks.NewEncryptor(ctx, pk, 2)
	dec := ckks.NewDecryptor(ctx, sk)

	rng := rand.New(rand.NewSource(3))
	n := p.Slots()
	bound := model(p).Fresh()
	for trial := 0; trial < 5; trial++ {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64()*2 - 1
		}
		ct := ept.Encrypt(enc.Encode(vals, p.MaxLevel(), p.Scale))
		got := enc.Decode(dec.DecryptNew(ct))
		measured := maxSlotErr(got[:n], vals, p.Scale)
		if measured > bound {
			t.Fatalf("fresh noise %.1f exceeds bound %.1f", measured, bound)
		}
		if measured > bound/3 {
			t.Logf("note: measured %.1f close to bound %.1f", measured, bound)
		}
	}
}

func TestBoundsMonotonic(t *testing.T) {
	small := Model{N: 1 << 10, Sigma: 3.2, H: 64}
	big := Model{N: 1 << 14, Sigma: 3.2, H: 64}
	if small.Fresh() >= big.Fresh() {
		t.Fatal("fresh bound must grow with N")
	}
	if small.Rescale() >= big.Rescale() {
		t.Fatal("rescale bound must grow with N")
	}
	if small.KeySwitch(4, math.Exp2(30), math.Exp2(50)) <=
		small.KeySwitch(4, math.Exp2(30), math.Exp2(60)) {
		t.Fatal("larger P must reduce key-switch noise")
	}
}

// TestBudgetPipeline walks a small graph that uses every op kind through
// Graph and checks each op's bits against its rule, that the budget only
// shrinks along the pipeline, and that an oversized plaintext drowns the
// message.
func TestBudgetPipeline(t *testing.T) {
	p, err := ckks.TinyParameters()
	if err != nil {
		t.Fatal(err)
	}
	m := model(p)
	L, d := p.MaxLevel(), p.Scale
	q := p.QiFloat(L)
	ks := m.KeySwitch(L+1, q, math.Exp2(50))
	w := []float64{0.5, -2, 0.25}
	g := &ir.Graph{Inputs: 1, Stages: []ir.StageInfo{{Name: "s", Out: -1}}, Ops: []ir.Op{
		{Kind: ir.OpEncrypt, Level: L, Scale: d},
		{Kind: ir.OpRotate, Args: []int{0}, K: 1, Hoist: -1, Level: L, Scale: d},
		{Kind: ir.OpAdd, Args: []int{0, 1}, Level: L, Scale: d},
		{Kind: ir.OpMulPlain, Args: []int{2}, Plain: w, PtScale: q, Level: L, Scale: d * q},
		{Kind: ir.OpRecombine, Args: []int{3, 3}, Weights: []int64{1, -3}, Level: L, Scale: d * q},
		{Kind: ir.OpRescale, Args: []int{4}, Level: L - 1, Scale: d * q / q},
		{Kind: ir.OpAddPlain, Args: []int{5}, Plain: w, Level: L - 1, Scale: d},
		{Kind: ir.OpMulRelin, Args: []int{6, 6}, Level: L - 1, Scale: d * d},
		{Kind: ir.OpDropLevel, Args: []int{7}, Drop: 1, Level: L - 2, Scale: d * d},
	}}
	for i := range g.Ops {
		g.Ops[i].ID = i
	}
	g.Output = len(g.Ops) - 1
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	e := make([]float64, len(g.Ops))
	e[0] = m.Fresh()
	e[1] = e[0] + ks
	e[2] = e[0] + e[1]
	e[3] = m.MulPlain(e[2], 2*q) // max|w| = 2
	e[4] = e[3] + 3*e[3]
	e[5] = e[4]/q + m.Rescale()
	e[6] = e[5]
	e[7] = m.Mul(valueBound*d, e[6], valueBound*d, e[6]) + ks
	e[8] = e[7]
	bits := Graph(g, m, ks, p.QiFloat)
	for i, op := range g.Ops {
		if want := math.Log2(op.Scale / e[i]); bits[i] != want {
			t.Errorf("op %d (%s): %v bits, want %v", i, op.Kind, bits[i], want)
		}
		if i > 0 && bits[i] > bits[i-1] {
			t.Errorf("op %d (%s): budget grew from %v to %v bits", i, op.Kind, bits[i-1], bits[i])
		}
	}
	if bits[0] < 10 {
		t.Fatalf("fresh precision too low: %.1f bits", bits[0])
	}
	// A plaintext of magnitude 2^40 costs its product 40 bits more than
	// a unit one.
	g.Ops[3].Plain = []float64{math.Exp2(40)}
	if drop := bits[3] - Graph(g, m, ks, p.QiFloat)[3]; math.Abs(drop-39) > 1e-9 {
		t.Fatalf("a 2^40 plaintext cost %v bits over max|w| = 2, want 39", drop)
	}
}

// TestDepthChainNoiseStaysBounded runs the Tiny depth chain empirically
// and confirms the final error is far below the message.
func TestDepthChainNoiseStaysBounded(t *testing.T) {
	p, err := ckks.TinyParameters()
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := ckks.NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(ctx, 7)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinearizationKey(sk)
	enc := ckks.NewEncoder(ctx)
	ept := ckks.NewEncryptor(ctx, pk, 8)
	dec := ckks.NewDecryptor(ctx, sk)
	ev := ckks.NewEvaluator(ctx, rlk, nil)

	n := p.Slots()
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 0.9
	}
	ct := ept.Encrypt(enc.Encode(vals, p.MaxLevel(), p.Scale))
	want := 0.9
	for l := p.MaxLevel(); l > 0; l-- {
		ct = ev.Rescale(ev.Square(ct))
		want *= want
	}
	got := enc.Decode(dec.DecryptNew(ct))
	if rel := math.Abs(got[0]-want) / want; rel > 1e-3 {
		t.Fatalf("relative error %.2e too large after full depth", rel)
	}
}
