package guard_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"math/big"
	"sync/atomic"
	"testing"

	"cnnhe/internal/ckks"
	"cnnhe/internal/ckksbig"
	"cnnhe/internal/guard"
	"cnnhe/internal/henn"
	"cnnhe/internal/henn/exec"
	"cnnhe/internal/henn/ir"
)

// scaleCounter counts the ciphertexts its engine returns and the ScaleOf
// reads made of any ciphertext.
type scaleCounter struct {
	*henn.RNSEngine
	returned, reads atomic.Int64
}

func (e *scaleCounter) Unwrap() henn.Engine { return e.RNSEngine }

func (e *scaleCounter) ret(ct henn.Ct) henn.Ct { e.returned.Add(1); return ct }

func (e *scaleCounter) ScaleOf(ct henn.Ct) float64 {
	e.reads.Add(1)
	return e.RNSEngine.ScaleOf(ct)
}

func (e *scaleCounter) EncryptVec(v []float64) henn.Ct { return e.ret(e.RNSEngine.EncryptVec(v)) }
func (e *scaleCounter) Add(a, b henn.Ct) henn.Ct       { return e.ret(e.RNSEngine.Add(a, b)) }
func (e *scaleCounter) AddPlainVec(ct henn.Ct, v []float64) henn.Ct {
	return e.ret(e.RNSEngine.AddPlainVec(ct, v))
}
func (e *scaleCounter) AddPlainVecCached(ct henn.Ct, key string, v []float64) henn.Ct {
	return e.ret(e.RNSEngine.AddPlainVecCached(ct, key, v))
}
func (e *scaleCounter) MulPlainVecAtScale(ct henn.Ct, v []float64, scale float64) henn.Ct {
	return e.ret(e.RNSEngine.MulPlainVecAtScale(ct, v, scale))
}
func (e *scaleCounter) MulPlainVecCached(ct henn.Ct, key string, v []float64, scale float64) henn.Ct {
	return e.ret(e.RNSEngine.MulPlainVecCached(ct, key, v, scale))
}
func (e *scaleCounter) MulRelin(a, b henn.Ct) henn.Ct      { return e.ret(e.RNSEngine.MulRelin(a, b)) }
func (e *scaleCounter) MulInt(ct henn.Ct, n int64) henn.Ct { return e.ret(e.RNSEngine.MulInt(ct, n)) }
func (e *scaleCounter) Rescale(ct henn.Ct) henn.Ct         { return e.ret(e.RNSEngine.Rescale(ct)) }
func (e *scaleCounter) DropLevel(ct henn.Ct, n int) henn.Ct {
	return e.ret(e.RNSEngine.DropLevel(ct, n))
}
func (e *scaleCounter) MulPlainPt(ct henn.Ct, pt henn.Pt) henn.Ct {
	return e.ret(e.RNSEngine.MulPlainPt(ct, pt))
}
func (e *scaleCounter) AddPlainPt(ct henn.Ct, pt henn.Pt) henn.Ct {
	return e.ret(e.RNSEngine.AddPlainPt(ct, pt))
}
func (e *scaleCounter) Recombine(args []henn.Ct, weights []int64) henn.Ct {
	return e.ret(e.RNSEngine.Recombine(args, weights))
}
func (e *scaleCounter) PlainRecombine(args []henn.Ct, pts []henn.Pt, weights []int64) henn.Ct {
	return e.ret(e.RNSEngine.PlainRecombine(args, pts, weights))
}

// Rotate and RotateMany return the input itself for k = 0, which is no
// new ciphertext.
func (e *scaleCounter) Rotate(ct henn.Ct, k int) henn.Ct {
	out := e.RNSEngine.Rotate(ct, k)
	if k != 0 {
		e.ret(out)
	}
	return out
}

func (e *scaleCounter) RotateMany(ct henn.Ct, ks []int) map[int]henn.Ct {
	outs := e.RNSEngine.RotateMany(ct, ks)
	for k := range outs {
		if k != 0 {
			e.ret(nil)
		}
	}
	return outs
}

// TestGuardReadsEachScaleOnce: a guarded run reads a ciphertext's scale
// once — the executor's check of each result against the graph, and of
// each input against its encrypt op — never again when the ciphertext is
// used; the guard reads none. On a guarded tiny-plan run the engine's
// ScaleOf is read exactly once per ciphertext it returned, plus once per
// input encrypted elsewhere and handed to RunEncrypted.
func TestGuardReadsEachScaleOnce(t *testing.T) {
	plan := tinyPlan(t)
	full := rnsEngine(t, plan, 95)
	e := &scaleCounter{RNSEngine: full}
	g := guard.New(e, guard.DefaultConfig())
	img := testImage(6, plan.InputDim)

	if _, _, err := plan.InferCtx(context.Background(), g, img); err != nil {
		t.Fatal(err)
	}
	returned, reads := e.returned.Load(), e.reads.Load()
	if returned == 0 || reads != returned {
		t.Fatalf("encrypted run: %d ScaleOf reads for %d ciphertexts the engine returned, want one each", reads, returned)
	}

	prep, _, err := plan.Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := plan.Input.Split(img)
	if err != nil {
		t.Fatal(err)
	}
	e.returned.Store(0)
	e.reads.Store(0)
	wire := make([]henn.Ct, len(parts))
	for i, v := range parts {
		wire[i] = full.EncryptVec(v)
	}
	if _, err := prep.RunEncrypted(context.Background(), wire, exec.Options{}); err != nil {
		t.Fatal(err)
	}
	returned, reads = e.returned.Load(), e.reads.Load()
	if want := returned + int64(len(wire)); returned == 0 || reads != want {
		t.Fatalf("encrypted-input run: %d ScaleOf reads for %d ciphertexts the engine returned and %d inputs, want %d",
			reads, returned, len(wire), want)
	}
}

// ctBytes serializes everything a backend ciphertext holds: level, scale
// bits and every stored coefficient, with a marker for an absent limb or
// coefficient.
func ctBytes(t *testing.T, ct henn.Ct) []byte {
	t.Helper()
	var b bytes.Buffer
	word := func(w uint64) { b.Write(binary.LittleEndian.AppendUint64(nil, w)) }
	switch c := ct.(type) {
	case *ckks.Ciphertext:
		word(uint64(c.Level))
		word(math.Float64bits(c.Scale))
		for _, poly := range [][][]uint64{c.C0.Coeffs, c.C1.Coeffs} {
			word(uint64(len(poly)))
			for _, limb := range poly {
				word(uint64(len(limb)))
				for _, w := range limb {
					word(w)
				}
			}
		}
	case *ckksbig.Ciphertext:
		word(uint64(c.Level))
		word(math.Float64bits(c.Scale))
		for _, poly := range [][]*big.Int{c.C0.Coeffs, c.C1.Coeffs} {
			word(uint64(len(poly)))
			for _, x := range poly {
				if x == nil {
					b.WriteString("nil")
					continue
				}
				b.WriteString(x.Text(16))
				b.WriteByte(';')
			}
		}
	default:
		t.Fatalf("unknown ciphertext type %T", ct)
	}
	return b.Bytes()
}

// TestOpsLeaveOperandsUnchanged: no engine op writes its operands — the
// invariant that lets the guard scan a ciphertext once, when it is made.
// Every ciphertext op of each engine, and the fused call where the engine
// offers it, must leave each operand's coefficients, level and scale
// byte-identical.
func TestOpsLeaveOperandsUnchanged(t *testing.T) {
	plan := tinyPlan(t)
	full, eval := rnsEngineAndEval(t, plan, 97)
	be := bigEngine(t, plan, 97)
	legs := []struct {
		name    string
		e       henn.Engine
		encrypt func([]float64) henn.Ct
	}{
		{"rns", full, full.EncryptVec},
		{"rns-eval", eval, full.EncryptVec},
		{"big", be, be.EncryptVec},
	}
	type operands struct {
		a, b henn.Ct // fresh encryptions at the top level and default scale
		pt   henn.Pt // encoded at the operands' level and scale
		v    []float64
	}
	ops := []struct {
		name string
		run  func(e henn.Engine, o operands) []henn.Ct // the op's results
	}{
		{"Add", func(e henn.Engine, o operands) []henn.Ct { return []henn.Ct{e.Add(o.a, o.b)} }},
		{"AddPlainVec", func(e henn.Engine, o operands) []henn.Ct { return []henn.Ct{e.AddPlainVec(o.a, o.v)} }},
		{"AddPlainVecCached", func(e henn.Engine, o operands) []henn.Ct {
			return []henn.Ct{e.AddPlainVecCached(o.a, "k", o.v)}
		}},
		{"AddPlainPt", func(e henn.Engine, o operands) []henn.Ct { return []henn.Ct{e.AddPlainPt(o.a, o.pt)} }},
		{"MulPlainVecAtScale", func(e henn.Engine, o operands) []henn.Ct {
			return []henn.Ct{e.MulPlainVecAtScale(o.a, o.v, e.Scale())}
		}},
		{"MulPlainVecCached", func(e henn.Engine, o operands) []henn.Ct {
			return []henn.Ct{e.MulPlainVecCached(o.a, "k", o.v, e.Scale())}
		}},
		{"MulPlainPt", func(e henn.Engine, o operands) []henn.Ct { return []henn.Ct{e.MulPlainPt(o.a, o.pt)} }},
		{"MulRelin", func(e henn.Engine, o operands) []henn.Ct { return []henn.Ct{e.MulRelin(o.a, o.b)} }},
		{"MulInt", func(e henn.Engine, o operands) []henn.Ct { return []henn.Ct{e.MulInt(o.a, -3)} }},
		{"Rescale", func(e henn.Engine, o operands) []henn.Ct { return []henn.Ct{e.Rescale(o.a)} }},
		{"DropLevel", func(e henn.Engine, o operands) []henn.Ct { return []henn.Ct{e.DropLevel(o.a, 1)} }},
		{"Rotate", func(e henn.Engine, o operands) []henn.Ct { return []henn.Ct{e.Rotate(o.a, 1)} }},
		{"RotateMany", func(e henn.Engine, o operands) []henn.Ct {
			var outs []henn.Ct
			for _, ct := range e.RotateMany(o.a, []int{1, 3}) {
				outs = append(outs, ct)
			}
			return outs
		}},
		{"PlainRecombine", func(e henn.Engine, o operands) []henn.Ct {
			pr, ok := e.(ir.PlainRecombiner)
			if !ok {
				return nil
			}
			prod := e.MulPlainPt(o.b, o.pt)
			return []henn.Ct{pr.PlainRecombine([]henn.Ct{o.a, prod, o.b}, []henn.Pt{o.pt, nil, o.pt}, []int64{1, -3, 1})}
		}},
	}
	in, plains := fixtureVecs(full.Slots())
	for _, leg := range legs {
		pt := leg.e.EncodeVecsAt([]henn.PlainSpec{{Values: plains[0], Level: leg.e.MaxLevel(), Scale: leg.e.Scale()}})[0]
		for _, op := range ops {
			t.Run(leg.name+"/"+op.name, func(t *testing.T) {
				o := operands{a: leg.encrypt(in), b: leg.encrypt(plains[1]), pt: pt, v: plains[2]}
				before := [][]byte{ctBytes(t, o.a), ctBytes(t, o.b)}
				outs := op.run(leg.e, o)
				if op.name == "PlainRecombine" && outs == nil {
					t.Skipf("%s offers no fused call", leg.name)
				}
				for i, ct := range []henn.Ct{o.a, o.b} {
					if !bytes.Equal(ctBytes(t, ct), before[i]) {
						t.Fatalf("%s changed operand %d", op.name, i)
					}
				}
				for _, out := range outs {
					if out == o.a || out == o.b {
						t.Fatalf("%s returned an operand as its result", op.name)
					}
				}
			})
		}
	}
}
