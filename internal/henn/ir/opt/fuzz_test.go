package opt

import (
	"encoding/binary"
	"math"
	"testing"

	"cnnhe/internal/henn/ir"
)

// fuzzPrime is the modulus of the fake engine: every slot is an integer
// mod p, so evaluation is exact and any re-association the optimizer
// does must reproduce the unoptimized values bit for bit.
const fuzzPrime = 1<<31 - 1

// modP reduces a signed integer into [0, p).
func modP(v int64) uint64 { return uint64((v%fuzzPrime + fuzzPrime) % fuzzPrime) }

// evalModP evaluates g on the fake engine: rotations shift slots,
// plaintext operands are integers, and Add/Recombine are exact integer
// linear combinations mod p. It returns every op's value.
func evalModP(t *testing.T, g *ir.Graph, inputs [][]uint64) [][]uint64 {
	vals := make([][]uint64, len(g.Ops))
	for i, op := range g.Ops {
		out := make([]uint64, g.Slots)
		for j := range out {
			switch op.Kind {
			case ir.OpEncrypt:
				out[j] = inputs[op.InputIdx][j]
			case ir.OpRotate:
				n := len(out)
				out[j] = vals[op.Args[0]][((j+op.K)%n+n)%n]
			case ir.OpMulPlain:
				out[j] = vals[op.Args[0]][j] * modP(int64(op.Plain[j])) % fuzzPrime
			case ir.OpAddPlain:
				out[j] = (vals[op.Args[0]][j] + modP(int64(op.Plain[j]))) % fuzzPrime
			case ir.OpAdd:
				out[j] = (vals[op.Args[0]][j] + vals[op.Args[1]][j]) % fuzzPrime
			case ir.OpRecombine:
				for a, arg := range op.Args {
					out[j] = (out[j] + modP(op.Weights[a])*vals[arg][j]) % fuzzPrime
				}
			default:
				t.Fatalf("fake engine: unsupported op %v", op.Kind)
			}
		}
		vals[i] = out
	}
	return vals
}

// fuzzGraph builds a valid graph from data: inputs encrypts, then ops
// until data runs out. Each op reads a kind byte (bit 7 opens a new
// stage) and its operands: a rotation its source, k and hoisted-ness; a
// MulPlain or AddPlain its source and four integer slots; an Add two
// sources; a Recombine its arity, sources and weights (0 → MinInt64,
// 1 → MaxInt64, 2 → −1, 3 → eight raw bytes, else the signed byte).
// Plaintext scales are 1, so every ciphertext shares one level and scale
// and any sum is well formed.
func fuzzGraph(data []byte) *ir.Graph {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	g := &ir.Graph{Slots: 4, Inputs: 1 + int(next()%2), Stages: []ir.StageInfo{{Name: "encrypt"}}}
	emit := func(op ir.Op) {
		op.ID, op.Stage = len(g.Ops), len(g.Stages)-1
		if op.Kind != ir.OpRotate {
			op.Hoist = -1
		}
		g.Ops = append(g.Ops, op)
		g.Stages[op.Stage].Out = op.ID
	}
	for i := 0; i < g.Inputs; i++ {
		emit(ir.Op{Kind: ir.OpEncrypt, InputIdx: i})
	}
	pick := func() int { return int(next()) % len(g.Ops) }
	plain := func() []float64 {
		v := make([]float64, g.Slots)
		for j := range v {
			v[j] = float64(int8(next()))
		}
		return v
	}
	weight := func() int64 {
		switch b := next(); b {
		case 0:
			return math.MinInt64
		case 1:
			return math.MaxInt64
		case 2:
			return -1
		case 3:
			var raw [8]byte
			for j := range raw {
				raw[j] = next()
			}
			return int64(binary.LittleEndian.Uint64(raw[:]))
		default:
			return int64(int8(b))
		}
	}
	groupOf := map[int]int{}
	rotated := map[[2]int]bool{}
	for len(data) > 0 && len(g.Ops) < 48 {
		kind := next()
		if kind&0x80 != 0 {
			g.Stages = append(g.Stages, ir.StageInfo{Name: "s", Out: -1, Record: true})
		}
		switch (kind & 0x7f) % 5 {
		case 0:
			src, k, hoisted := pick(), 1+int(next()%3), next()%2 == 1
			op := ir.Op{Kind: ir.OpRotate, Args: []int{src}, K: k, Hoist: -1}
			if hoisted {
				if rotated[[2]int{src, k}] {
					continue // lowering never repeats a hoisted (source, k)
				}
				rotated[[2]int{src, k}] = true
				h, ok := groupOf[src]
				if !ok {
					h = len(g.Hoists)
					groupOf[src] = h
					g.Hoists = append(g.Hoists, nil)
				}
				op.Hoist = h
				g.Hoists[h] = append(g.Hoists[h], len(g.Ops))
			}
			emit(op)
		case 1:
			emit(ir.Op{Kind: ir.OpMulPlain, Args: []int{pick()}, Plain: plain(), PtScale: 1})
		case 2:
			emit(ir.Op{Kind: ir.OpAddPlain, Args: []int{pick()}, Plain: plain()})
		case 3:
			emit(ir.Op{Kind: ir.OpAdd, Args: []int{pick(), pick()}})
		case 4:
			op := ir.Op{Kind: ir.OpRecombine}
			for n := 1 + int(next()%4); len(op.Args) < n; {
				op.Args = append(op.Args, pick())
				if len(op.Weights) == 0 {
					op.Weights = append(op.Weights, 1)
				} else {
					op.Weights = append(op.Weights, weight())
				}
			}
			emit(op)
		}
	}
	g.Output = len(g.Ops) - 1
	return g
}

// FuzzOptimize checks Optimize on random valid graphs against the exact
// fake engine: the optimized graph validates, computes the same output
// and stage values, and never pays more engine calls.
func FuzzOptimize(f *testing.F) {
	// A nested recombine whose accumulated weight multiplies MinInt64
	// by −1: fused with the wrapped product it computes another sum.
	f.Add([]byte{0,
		1, 0, 1, 1, 1, 1, // 1: MulPlain(0, 1)
		1, 0, 2, 2, 2, 2, // 2: MulPlain(0, 2)
		4, 1, 1, 2, 2, // 3: Recombine(1, 2; 1, −1)
		1, 0, 3, 3, 3, 3, // 4: MulPlain(0, 3)
		4, 1, 4, 3, 0, // 5: Recombine(4, 3; 1, MinInt64)
	})
	// Two inputs, a hoisted fan-out and an Add tree across two stages.
	f.Add([]byte{1,
		0, 0, 1, 1, 0, 0, 2, 1, 0, 1, 3, 0, // hoisted and standalone rotations
		1, 2, 5, 6, 7, 8, 1, 3, 1, 1, 1, 1, 3, 6, 7,
		0x83, 8, 4, 0x84, 3, 9, 8, 5, 200, 2, 7,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzGraph(data)
		if err := derive(g); err != nil {
			t.Fatalf("generator built an ill-formed graph: %v", err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("generator built an invalid graph: %v", err)
		}
		res, err := Optimize(fakeParams{}, g, nil)
		if err != nil {
			t.Fatalf("optimize: %v", err)
		}
		if err := res.Graph.Validate(); err != nil {
			t.Fatalf("optimized graph invalid: %v", err)
		}
		if res.After.EngineCalls > res.Before.EngineCalls {
			t.Fatalf("engine calls rose %d → %d", res.Before.EngineCalls, res.After.EngineCalls)
		}
		inputs := make([][]uint64, g.Inputs)
		for i := range inputs {
			inputs[i] = make([]uint64, g.Slots)
			for j := range inputs[i] {
				inputs[i][j] = modP(int64(1_000_003*(i*g.Slots+j) + 12_345))
			}
		}
		want, got := evalModP(t, g, inputs), evalModP(t, res.Graph, inputs)
		same := func(a, b []uint64) bool {
			for j := range a {
				if a[j] != b[j] {
					return false
				}
			}
			return true
		}
		if !same(want[g.Output], got[res.Graph.Output]) {
			t.Fatalf("output %v, want %v", got[res.Graph.Output], want[g.Output])
		}
		for s, st := range g.Stages {
			if st.Out >= 0 && !same(want[st.Out], got[res.Graph.Stages[s].Out]) {
				t.Fatalf("stage %d value %v, want %v", s, got[res.Graph.Stages[s].Out], want[st.Out])
			}
		}
	})
}
