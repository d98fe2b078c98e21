package ir

import (
	"math"
	"strings"
	"testing"
)

// chain is a three-level modulus chain with distinct primes, so a
// rescale's divisor shows which level it read.
type chain struct{}

func (chain) MaxLevel() int             { return 2 }
func (chain) Scale() float64            { return 1 << 20 }
func (chain) QiFloat(level int) float64 { return float64(uint64(1)<<20 + uint64(level)) }

// TestDerive: every kind's derived (Level, Scale) — and an AddPlain's
// PtScale — and every refusal of the one rule lowering, the optimizer
// and the executor share. Each row is one op appended to a graph of
// fixed arguments: 0 a fresh encryption, 1 a level-1 ciphertext at Δ,
// 2 a level-0 one at Δ, 3 a top-level one at Δ·(1+2^-41), 4 one at
// Δ·(1+2^-39).
func TestDerive(t *testing.T) {
	const d = 1 << 20
	args := []Op{
		{Kind: OpEncrypt},
		{Level: 1, Scale: d},
		{Level: 0, Scale: d},
		{Level: 2, Scale: d * (1 + math.Exp2(-41))},
		{Level: 2, Scale: d * (1 + math.Exp2(-39))},
	}
	for _, tc := range []struct {
		name  string
		op    Op
		level int
		scale float64
		want  string // refusal substring; "" derives (level, scale)
	}{
		{"encrypt", Op{Kind: OpEncrypt}, 2, d, ""},
		{"rotate", Op{Kind: OpRotate, Args: []int{1}, K: 1}, 1, d, ""},
		{"mulplain", Op{Kind: OpMulPlain, Args: []int{1}, PtScale: 8}, 1, 8 * d, ""},
		{"addplain", Op{Kind: OpAddPlain, Args: []int{1}}, 1, d, ""},
		{"add", Op{Kind: OpAdd, Args: []int{0, 3}}, 2, d, ""},
		{"mulrelin", Op{Kind: OpMulRelin, Args: []int{0, 0}}, 2, d * d, ""},
		{"rescale", Op{Kind: OpRescale, Args: []int{0}}, 1, float64(d) / (d + 2), ""},
		{"drop", Op{Kind: OpDropLevel, Args: []int{0}, Drop: 2}, 0, d, ""},
		{"recombine", Op{Kind: OpRecombine, Args: []int{0, 3, 0}, Weights: []int64{1, 2, -1}}, 2, d, ""},

		{"add-level-mismatch", Op{Kind: OpAdd, Args: []int{0, 1}}, 0, 0, "arg 1 at level 1, arg 0 at level 2"},
		{"mulrelin-level-mismatch", Op{Kind: OpMulRelin, Args: []int{1, 2}}, 0, 0, "arg 1 at level 0, arg 0 at level 1"},
		{"recombine-level-mismatch", Op{Kind: OpRecombine, Args: []int{0, 3, 1}, Weights: []int64{1, 1, 1}}, 0, 0, "arg 2 at level 1"},
		{"add-scale-mismatch", Op{Kind: OpAdd, Args: []int{0, 4}}, 0, 0, "arg 1 at scale"},
		{"recombine-scale-mismatch", Op{Kind: OpRecombine, Args: []int{3, 0, 4}, Weights: []int64{1, 1, 1}}, 0, 0, "arg 2 at scale"},
		{"rescale-at-level-0", Op{Kind: OpRescale, Args: []int{2}}, 0, 0, "rescale at level 0"},
		{"drop-below-level-0", Op{Kind: OpDropLevel, Args: []int{1}, Drop: 2}, 0, 0, "drop 2 levels from level 1"},
		{"negative-drop", Op{Kind: OpDropLevel, Args: []int{1}, Drop: -1}, 0, 0, "drop -1 levels"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := &Graph{Ops: append(append([]Op(nil), args...), tc.op)}
			if err := g.Derive(chain{}, 0); err != nil {
				t.Fatal(err)
			}
			i := len(g.Ops) - 1
			err := g.Derive(chain{}, i)
			if tc.want != "" {
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("got %v, want a refusal naming %q", err, tc.want)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			op := g.Ops[i]
			if op.Level != tc.level || op.Scale != tc.scale {
				t.Fatalf("derived (level %d, scale %v), want (%d, %v)", op.Level, op.Scale, tc.level, tc.scale)
			}
			if op.Kind == OpAddPlain && op.PtScale != op.Scale {
				t.Fatalf("AddPlain PtScale %v, want its argument's scale %v", op.PtScale, op.Scale)
			}
		})
	}
}
