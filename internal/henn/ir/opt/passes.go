package opt

import (
	"math"

	"cnnhe/internal/henn/ir"
)

// passFuse collapses reduction trees into fused linear combinations: a
// tree of single-use, non-stage-output Add/Recombine ops becomes one
// OpRecombine over the tree's leaves with the accumulated integer
// weights, which the executor hands to the engine as a single
// ir.Recombiner call. Bit-exact: ciphertext addition is componentwise
// modular addition (associative) and MulInt distributes over it
// exactly, so any re-association computes identical residues. Roots
// with fewer than 3 leaves, a non-1 leading weight, or weight overflow
// are left alone.
func passFuse(g *ir.Graph, par ir.Params) (*ir.Graph, error) {
	use := useCounts(g)
	outs := stageOutSet(g)
	isSum := func(i int) bool {
		k := g.Ops[i].Kind
		return k == ir.OpAdd || k == ir.OpRecombine
	}
	// expandable: folded into the enclosing tree when reached from a
	// sum parent (its unique consumer, by use==1).
	expandable := func(i int) bool { return isSum(i) && use[i] == 1 && !outs[i] }

	// Roots are sums that no parent will absorb.
	consumer := make([]int, len(g.Ops))
	for i := range consumer {
		consumer[i] = -1
	}
	for i := range g.Ops {
		for _, a := range g.Ops[i].Args {
			if use[a] == 1 {
				consumer[a] = i
			}
		}
	}
	type plan struct {
		leaves  []int
		weights []int64
	}
	plans := map[int]plan{}
	absorbed := map[int]bool{}
	for i := range g.Ops {
		if !isSum(i) {
			continue
		}
		if expandable(i) && consumer[i] >= 0 && isSum(consumer[i]) {
			continue // interior node of some root's tree
		}
		var pl plan
		interior := []int{}
		ok := true
		var collect func(n int, w int64)
		collect = func(n int, w int64) {
			if !ok {
				return
			}
			if n != i && expandable(n) {
				interior = append(interior, n)
			} else if n != i {
				pl.leaves = append(pl.leaves, n)
				pl.weights = append(pl.weights, w)
				return
			}
			op := &g.Ops[n]
			for j, a := range op.Args {
				wj := w
				if op.Kind == ir.OpRecombine {
					wj = mulInt64(w, op.Weights[j], &ok)
				}
				collect(a, wj)
			}
		}
		collect(i, 1)
		if !ok || len(pl.leaves) < 3 || pl.weights[0] != 1 {
			continue
		}
		plans[i] = pl
		for _, n := range interior {
			absorbed[n] = true
		}
	}
	if len(plans) == 0 {
		return g, nil
	}
	b := newBuilder(g)
	for i := range g.Ops {
		if absorbed[i] {
			continue
		}
		if pl, fused := plans[i]; fused {
			args := make([]int, len(pl.leaves))
			for j, l := range pl.leaves {
				args[j] = b.arg(l)
			}
			b.alias(i, b.emit(ir.Op{
				Kind: ir.OpRecombine, Args: args, Weights: pl.weights,
				Stage: g.Ops[i].Stage,
			}))
			continue
		}
		b.carry(i)
	}
	return b.finish(par)
}

// mulInt64 multiplies with overflow detection (clears *ok on overflow).
// MinInt64·−1 needs its own check: Go's MinInt64 / −1 wraps to MinInt64,
// so the division test alone would accept the wrapped product.
func mulInt64(a, b int64, ok *bool) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	c := a * b
	if c/b != a || (a == math.MinInt64 && b == -1) {
		*ok = false
	}
	return c
}
