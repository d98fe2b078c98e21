package opt

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"

	"cnnhe/internal/henn/ir"
)

// ---------------------------------------------------------------- cse --

// passCSE hash-conses ops: two ops with the same kind, the same
// (already-deduplicated) producers, the same rotation/drop/weight
// attributes and bit-identical plaintext content compute the same
// ciphertext, so later ones collapse onto the first. Exact for every
// kind except OpEncrypt, which is never merged: each encrypt is a
// fresh-randomness PRNG call and the prologue's call order is part of
// the bit-parity contract between optimized and unoptimized runs.
//
// Hoisted and standalone rotations are kept apart (the hoisted-ness
// flag is in the key): RotateHoisted and Rotate use different
// key-switch algorithms with different rounding, so merging across
// would change the consumer's bits.
func passCSE(g *ir.Graph, par Params, exact bool) (*ir.Graph, error) {
	b := newBuilder(g)
	seen := map[string][]int{} // key → candidate new op ids (hash buckets)
	for i := range g.Ops {
		op := g.Ops[i]
		if op.Kind == ir.OpEncrypt {
			b.carry(i)
			continue
		}
		key := cseKey(b, op)
		merged := false
		for _, cand := range seen[key] {
			if plainEqual(b.ops[cand].Plain, op.Plain) {
				b.alias(i, cand)
				merged = true
				break
			}
		}
		if merged {
			continue
		}
		seen[key] = append(seen[key], b.carry(i))
	}
	return b.finish(par)
}

func cseKey(b *builder, op ir.Op) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d|", op.Kind)
	for _, a := range op.Args {
		fmt.Fprintf(&sb, "%d,", b.arg(a))
	}
	hoisted := op.Kind == ir.OpRotate && op.Hoist >= 0
	fmt.Fprintf(&sb, "|k=%d h=%v d=%d s=%x w=%v", op.K, hoisted, op.Drop,
		math.Float64bits(op.PtScale), op.Weights)
	if op.Plain != nil {
		fmt.Fprintf(&sb, " p=%d/%x", len(op.Plain), plainHash(op.Plain))
	}
	return sb.String()
}

func plainHash(v []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range v {
		bits := math.Float64bits(x)
		for i := range buf {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// plainEqual guards hash-bucket collisions with a full bit compare.
func plainEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// --------------------------------------------------------------- fold --

// passFold folds plaintext constants. The exact subset drops AddPlain
// ops whose operand is all zeros (the encoding of an exact zero is the
// zero polynomial, so the add is a bit-identity). In full mode it also
// pre-combines single-use AddPlain∘AddPlain chains into one add of
// v1+v2 and MulPlain∘MulPlain chains into one product by v1⊙v2 at
// scale s1·s2 — same value, but one encoding rounding instead of two,
// so it is tolerance-class and skipped under Options.Exact. Runs to a
// fixpoint so longer chains collapse over iterations.
func passFold(g *ir.Graph, par Params, exact bool) (*ir.Graph, error) {
	for iter := 0; iter < 8; iter++ {
		next, changed, err := foldOnce(g, par, exact)
		if err != nil {
			return nil, err
		}
		g = next
		if !changed {
			return g, nil
		}
	}
	return g, nil
}

func foldOnce(g *ir.Graph, par Params, exact bool) (*ir.Graph, bool, error) {
	use := useCounts(g)
	outs := stageOutSet(g)
	elide := map[int]bool{}    // all-zero AddPlain → alias to its arg
	absorbed := map[int]bool{} // inner chain op folded into its consumer
	for i := range g.Ops {
		op := &g.Ops[i]
		if op.Kind == ir.OpAddPlain && allZero(op.Plain) {
			elide[i] = true
			continue
		}
		if exact || (op.Kind != ir.OpAddPlain && op.Kind != ir.OpMulPlain) {
			continue
		}
		a := op.Args[0]
		inner := &g.Ops[a]
		// One link per iteration: a chain A→B→C merges A into B now and
		// the result into C on the next fixpoint round. The inner op must
		// not itself be absorbing something this round (!absorbed of ITS
		// arg — an absorber needs to stay emitted to receive the merge)
		// and must not be a recorded stage output (absorbed ops get no
		// remap entry, so a stage row pointing at one would dangle).
		if inner.Kind == op.Kind && use[a] == 1 &&
			!elide[a] && !absorbed[a] && !outs[a] &&
			!absorbed[inner.Args[0]] &&
			len(inner.Plain) == len(op.Plain) {
			absorbed[a] = true
		}
	}
	if len(elide) == 0 && len(absorbed) == 0 {
		return g, false, nil
	}
	b := newBuilder(g)
	for i := range g.Ops {
		op := g.Ops[i]
		if elide[i] {
			b.alias(i, b.arg(op.Args[0]))
			continue
		}
		if absorbed[i] {
			continue // merged into its unique consumer below
		}
		if (op.Kind == ir.OpAddPlain || op.Kind == ir.OpMulPlain) && absorbed[op.Args[0]] {
			inner := g.Ops[op.Args[0]]
			merged := make([]float64, len(op.Plain))
			if op.Kind == ir.OpAddPlain {
				for j := range merged {
					merged[j] = inner.Plain[j] + op.Plain[j]
				}
			} else {
				for j := range merged {
					merged[j] = inner.Plain[j] * op.Plain[j]
				}
				op.PtScale = inner.PtScale * op.PtScale
			}
			op.Plain = merged
			op.PlainKey = "" // derived content: dedup by digest, not name
			op.Args = []int{b.arg(inner.Args[0])}
			b.remap[i] = b.emit(op)
			continue
		}
		b.carry(i)
	}
	next, err := b.finish(par)
	return next, true, err
}

func allZero(v []float64) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// ------------------------------------------------------------- replan --

// passReplan merges hoisted rotations that share a source ciphertext
// into one fan-out group, regardless of which stage's RotateMany they
// came from: one key-switch decomposition of the source then serves
// every rotation of it in the graph (double-hoisting). Bit-exact:
// grouped and singleton hoisted rotations produce identical
// ciphertexts per k (the decomposition depends only on the source),
// verified empirically on both backends by
// TestRotateHoistedGroupingBitIdentical. Standalone rotations
// (Hoist = -1) are left alone — absorbing them would switch them to
// the hoisted key-switch algorithm and change their bits.
func passReplan(g *ir.Graph, par Params, exact bool) (*ir.Graph, error) {
	b := newBuilder(g)
	for i := range g.Ops {
		op := g.Ops[i]
		if op.Kind == ir.OpRotate && op.Hoist >= 0 {
			src := b.arg(op.Args[0])
			op.Args = []int{src}
			op.Hoist = src // tag by source: finish merges same-source groups
			b.remap[i] = b.emit(op)
			continue
		}
		b.carry(i)
	}
	return b.finish(par)
}

// ------------------------------------------------------------ rescale --

// passRescale sinks level maintenance past sums (lazy rescale): an
// Add/Recombine whose ciphertext args are all single-use OpRescale
// (resp. OpDropLevel with one shared Drop) over same-level inputs is
// rewritten to sum the unrescaled inputs and apply one trailing
// Rescale/DropLevel to the whole reduction tree. DropLevel-sinking is
// bit-exact (modulus truncation commutes with componentwise addition)
// and runs in every mode; Rescale-sinking rounds once after the sum
// instead of once per addend, so it is tolerance-class and skipped
// under Options.Exact. When a sunk op was a recorded stage output, the
// stage row is re-pointed at the trailing op (same level, matching
// scale) — the executor supports several stages sharing one output op.
// Runs to a fixpoint so cascaded reduction trees keep sinking.
func passRescale(g *ir.Graph, par Params, exact bool) (*ir.Graph, error) {
	for iter := 0; iter < 8; iter++ {
		next, changed, err := rescaleOnce(g, par, exact)
		if err != nil {
			return nil, err
		}
		g = next
		if !changed {
			return g, nil
		}
	}
	return g, nil
}

func rescaleOnce(g *ir.Graph, par Params, exact bool) (*ir.Graph, bool, error) {
	use := useCounts(g)
	type sink struct {
		kind ir.Kind // trailing op kind (OpRescale or OpDropLevel)
		drop int
	}
	plans := map[int]sink{} // sum op id → trailing descriptor
	sunk := map[int]bool{}  // arg op ids consumed by a planned sum
	for i := range g.Ops {
		op := &g.Ops[i]
		if op.Kind != ir.OpAdd && op.Kind != ir.OpRecombine {
			continue
		}
		kind, drop := ir.Kind(-1), 0
		lvl, scale := 0, 0.0
		ok := true
		for j, a := range op.Args {
			ao := &g.Ops[a]
			if use[a] != 1 || sunk[a] {
				ok = false
				break
			}
			switch ao.Kind {
			case ir.OpRescale:
				if exact {
					ok = false // one rounding instead of many: tolerance-class
				}
			case ir.OpDropLevel:
			default:
				ok = false
			}
			if !ok {
				break
			}
			in := &g.Ops[ao.Args[0]]
			if j == 0 {
				kind, drop = ao.Kind, ao.Drop
				lvl, scale = in.Level, in.Scale
			} else if ao.Kind != kind || ao.Drop != drop ||
				in.Level != lvl || !scaleClose(in.Scale, scale) {
				ok = false
			}
			if !ok {
				break
			}
		}
		if !ok || kind == ir.Kind(-1) {
			continue
		}
		plans[i] = sink{kind: kind, drop: drop}
		for _, a := range op.Args {
			sunk[a] = true
		}
	}
	if len(plans) == 0 {
		return g, false, nil
	}
	b := newBuilder(g)
	for i := range g.Ops {
		if sunk[i] {
			continue // re-emitted as the trailing op of its sum
		}
		pl, planned := plans[i]
		if !planned {
			b.carry(i)
			continue
		}
		op := g.Ops[i]
		args := make([]int, len(op.Args))
		for j, a := range op.Args {
			args[j] = b.arg(g.Ops[a].Args[0])
		}
		sum := b.emit(ir.Op{Kind: op.Kind, Args: args, Weights: op.Weights, Stage: op.Stage})
		trail := b.emit(ir.Op{Kind: pl.kind, Args: []int{sum}, Drop: pl.drop, Stage: op.Stage})
		b.alias(i, trail)
		for _, a := range op.Args {
			b.alias(a, trail) // stage rows on a sunk op follow the trailing op
		}
	}
	next, err := b.finish(par)
	return next, true, err
}

// --------------------------------------------------------------- fuse --

// passFuse collapses reduction trees into fused linear combinations: a
// tree of single-use, non-stage-output Add/Recombine ops becomes one
// OpRecombine over the tree's leaves with the accumulated integer
// weights, which the executor hands to the engine as a single
// ir.Recombiner call. Bit-exact: ciphertext addition is componentwise
// modular addition (associative) and MulInt distributes over it
// exactly, so any re-association computes identical residues. Roots
// with fewer than 3 leaves, a non-1 leading weight, or weight overflow
// are left alone.
func passFuse(g *ir.Graph, par Params, exact bool) (*ir.Graph, error) {
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
func mulInt64(a, b int64, ok *bool) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	c := a * b
	if c/b != a {
		*ok = false
	}
	return c
}

// ---------------------------------------------------------------- dce --

// passDCE drops ops unreachable from the graph output and the recorded
// stage outputs. Encrypt ops are always kept: the prologue's
// fresh-randomness call order is part of the bit-parity contract, and
// every op downstream of an encrypt is deterministic, so removing
// unreachable non-encrypt ops cannot change any surviving bit.
func passDCE(g *ir.Graph, par Params, exact bool) (*ir.Graph, error) {
	keep := make([]bool, len(g.Ops))
	var mark func(int)
	mark = func(i int) {
		if keep[i] {
			return
		}
		keep[i] = true
		for _, a := range g.Ops[i].Args {
			mark(a)
		}
	}
	if g.Output >= 0 {
		mark(g.Output)
	}
	for _, st := range g.Stages {
		if st.Out >= 0 {
			mark(st.Out)
		}
	}
	for i := range g.Ops {
		if g.Ops[i].Kind == ir.OpEncrypt {
			keep[i] = true
		}
	}
	b := newBuilder(g)
	for i := range g.Ops {
		if keep[i] {
			b.carry(i)
		}
	}
	return b.finish(par)
}
