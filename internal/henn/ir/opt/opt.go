// Package opt rewrites lowered op graphs (internal/henn/ir) between
// lowering and execution. Lowering already emits the canonical graph —
// all-zero AddPlains elided, every hoisted rotation of a source in one
// hoist group, no repeated (source, k) rotation (see henn's tracer) — so
// the optimizer keeps one pass:
//
//	fuse     collapse single-use Add/Recombine reduction trees into one
//	         OpRecombine the engine evaluates as a fused linear
//	         combination (ir.Recombiner)
//
// The pass is bit-exact: ciphertext addition is componentwise modular
// addition (associative) and integer multiplication distributes over it,
// so an optimized graph decrypts to the same bits as the unoptimized
// lowering (-opt=off), which is the reference the executor-parity suite
// compares against.
//
// The pass rebuilds the graph through a builder that renumbers ops,
// remaps Stages/Hoists, re-runs the exact level/scale inference, and
// re-validates, so structural invariants cannot silently rot.
package opt

import (
	"fmt"
	"math"

	"cnnhe/internal/henn/ir"
)

// Params is the subset of engine parameters the level/scale re-inference
// needs. ir.Engine satisfies it.
type Params interface {
	MaxLevel() int
	Scale() float64
	QiFloat(level int) float64
}

// Options configures the optimizer; nil means on.
type Options struct {
	// Off disables optimization entirely: Optimize returns the input
	// graph unchanged (-opt=off, the parity reference).
	Off bool
}

// Disabled returns the -opt=off options value.
func Disabled() *Options { return &Options{Off: true} }

// Setting renders the configuration for logs and health endpoints.
func (o *Options) Setting() string {
	if o != nil && o.Off {
		return "off"
	}
	return "on"
}

// ParseFlag parses a CLI -opt value: "on" (or "") or "off".
func ParseFlag(s string) (*Options, error) {
	switch s {
	case "", "on":
		return nil, nil
	case "off":
		return Disabled(), nil
	}
	return nil, fmt.Errorf("opt: -opt %q: want on or off", s)
}

// Result is the outcome of one Optimize run.
type Result struct {
	// Graph is the optimized graph (the input graph when Off).
	Graph *ir.Graph
	// Before and After summarise the graph around the optimizer.
	Before, After ir.Stats
}

// Optimize fuses the reduction trees of a validated graph, or returns it
// unchanged when o.Off. o may be nil (on). The input graph is never
// mutated.
func Optimize(par Params, g *ir.Graph, o *Options) (*Result, error) {
	res := &Result{Graph: g, Before: g.Stats()}
	if o != nil && o.Off {
		res.After = res.Before
		return res, nil
	}
	out, err := passFuse(g, par)
	if err != nil {
		return nil, fmt.Errorf("opt: fuse: %w", err)
	}
	res.Graph = out
	res.After = out.Stats()
	return res, nil
}

// scaleClose mirrors the backends' (and the tracer's) relative 2^-40
// scale tolerance.
func scaleClose(a, b float64) bool {
	return math.Abs(a-b) <= math.Max(a, b)*math.Exp2(-40)
}

// builder accumulates a rewritten op list over a source graph and
// finishes it into a renumbered, re-inferred, re-validated ir.Graph.
// The pass emits ops whose Args are NEW ids (use arg to remap); Hoist
// fields are opaque tags that finish normalizes into compact group ids
// by first appearance.
type builder struct {
	src   *ir.Graph
	ops   []ir.Op
	remap []int // old op id → new op id, -1 while dropped/unprocessed
}

func newBuilder(src *ir.Graph) *builder {
	b := &builder{src: src, remap: make([]int, len(src.Ops))}
	for i := range b.remap {
		b.remap[i] = -1
	}
	return b
}

// arg resolves an old op id to its new id; a dropped producer is a pass
// bug surfaced as a panic, so keep it loud.
func (b *builder) arg(old int) int {
	n := b.remap[old]
	if n < 0 {
		panic(fmt.Errorf("opt: op %d referenced after being dropped", old))
	}
	return n
}

// emit appends op (Args already new ids) and returns its new id.
func (b *builder) emit(op ir.Op) int {
	op.ID = len(b.ops)
	b.ops = append(b.ops, op)
	return op.ID
}

// carry copies old op i with remapped args, preserving its hoist tag.
func (b *builder) carry(i int) int {
	op := b.src.Ops[i]
	if len(op.Args) > 0 {
		args := make([]int, len(op.Args))
		for j, a := range op.Args {
			args[j] = b.arg(a)
		}
		op.Args = args
	}
	id := b.emit(op)
	b.remap[i] = id
	return id
}

// alias maps old op i onto an existing new op (a fused root onto its
// recombine): later references, including stage outputs, resolve there.
func (b *builder) alias(i, newID int) { b.remap[i] = newID }

// finish renumbers, rebuilds Stages and Hoists, re-runs the exact
// level/scale inference, and validates.
func (b *builder) finish(par Params) (*ir.Graph, error) {
	g := &ir.Graph{
		Slots:  b.src.Slots,
		Inputs: b.src.Inputs,
		Ops:    b.ops,
		Stages: append([]ir.StageInfo(nil), b.src.Stages...),
	}
	for s := range g.Stages {
		if out := g.Stages[s].Out; out >= 0 {
			n := b.remap[out]
			if n < 0 {
				return nil, fmt.Errorf("opt: stage %d (%s) output op %d was dropped", s, g.Stages[s].Name, out)
			}
			g.Stages[s].Out = n
		}
	}
	if out := b.src.Output; out >= 0 {
		n := b.remap[out]
		if n < 0 {
			return nil, fmt.Errorf("opt: graph output op %d was dropped", out)
		}
		g.Output = n
	} else {
		g.Output = -1
	}
	// Normalize hoist tags into compact group ids, first appearance
	// first; rebuild the member lists in op order.
	tagGroup := map[int]int{}
	for i := range g.Ops {
		op := &g.Ops[i]
		if op.Kind != ir.OpRotate || op.Hoist < 0 {
			op.Hoist = -1
			continue
		}
		gid, ok := tagGroup[op.Hoist]
		if !ok {
			gid = len(g.Hoists)
			tagGroup[op.Hoist] = gid
			g.Hoists = append(g.Hoists, nil)
		}
		op.Hoist = gid
		g.Hoists[gid] = append(g.Hoists[gid], i)
	}
	if err := reinfer(par, g); err != nil {
		return nil, err
	}
	return g, g.Validate()
}

// reinfer recomputes every op's (Level, Scale) from scratch with the
// tracer's exact rules, so a rewrite cannot leave stale metadata behind
// (ahead-of-time plaintext encoding depends on it being exact).
func reinfer(par Params, g *ir.Graph) error {
	for i := range g.Ops {
		op := &g.Ops[i]
		a := func(j int) *ir.Op { return &g.Ops[op.Args[j]] }
		switch op.Kind {
		case ir.OpEncrypt:
			op.Level, op.Scale = par.MaxLevel(), par.Scale()
		case ir.OpRotate, ir.OpAddPlain:
			op.Level, op.Scale = a(0).Level, a(0).Scale
			if op.Kind == ir.OpAddPlain {
				op.PtScale = a(0).Scale
			}
		case ir.OpMulPlain:
			op.Level, op.Scale = a(0).Level, a(0).Scale*op.PtScale
		case ir.OpAdd:
			x, y := a(0), a(1)
			if x.Level != y.Level {
				return fmt.Errorf("opt: op %d Add level mismatch %d vs %d", i, x.Level, y.Level)
			}
			if !scaleClose(x.Scale, y.Scale) {
				return fmt.Errorf("opt: op %d Add scale mismatch 2^%.2f vs 2^%.2f",
					i, math.Log2(x.Scale), math.Log2(y.Scale))
			}
			op.Level, op.Scale = x.Level, x.Scale
		case ir.OpMulRelin:
			x, y := a(0), a(1)
			if x.Level != y.Level {
				return fmt.Errorf("opt: op %d MulRelin level mismatch %d vs %d", i, x.Level, y.Level)
			}
			op.Level, op.Scale = x.Level, x.Scale*y.Scale
		case ir.OpRescale:
			x := a(0)
			if x.Level <= 0 {
				return fmt.Errorf("opt: op %d rescales at level 0", i)
			}
			op.Level, op.Scale = x.Level-1, x.Scale/par.QiFloat(x.Level)
		case ir.OpDropLevel:
			x := a(0)
			if op.Drop < 0 || x.Level-op.Drop < 0 {
				return fmt.Errorf("opt: op %d drops %d levels from level %d", i, op.Drop, x.Level)
			}
			op.Level, op.Scale = x.Level-op.Drop, x.Scale
		case ir.OpRecombine:
			x := a(0)
			for j := 1; j < len(op.Args); j++ {
				y := a(j)
				if y.Level != x.Level || !scaleClose(y.Scale, x.Scale) {
					return fmt.Errorf("opt: op %d recombine arg %d at (level %d, scale 2^%.2f), arg 0 at (level %d, scale 2^%.2f)",
						i, j, y.Level, math.Log2(y.Scale), x.Level, math.Log2(x.Scale))
				}
			}
			op.Level, op.Scale = x.Level, x.Scale
		default:
			return fmt.Errorf("opt: op %d has unknown kind %v", i, op.Kind)
		}
	}
	return nil
}

// useCounts returns each op's static consumer count, +1 for the graph
// output (mirroring the executor's reference counting).
func useCounts(g *ir.Graph) []int {
	use := make([]int, len(g.Ops))
	for i := range g.Ops {
		for _, a := range g.Ops[i].Args {
			use[a]++
		}
	}
	if g.Output >= 0 {
		use[g.Output]++
	}
	return use
}

// stageOutSet marks ops that are some stage's reported output.
func stageOutSet(g *ir.Graph) map[int]bool {
	outs := map[int]bool{}
	for _, st := range g.Stages {
		if st.Out >= 0 {
			outs[st.Out] = true
		}
	}
	return outs
}
