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
// remaps Stages/Hoists, derives every op's (level, scale) again through
// ir.Graph.Derive, and re-validates, so structural invariants cannot
// silently rot.
package opt

import (
	"fmt"

	"cnnhe/internal/henn/ir"
)

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
func Optimize(par ir.Params, g *ir.Graph, o *Options) (*Result, error) {
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

// finish renumbers, rebuilds Stages and Hoists, derives every op's
// (level, scale), and validates.
func (b *builder) finish(par ir.Params) (*ir.Graph, error) {
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
	for i := range g.Ops {
		if err := g.Derive(par, i); err != nil {
			return nil, fmt.Errorf("opt: %w", err)
		}
	}
	return g, g.Validate()
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
