// Package ir defines the explicit homomorphic op-graph the henn compiler
// lowers its stages to, and the engine contract the graph executes
// against.
//
// A Graph is a flat, topologically ordered list of typed ops
// (Encrypt/Rotate/MulPlain/AddPlain/Add/MulRelin/Rescale/DropLevel/
// Recombine) with data-dependency edges expressed as producer op IDs.
// Because CKKS level and scale propagation are deterministic functions of
// the op sequence, every op carries its statically inferred result
// (level, scale) — computed once at lowering time with the same float64
// arithmetic the engines use at runtime, so the inference is exact, not
// an approximation. That is what makes ahead-of-time plaintext encoding
// possible: a MulPlain/AddPlain operand can be encoded at its exact
// (level, scale) before any ciphertext exists.
//
// The package deliberately has no dependency on the engine
// implementations: Ct and Pt are opaque handles (aliases of any), and
// Engine is the structural interface both backends, the guard middleware,
// and the fault injector satisfy.
package ir

import (
	"fmt"
	"math"
)

// Ct is an opaque ciphertext handle owned by an Engine.
type Ct = any

// Pt is an opaque pre-encoded plaintext handle owned by an Engine (see
// Engine.EncodeVecsAt).
type Pt = any

// PlainSpec describes one plaintext vector to pre-encode: the slot values
// and the exact (level, scale) the encoding must target.
type PlainSpec struct {
	Values []float64
	Level  int
	Scale  float64
}

// Engine abstracts the CKKS backends behind the operations compiled plans
// and lowered graphs need. The first block is what Stage.Eval calls when
// lowering traces a plan (and what the stage-kernel tests call
// directly); the final three methods are the ahead-of-time encoding
// contract the executor uses for every plaintext operand.
type Engine interface {
	// Name identifies the backend ("ckks-rns" or "ckks-big").
	Name() string
	// Slots returns the SIMD width N/2.
	Slots() int
	// MaxLevel returns the top ciphertext level L.
	MaxLevel() int
	// Scale returns the default plaintext scale Δ.
	Scale() float64
	// QiFloat returns the level's prime as a float64.
	QiFloat(level int) float64

	// EncryptVec encrypts values (length ≤ Slots) at the top level and
	// default scale.
	EncryptVec(values []float64) Ct
	// DecryptVec decrypts to real slot values.
	DecryptVec(ct Ct) []float64

	// Level returns the ciphertext level.
	Level(ct Ct) int
	// ScaleOf returns the ciphertext scale.
	ScaleOf(ct Ct) float64

	// Add returns a + b (same level and scale).
	Add(a, b Ct) Ct
	// AddPlainVec adds the plaintext vector encoded at the ciphertext's
	// exact level and scale.
	AddPlainVec(ct Ct, v []float64) Ct
	// MulPlainVecAtScale multiplies by the plaintext vector encoded at the
	// given scale.
	MulPlainVecAtScale(ct Ct, v []float64, scale float64) Ct
	// MulPlainVecCached is MulPlainVecAtScale for vectors that are constant
	// across inferences (model weights), named by key. Lowering records
	// the key on the op (ir.Op.PlainKey); the backends encode afresh and
	// ignore it, since the executor pre-encodes every such operand once.
	MulPlainVecCached(ct Ct, key string, v []float64, scale float64) Ct
	// AddPlainVecCached is AddPlainVec with the same key contract.
	AddPlainVecCached(ct Ct, key string, v []float64) Ct
	// MulRelin returns a·b relinearized.
	MulRelin(a, b Ct) Ct
	// MulInt multiplies by an exact integer, scale unchanged.
	MulInt(ct Ct, n int64) Ct
	// Rescale divides by the current level's prime.
	Rescale(ct Ct) Ct
	// DropLevel discards n levels.
	DropLevel(ct Ct, n int) Ct
	// Rotate rotates slots left by k (k = 0 returns the input unchanged).
	Rotate(ct Ct, k int) Ct
	// RotateMany returns rotations by every k in ks, using hoisting
	// (decompose/lift once, rotate many) where the backend supports it.
	RotateMany(ct Ct, ks []int) map[int]Ct

	// EncodeVecsAt encodes every spec at its exact (level, scale) and
	// returns opaque plaintext handles in spec order. Called once per
	// prepared graph, ahead of any inference.
	EncodeVecsAt(specs []PlainSpec) []Pt
	// MulPlainPt multiplies by a pre-encoded plaintext whose level matches
	// the ciphertext's; the scales multiply.
	MulPlainPt(ct Ct, pt Pt) Ct
	// AddPlainPt adds a pre-encoded plaintext at the ciphertext's exact
	// level and scale.
	AddPlainPt(ct Ct, pt Pt) Ct
}

// Recombiner is an optional Engine extension: a fused integer linear
// combination Σᵢ Weights[i]·args[i] (Weights[0] = 1) evaluated in one
// engine call instead of a MulInt/Add chain. Implementations must be
// bit-identical to Combine's chain — modular addition is exact, so any
// implementation that accumulates the same residues qualifies.
type Recombiner interface {
	Recombine(args []Ct, weights []int64) Ct
}

// PlainRecombiner is an optional Engine extension: an OpRecombine together
// with the OpMulPlain products it absorbs (see Graph.AbsorbedBy) as one
// engine call. weights has one entry per arg, and so has pts unless it is
// nil (no products): term i is MulPlainPt(args[i], pts[i]) where pts[i]
// is non-nil — weights[i] must then be 1 — and args[i] itself otherwise;
// the result is Σᵢ weights[i]·termᵢ. Implementations must be
// bit-identical to Combine's unfused evaluation: modular multiply-add is
// exact, so any implementation that ends fully reduced qualifies.
type PlainRecombiner interface {
	PlainRecombine(args []Ct, pts []Pt, weights []int64) Ct
}

// Combine returns Σᵢ weights[i]·termᵢ on e (weights[0] = 1), with termᵢ
// as PlainRecombiner defines it; nil pts means no products. It is the
// one dispatch for a linear combination: e's PlainRecombine when it has
// one; otherwise MulPlainPt per product, then e's Recombine when it has
// one, else the chain acc = Add(acc, MulInt(termᵢ, wᵢ)) with the MulInt
// elided for wᵢ = 1. Every branch leaves the same bits.
func Combine(e Engine, args []Ct, pts []Pt, weights []int64) Ct {
	if pr, ok := e.(PlainRecombiner); ok {
		return pr.PlainRecombine(args, pts, weights)
	}
	terms := args
	if pts != nil {
		terms = make([]Ct, len(args))
		for i, a := range args {
			terms[i] = a
			if pts[i] != nil {
				terms[i] = e.MulPlainPt(a, pts[i])
			}
		}
	}
	if rc, ok := e.(Recombiner); ok {
		return rc.Recombine(terms, weights)
	}
	acc := terms[0]
	for i := 1; i < len(terms); i++ {
		c := terms[i]
		if weights[i] != 1 {
			c = e.MulInt(c, weights[i])
		}
		acc = e.Add(acc, c)
	}
	return acc
}

// Kind enumerates the op taxonomy of a lowered graph.
type Kind int

const (
	// OpEncrypt encrypts input vector InputIdx at the top level.
	OpEncrypt Kind = iota
	// OpRotate rotates Args[0] left by K (optionally inside a hoist group).
	OpRotate
	// OpMulPlain multiplies Args[0] by Plain encoded at (level, PtScale).
	OpMulPlain
	// OpAddPlain adds Plain encoded at Args[0]'s exact level and scale.
	OpAddPlain
	// OpAdd adds Args[0] and Args[1] (same level and scale).
	OpAdd
	// OpMulRelin multiplies Args[0] by Args[1] and relinearizes.
	OpMulRelin
	// OpRescale divides Args[0] by its level's prime.
	OpRescale
	// OpDropLevel discards Drop levels of Args[0].
	OpDropLevel
	// OpRecombine computes Σᵢ Weights[i]·Args[i] left-to-right with exact
	// integer weights (Weights[0] must be 1): an Add tree the optimizer's
	// fuse pass collapsed, each weight a leaf's multiplicity.
	OpRecombine
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case OpEncrypt:
		return "Encrypt"
	case OpRotate:
		return "Rotate"
	case OpMulPlain:
		return "MulPlain"
	case OpAddPlain:
		return "AddPlain"
	case OpAdd:
		return "Add"
	case OpMulRelin:
		return "MulRelin"
	case OpRescale:
		return "Rescale"
	case OpDropLevel:
		return "DropLevel"
	case OpRecombine:
		return "Recombine"
	}
	return fmt.Sprintf("ir.Kind(%d)", int(k))
}

// Op is one node of the lowered graph. Args are producer op IDs (always
// smaller than ID: the op list is topologically ordered by construction).
type Op struct {
	ID   int
	Kind Kind
	Args []int

	// InputIdx selects the run's input vector (OpEncrypt only).
	InputIdx int
	// K is the rotation amount (OpRotate).
	K int
	// Hoist groups OpRotate nodes sharing one key-switch decomposition of
	// the same input; -1 for a standalone rotation. Index into Graph.Hoists.
	Hoist int
	// Plain is the plaintext operand vector (OpMulPlain/OpAddPlain).
	Plain []float64
	// PlainKey identifies a model-constant plaintext for encode dedup
	// ("" when the vector is not a reusable constant).
	PlainKey string
	// PtScale is the encode scale of the OpMulPlain operand (OpAddPlain
	// operands always encode at the ciphertext's scale).
	PtScale float64
	// Drop is the level count (OpDropLevel).
	Drop int
	// Weights are the per-arg integer weights (OpRecombine).
	Weights []int64

	// Stage indexes Graph.Stages.
	Stage int

	// Level and Scale are the statically inferred result metadata.
	Level int
	Scale float64
}

// StageInfo names one pipeline stage of the graph and its report row.
type StageInfo struct {
	// Name is the stage label that names a failing op's errors and the
	// Report rows ("encrypt", "encrypt part 0", "stage 0 (…)", …).
	Name string
	// Out is the op whose result is the stage's reported ciphertext
	// (-1 when the stage has no reportable output).
	Out int
	// Record marks stages that get a Report row (encrypt stages do not).
	Record bool
}

// Graph is a lowered plan: a topologically ordered op list plus the
// stage/hoist structure the executor needs.
type Graph struct {
	// Slots is the SIMD width the graph was lowered for.
	Slots int
	// Inputs is the number of input vectors (OpEncrypt.InputIdx range).
	Inputs int
	// Ops in topological (and lowering's trace) order.
	Ops []Op
	// Output is the op producing the final ciphertext.
	Output int
	// Stages in evaluation order.
	Stages []StageInfo
	// Hoists maps hoist group ID to member op IDs (all OpRotate over the
	// same argument).
	Hoists [][]int
}

// Validate checks structural invariants: topological order, argument
// arity, stage/hoist/input index ranges, and sane inferred metadata.
func (g *Graph) Validate() error {
	if g.Inputs <= 0 {
		return fmt.Errorf("ir: graph has %d inputs", g.Inputs)
	}
	if g.Output < 0 || g.Output >= len(g.Ops) {
		return fmt.Errorf("ir: output op %d out of range", g.Output)
	}
	arity := func(k Kind) (min, max int) {
		switch k {
		case OpEncrypt:
			return 0, 0
		case OpAdd, OpMulRelin:
			return 2, 2
		case OpRecombine:
			return 1, 1 << 30
		default:
			return 1, 1
		}
	}
	for i, op := range g.Ops {
		if op.ID != i {
			return fmt.Errorf("ir: op %d has ID %d", i, op.ID)
		}
		lo, hi := arity(op.Kind)
		if len(op.Args) < lo || len(op.Args) > hi {
			return fmt.Errorf("ir: op %d (%s) has %d args", i, op.Kind, len(op.Args))
		}
		for _, a := range op.Args {
			if a < 0 || a >= i {
				return fmt.Errorf("ir: op %d (%s) uses arg %d out of topological order", i, op.Kind, a)
			}
		}
		if op.Stage < 0 || op.Stage >= len(g.Stages) {
			return fmt.Errorf("ir: op %d stage %d out of range", i, op.Stage)
		}
		if op.Level < 0 {
			return fmt.Errorf("ir: op %d (%s) at negative level %d", i, op.Kind, op.Level)
		}
		if op.Scale <= 0 || math.IsNaN(op.Scale) || math.IsInf(op.Scale, 0) {
			return fmt.Errorf("ir: op %d (%s) has non-finite scale %v", i, op.Kind, op.Scale)
		}
		switch op.Kind {
		case OpEncrypt:
			if op.InputIdx < 0 || op.InputIdx >= g.Inputs {
				return fmt.Errorf("ir: op %d encrypts input %d of %d", i, op.InputIdx, g.Inputs)
			}
		case OpRotate:
			if op.K == 0 {
				return fmt.Errorf("ir: op %d rotates by 0 (should be elided)", i)
			}
			if op.Hoist != -1 && (op.Hoist < 0 || op.Hoist >= len(g.Hoists)) {
				return fmt.Errorf("ir: op %d hoist group %d out of range", i, op.Hoist)
			}
		case OpMulPlain:
			if op.PtScale <= 0 {
				return fmt.Errorf("ir: op %d MulPlain with scale %v", i, op.PtScale)
			}
			if op.Plain == nil {
				return fmt.Errorf("ir: op %d MulPlain without operand", i)
			}
		case OpAddPlain:
			if op.Plain == nil {
				return fmt.Errorf("ir: op %d AddPlain without operand", i)
			}
		case OpRecombine:
			if len(op.Weights) != len(op.Args) {
				return fmt.Errorf("ir: op %d recombines %d args with %d weights", i, len(op.Args), len(op.Weights))
			}
			if op.Weights[0] != 1 {
				return fmt.Errorf("ir: op %d recombine weight[0] = %d, want 1", i, op.Weights[0])
			}
		}
	}
	for h, members := range g.Hoists {
		if len(members) == 0 {
			return fmt.Errorf("ir: empty hoist group %d", h)
		}
		arg := -1
		for _, m := range members {
			if m < 0 || m >= len(g.Ops) {
				return fmt.Errorf("ir: hoist group %d member %d out of range", h, m)
			}
			op := g.Ops[m]
			if op.Kind != OpRotate || op.Hoist != h {
				return fmt.Errorf("ir: hoist group %d member %d is not its rotation", h, m)
			}
			if arg == -1 {
				arg = op.Args[0]
			} else if op.Args[0] != arg {
				return fmt.Errorf("ir: hoist group %d rotates different inputs", h)
			}
		}
	}
	for s, st := range g.Stages {
		if st.Out != -1 && (st.Out < 0 || st.Out >= len(g.Ops)) {
			return fmt.Errorf("ir: stage %d output op %d out of range", s, st.Out)
		}
	}
	return nil
}

// AbsorbedBy maps every op to the OpRecombine whose Combine call
// evaluates it (one engine call on a PlainRecombiner engine), or -1. An op is
// absorbed when it is an OpMulPlain whose only consumer is a weight-1
// argument of an OpRecombine in the same stage, and it is neither the
// graph output nor a stage's reported output (those must exist as
// ciphertexts of their own). This is the one definition both Stats and the
// executor use.
func (g *Graph) AbsorbedBy() []int {
	use := make([]int, len(g.Ops))
	for i := range g.Ops {
		for _, a := range g.Ops[i].Args {
			use[a]++
		}
	}
	if g.Output >= 0 && g.Output < len(use) {
		use[g.Output]++
	}
	for _, st := range g.Stages {
		if st.Out >= 0 && st.Out < len(use) {
			use[st.Out]++
		}
	}
	by := make([]int, len(g.Ops))
	for i := range by {
		by[i] = -1
	}
	for i := range g.Ops {
		rc := &g.Ops[i]
		if rc.Kind != OpRecombine {
			continue
		}
		for j, a := range rc.Args {
			if m := &g.Ops[a]; m.Kind == OpMulPlain && use[a] == 1 && rc.Weights[j] == 1 && m.Stage == rc.Stage {
				by[a] = i
			}
		}
	}
	return by
}

// Stats summarises a graph for logs and CLIs.
type Stats struct {
	Ops      int
	ByKind   map[Kind]int
	Hoists   int
	Plains   int // plaintext operands to pre-encode
	MinLevel int // lowest level any op result reaches
	// EngineCalls counts the engine interface calls a full-featured
	// backend pays per run: every op is one call, except that a hoist
	// group executes as a single RotateMany, an OpRecombine as a single
	// fused Recombine (see Recombiner), and the OpMulPlain products an
	// OpRecombine absorbs (see AbsorbedBy) inside that same call.
	EngineCalls int

	rotateCalls int
}

// Stats computes summary counts.
func (g *Graph) Stats() Stats {
	s := Stats{Ops: len(g.Ops), ByKind: map[Kind]int{}, Hoists: len(g.Hoists), MinLevel: 1 << 30}
	grouped := map[int]bool{}
	absorbed := g.AbsorbedBy()
	for i, op := range g.Ops {
		s.ByKind[op.Kind]++
		if op.Plain != nil {
			s.Plains++
		}
		if op.Level < s.MinLevel {
			s.MinLevel = op.Level
		}
		switch {
		case absorbed[i] >= 0:
			// evaluated inside its recombine's call
		case op.Kind == OpRotate && op.Hoist >= 0:
			if !grouped[op.Hoist] {
				grouped[op.Hoist] = true
				s.EngineCalls++
				s.rotateCalls++
			}
		case op.Kind == OpRotate:
			s.EngineCalls++
			s.rotateCalls++
		default:
			s.EngineCalls++
		}
	}
	if s.Ops == 0 {
		s.MinLevel = 0
	}
	return s
}

// RotateCalls is the number of rotation engine calls the graph pays:
// one per hoist group (a shared key-switch decomposition) plus one per
// standalone rotation, counted directly.
func (s Stats) RotateCalls() int { return s.rotateCalls }

// String renders the stats on one line.
func (s Stats) String() string {
	return fmt.Sprintf("%d ops / %d engine calls (%d encrypt, %d rotate, %d mulplain, %d addplain, %d add, %d mulrelin, %d rescale, %d drop, %d recombine), %d hoist groups, %d plaintexts, min level %d",
		s.Ops, s.EngineCalls, s.ByKind[OpEncrypt], s.ByKind[OpRotate], s.ByKind[OpMulPlain], s.ByKind[OpAddPlain],
		s.ByKind[OpAdd], s.ByKind[OpMulRelin], s.ByKind[OpRescale], s.ByKind[OpDropLevel],
		s.ByKind[OpRecombine], s.Hoists, s.Plains, s.MinLevel)
}
