package henn

import (
	"fmt"
	"sort"

	"cnnhe/internal/henn/ir"
	"cnnhe/internal/henn/shard"
	"cnnhe/internal/nn"
	"cnnhe/internal/tensor"
)

// Stage is one homomorphic pipeline step: a map from the stage's input
// shard set (one ciphertext per shard) to its output shard set. An
// unsharded plan is the one-shard case, so every stage of every plan
// speaks this one interface (DESIGN.md §15).
//
// Linear stages are carved into inter-shard blocks: for output shard j
// and input shard i, block (j, i) is the sub-matrix connecting shard i's
// slots to shard j's slots, evaluated by the LinearStage BSGS kernel. The
// halo exchange of a convolution — output pixels near a band boundary
// reading input pixels from the neighbouring shard — appears as those
// off-diagonal blocks being non-zero; all-zero blocks are skipped
// outright. Each output shard sums its block accumulators at the shared
// pre-rescale scale with one fused ir.OpRecombine (all weights 1,
// bit-identical to an Add chain, see ir.Combine) and then pays
// a single rescale, so a one-block row lowers to exactly the
// single-ciphertext op sequence. Activations apply per shard with
// coefficient vectors sliced through the manifest's slot→global
// bijection.
type Stage interface {
	// Eval applies the stage to one ciphertext per input shard.
	Eval(e Engine, in []Ct) []Ct
	// Rotations lists the slot rotations the stage needs.
	Rotations() []int
	// Depth is the number of rescales the stage consumes.
	Depth() int
	// Describe returns a human-readable summary.
	Describe() string
}

// union returns the distinct non-zero rotation amounts of ks, sorted.
func union(ks []int) []int {
	set := map[int]bool{}
	for _, k := range ks {
		if k != 0 {
			set[k] = true
		}
	}
	out := make([]int, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// recombine returns Σ weights[i]·cts[i] (weights[0] = 1; nil weights are
// all 1) through ir.Combine, the dispatch the executor makes for an
// OpRecombine.
func recombine(e Engine, cts []Ct, weights []int64) Ct {
	if weights == nil {
		weights = make([]int64, len(cts))
		for i := range weights {
			weights[i] = 1
		}
	}
	return ir.Combine(e, cts, nil, weights)
}

// ShardedLinear evaluates y = M·x + b as a grid of inter-shard block
// matrix-vector products.
type ShardedLinear struct {
	Label string
	// Blocks[j][i] is the (output shard j, input shard i) sub-matrix
	// kernel; nil where the block is all-zero. Each block's Bias holds
	// output shard j's bias slice, added only by the row's first non-nil
	// block (the carrier).
	Blocks [][]*LinearStage
}

// newShardedLinear carves a full rows×cols matrix (+bias) into manifest
// blocks. With single-shard manifests on both sides the only block is
// byte-identical to the single-ciphertext NewLinearStage lowering, label
// included.
func newShardedLinear(label string, mat *tensor.Tensor, bias []float64, in, out shard.Manifest, slots int) (*ShardedLinear, error) {
	rows, cols := mat.Shape[0], mat.Shape[1]
	if rows != out.Shape.Flat() || cols != in.Shape.Flat() {
		return nil, fmt.Errorf("henn: stage %s matrix is %dx%d, manifests say %dx%d",
			label, rows, cols, out.Shape.Flat(), in.Shape.Flat())
	}
	st := &ShardedLinear{Label: label, Blocks: make([][]*LinearStage, out.NumShards())}
	single := in.NumShards() == 1 && out.NumShards() == 1
	for j := range st.Blocks {
		st.Blocks[j] = make([]*LinearStage, in.NumShards())
		br := out.ShardLen(j)
		rowBias := make([]float64, br)
		for r := range rowBias {
			rowBias[r] = bias[out.GlobalAt(j, r)]
		}
		any := false
		for i := range st.Blocks[j] {
			bc := in.ShardLen(i)
			sub := tensor.New(br, bc)
			nonzero := false
			for r := 0; r < br; r++ {
				gr := out.GlobalAt(j, r) * cols
				for c := 0; c < bc; c++ {
					if v := mat.Data[gr+in.GlobalAt(i, c)]; v != 0 {
						sub.Data[r*bc+c] = v
						nonzero = true
					}
				}
			}
			if !nonzero {
				continue
			}
			lbl := label
			if !single {
				lbl = fmt.Sprintf("%s/s%d_%d", label, j, i)
			}
			blk, err := NewLinearStage(lbl, sub, rowBias, slots)
			if err != nil {
				return nil, err
			}
			st.Blocks[j][i] = blk
			any = true
		}
		if !any {
			return nil, fmt.Errorf("henn: stage %s output shard %d receives no input (zero block row)", label, j)
		}
	}
	return st, nil
}

// Eval implements Stage.
func (s *ShardedLinear) Eval(e Engine, in []Ct) []Ct { return s.eval(e, in, true) }

// eval evaluates, per output shard, every non-zero block to its
// pre-rescale accumulator (the row's first block carries the bias when
// withBias is set), fuses several with one recombine, then rescales once.
// The RNS front-end evaluates its digit parts with withBias set on part 0
// only.
func (s *ShardedLinear) eval(e Engine, in []Ct, withBias bool) []Ct {
	out := make([]Ct, len(s.Blocks))
	for j, row := range s.Blocks {
		var parts []Ct
		for i, blk := range row {
			if blk != nil {
				parts = append(parts, blk.evalRaw(e, in[i], withBias && len(parts) == 0))
			}
		}
		acc := parts[0]
		if len(parts) > 1 {
			acc = recombine(e, parts, nil)
		}
		out[j] = e.Rescale(acc)
	}
	return out
}

// fanIn is the most extra input shards any output shard draws from (0 =
// band-local).
func (s *ShardedLinear) fanIn() int {
	n := 0
	for _, row := range s.Blocks {
		k := -1
		for _, blk := range row {
			if blk != nil {
				k++
			}
		}
		n = max(n, k)
	}
	return n
}

// Rotations implements Stage: the union over all blocks.
func (s *ShardedLinear) Rotations() []int {
	var all []int
	for _, row := range s.Blocks {
		for _, blk := range row {
			if blk != nil {
				all = append(all, blk.Rotations()...)
			}
		}
	}
	return union(all)
}

// Depth implements Stage.
func (s *ShardedLinear) Depth() int { return 1 }

// Describe implements Stage.
func (s *ShardedLinear) Describe() string {
	in, out := len(s.Blocks[0]), len(s.Blocks)
	if in == 1 && out == 1 {
		return s.Blocks[0][0].Describe()
	}
	nz := 0
	for _, row := range s.Blocks {
		for _, blk := range row {
			if blk != nil {
				nz++
			}
		}
	}
	return fmt.Sprintf("linear %s: %d->%d shards, %d/%d blocks", s.Label, in, out, nz, in*out)
}

// ShardedAct applies a polynomial activation shard-wise, with the
// coefficient vectors sliced to each shard's slot layout.
type ShardedAct struct {
	Acts []*ActStage
}

// newShardedAct slices the per-unit coefficients through the manifest's
// slot→global bijection: shard s's slot i activates with the
// coefficients of global element man.GlobalAt(s, i). A single-shard
// manifest reproduces the single-ciphertext ActStage exactly.
func newShardedAct(label string, l *nn.SLAF, unitOf func(i int) int, man shard.Manifest, slots int) (*ShardedAct, error) {
	st := &ShardedAct{Acts: make([]*ActStage, man.NumShards())}
	for s := range st.Acts {
		lbl := label
		if man.NumShards() > 1 {
			lbl = fmt.Sprintf("%s/s%d", label, s)
		}
		s := s
		shardUnit := func(i int) int { return unitOf(man.GlobalAt(s, i)) }
		act, err := NewActStage(lbl, l, man.ShardLen(s), shardUnit, slots)
		if err != nil {
			return nil, err
		}
		st.Acts[s] = act
	}
	return st, nil
}

// Eval implements Stage: shards activate independently.
func (s *ShardedAct) Eval(e Engine, in []Ct) []Ct {
	out := make([]Ct, len(s.Acts))
	for i, act := range s.Acts {
		out[i] = act.Eval(e, in[i])
	}
	return out
}

// Rotations implements Stage.
func (s *ShardedAct) Rotations() []int { return nil }

// Depth implements Stage.
func (s *ShardedAct) Depth() int { return s.Acts[0].Depth() }

// Describe implements Stage.
func (s *ShardedAct) Describe() string {
	if len(s.Acts) == 1 {
		return s.Acts[0].Describe()
	}
	return fmt.Sprintf("%s x%d shards", s.Acts[0].Describe(), len(s.Acts))
}

// LinearStage is the single-ciphertext linear kernel — one block of a
// ShardedLinear stage: y = M·x + b by the Halevi–Shoup diagonal method
// with baby-step/giant-step rotations. M is held as its nonzero
// generalized diagonals over the full slot dimension.
type LinearStage struct {
	Label string
	// Diags maps diagonal index k to the vector diag_k[i] = M[i][(i+k) mod slots].
	Diags map[int][]float64
	// Bias is the slot-aligned bias vector.
	Bias  []float64
	Slots int
	// BSGS split: Baby · Giant = Slots.
	Baby, Giant int
}

// NewLinearStage lowers an explicit rows×cols matrix (rows, cols ≤ slots)
// with bias to a kernel.
func NewLinearStage(label string, m *tensor.Tensor, bias []float64, slots int) (*LinearStage, error) {
	rows, cols := m.Shape[0], m.Shape[1]
	if rows > slots || cols > slots {
		return nil, fmt.Errorf("henn: matrix %dx%d exceeds %d slots", rows, cols, slots)
	}
	st := &LinearStage{
		Label: label,
		Diags: map[int][]float64{},
		Bias:  make([]float64, slots),
		Slots: slots,
	}
	copy(st.Bias, bias)
	for k := 0; k < slots; k++ {
		var diag []float64
		for i := 0; i < rows; i++ {
			j := (i + k) % slots
			if j >= cols {
				continue
			}
			v := m.Data[i*cols+j]
			if v == 0 {
				continue
			}
			if diag == nil {
				diag = make([]float64, slots)
			}
			diag[i] = v
		}
		if diag != nil {
			st.Diags[k] = diag
		}
	}
	if len(st.Diags) == 0 {
		return nil, fmt.Errorf("henn: zero matrix for stage %s", label)
	}
	// Balanced power-of-two BSGS split.
	logS := 0
	for 1<<logS < slots {
		logS++
	}
	st.Baby = 1 << ((logS + 1) / 2)
	st.Giant = slots / st.Baby
	return st, nil
}

// Rotations lists the used baby steps and giant steps.
func (s *LinearStage) Rotations() []int {
	var ks []int
	for k := range s.Diags {
		ks = append(ks, k%s.Baby, k/s.Baby*s.Baby)
	}
	return union(ks)
}

// Describe returns a human-readable summary.
func (s *LinearStage) Describe() string {
	return fmt.Sprintf("linear %s: %d diagonals, bsgs %dx%d", s.Label, len(s.Diags), s.Baby, s.Giant)
}

// rotateVec cyclically rotates v left by k (k may be negative).
func rotateVec(v []float64, k int) []float64 {
	n := len(v)
	k = ((k % n) + n) % n
	if k == 0 {
		return v
	}
	out := make([]float64, n)
	copy(out, v[k:])
	copy(out[n-k:], v[:k])
	return out
}

// Eval applies the kernel to one ciphertext. The output scale returns to
// the input scale after the built-in rescale; one level is consumed.
func (s *LinearStage) Eval(e Engine, x Ct) Ct {
	return e.Rescale(s.evalRaw(e, x, true))
}

// evalRaw is Eval up to (not including) the final rescale: the BSGS
// accumulator at the pre-rescale scale S·q̃_ℓ. A sharded stage sums
// several block accumulators (one per input shard) at this scale before
// paying the single rescale; with one block the sequence rescale∘evalRaw
// is exactly Eval, which is what makes the 1×1-grid lowering bit-identical
// to the single-ciphertext one.
func (s *LinearStage) evalRaw(e Engine, x Ct, withBias bool) Ct {
	level := e.Level(x)
	ptScale := e.QiFloat(level)
	// Hoist all baby-step rotations: the key-switch decomposition of x is
	// computed once for the whole stage.
	babySteps := map[int]bool{}
	for k := range s.Diags {
		babySteps[k%s.Baby] = true
	}
	var babyList []int
	for j := range babySteps {
		babyList = append(babyList, j)
	}
	babies := e.RotateMany(x, babyList)
	var acc Ct
	for i := 0; i < s.Giant; i++ {
		var inner Ct
		for j := 0; j < s.Baby; j++ {
			k := i*s.Baby + j
			diag, ok := s.Diags[k]
			if !ok {
				continue
			}
			baby := babies[j]
			term := e.MulPlainVecCached(baby, fmt.Sprintf("%s/d%d", s.Label, k),
				rotateVec(diag, -i*s.Baby), ptScale)
			if inner == nil {
				inner = term
			} else {
				inner = e.Add(inner, term)
			}
		}
		if inner == nil {
			continue
		}
		if i != 0 {
			inner = e.Rotate(inner, i*s.Baby)
		}
		if acc == nil {
			acc = inner
		} else {
			acc = e.Add(acc, inner)
		}
	}
	if withBias {
		// Bias joins at the pre-rescale scale S·q̃_ℓ.
		acc = e.AddPlainVecCached(acc, s.Label+"/bias", s.Bias)
	}
	return acc
}

// ActStage is the single-ciphertext activation kernel — one shard of a
// ShardedAct stage: a degree-≤4 polynomial with per-slot coefficient
// vectors. Degrees 1–3 take multiplicative depth 2:
//
//	y = A0 + A1⊙x + (A2 + A3⊙x)⊙x².
//
// Degree 4 — the Ishiyama-style higher-fidelity activation the CIFAR-10
// CNN3 config uses — takes depth 3:
//
//	y = A0 + A1⊙x + (A2 + A3⊙x + A4⊙x²)⊙x².
type ActStage struct {
	Label  string
	Degree int
	// A[p] is the slot-aligned coefficient vector for power p.
	A      [5][]float64
	SlotsN int
}

// NewActStage builds an activation kernel from per-unit SLAF coefficients
// broadcast over the packed layout. unitOf maps a slot index (< dim) to
// its coefficient group.
func NewActStage(label string, s *nn.SLAF, dim int, unitOf func(i int) int, slots int) (*ActStage, error) {
	if s.Degree > 4 || s.Degree < 1 {
		return nil, fmt.Errorf("henn: unsupported SLAF degree %d (1..4)", s.Degree)
	}
	st := &ActStage{Label: label, Degree: s.Degree, SlotsN: slots}
	for p := 0; p <= s.Degree; p++ {
		st.A[p] = make([]float64, slots)
	}
	for i := 0; i < dim; i++ {
		u := unitOf(i)
		for p := 0; p <= s.Degree; p++ {
			st.A[p][i] = s.Coeffs.Data[u*(s.Degree+1)+p]
		}
	}
	return st, nil
}

// Depth is the number of rescales the activation consumes.
func (s *ActStage) Depth() int {
	if s.Degree >= 4 {
		return 3
	}
	return 2
}

// Describe returns a human-readable summary.
func (s *ActStage) Describe() string {
	return fmt.Sprintf("act %s: degree %d", s.Label, s.Degree)
}

// Eval applies the activation to one ciphertext.
func (s *ActStage) Eval(e Engine, x Ct) Ct {
	level := e.Level(x)
	scaleX := e.ScaleOf(x)
	switch s.Degree {
	case 1:
		// y = A0 + A1⊙x (consume one level for uniform depth accounting).
		t := e.Rescale(e.MulPlainVecCached(x, s.Label+"/a1", s.A[1], e.QiFloat(level)))
		t = e.DropLevel(t, 1)
		return e.AddPlainVecCached(t, s.Label+"/a0", s.A[0])
	case 2:
		// y = A0 + A1⊙x + A2⊙x²
		x2 := e.Rescale(e.MulRelin(x, x)) // level-1, S²/q
		t2 := e.Rescale(e.MulPlainVecCached(x2, s.Label+"/a2", s.A[2], e.QiFloat(level-1)))
		// A1⊙x aligned to t2's scale and level.
		target := e.ScaleOf(t2)
		sc1 := target * e.QiFloat(level) / scaleX
		t1 := e.DropLevel(e.Rescale(e.MulPlainVecCached(x, s.Label+"/a1", s.A[1], sc1)), 1)
		y := e.Add(t2, t1)
		return e.AddPlainVecCached(y, s.Label+"/a0", s.A[0])
	case 3:
		x2 := e.Rescale(e.MulRelin(x, x)) // level-1, S²/q_ℓ
		// u = A3⊙x + A2 at level-1
		u := e.Rescale(e.MulPlainVecCached(x, s.Label+"/a3", s.A[3], e.QiFloat(level)))
		u = e.AddPlainVecCached(u, s.Label+"/a2", s.A[2])
		v := e.Rescale(e.MulRelin(u, x2)) // level-2
		// w = A1⊙x aligned to v.
		target := e.ScaleOf(v)
		sc1 := target * e.QiFloat(level) / scaleX
		w := e.DropLevel(e.Rescale(e.MulPlainVecCached(x, s.Label+"/a1", s.A[1], sc1)), 1)
		y := e.Add(v, w)
		return e.AddPlainVecCached(y, s.Label+"/a0", s.A[0])
	default: // 4
		x2 := e.Rescale(e.MulRelin(x, x)) // level-1, s2 := S²/q_ℓ
		// q = A4⊙x² + A3⊙x + A2 at level-2, scale s2.
		t4 := e.Rescale(e.MulPlainVecCached(x2, s.Label+"/a4", s.A[4], e.QiFloat(level-1)))
		target := e.ScaleOf(t4)
		sc3 := target * e.QiFloat(level) / scaleX
		t3 := e.DropLevel(e.Rescale(e.MulPlainVecCached(x, s.Label+"/a3", s.A[3], sc3)), 1)
		q := e.AddPlainVecCached(e.Add(t4, t3), s.Label+"/a2", s.A[2])
		v := e.Rescale(e.MulRelin(q, e.DropLevel(x2, 1))) // level-3
		// w = A1⊙x aligned to v.
		targetV := e.ScaleOf(v)
		sc1 := targetV * e.QiFloat(level) / scaleX
		w := e.DropLevel(e.Rescale(e.MulPlainVecCached(x, s.Label+"/a1", s.A[1], sc1)), 2)
		y := e.Add(v, w)
		return e.AddPlainVecCached(y, s.Label+"/a0", s.A[0])
	}
}
