package henn

import (
	"fmt"
	"sync"

	"cnnhe/internal/henn/exec"
	"cnnhe/internal/henn/ir"
	"cnnhe/internal/henn/ir/opt"
	"cnnhe/internal/henn/shard"
	"cnnhe/internal/nn"
	"cnnhe/internal/rnsdec"
	"cnnhe/internal/tensor"
)

// Plan is a compiled homomorphic evaluation pipeline. The input image
// splits across Input.NumShards() ciphertexts (one for Compile's 1×1
// grid), every stage maps a shard set to a shard set, and the pipeline
// converges to a single ciphertext holding the logits. An optional RNS
// digit front-end (NewRNSPlan) decomposes the image into digit parts,
// which stage 0 reads as the blocks of one row.
type Plan struct {
	// Slots is the SIMD width the plan was compiled for.
	Slots int
	// InputDim is the raw input length (784 pixels).
	InputDim int
	// OutputDim is the number of logits.
	OutputDim int
	// Input is the manifest images split by; a multi-shard plan
	// advertises its wire form in /v1/info.
	Input shard.Manifest
	// Stages in evaluation order.
	Stages []Stage
	// Depth is the number of levels the plan consumes.
	Depth int
	// Digits, when set, is the Fig. 5 CNN-RNS front-end: the image is
	// decomposed into Digits.Digits digit tensors (rnsdec digit mode —
	// the exact, fully homomorphic variant of the paper's residue
	// decomposition, see DESIGN.md S4), one input ciphertext each, and
	// stage 0 is one block row over the parts that recomposes them
	// (NewRNSPlan).
	Digits *rnsdec.DigitBasis
	// Opt configures the graph optimizer run between lowering and
	// preparation; nil fuses reduction trees, and opt.Disabled()
	// (-opt=off, the parity reference) executes the canonical lowering
	// unchanged.
	Opt *opt.Options

	// The plan holds one prepared graph, for the engine it was last
	// prepared for; the zero value is ready to use.
	mu          sync.Mutex
	preparedFor Engine
	prepared    *exec.Prepared
	optResult   *opt.Result
}

// Prepare compiles the plan for e: it lowers, optimizes per p.Opt, and
// pre-encodes every plaintext operand at its statically inferred (level,
// scale). The result is the caller's to keep — nothing is cached, so a
// holder of its own graph (the keyed route, which rebinds it per client
// with exec.Prepared.On) never competes for the plan's cached slot.
func (p *Plan) Prepare(e Engine) (*exec.Prepared, *opt.Result, error) {
	g, err := p.Lower(e)
	if err != nil {
		return nil, nil, err
	}
	res, err := optimizeLowered(e, g, p.Opt)
	if err != nil {
		return nil, nil, err
	}
	pr, err := exec.Prepare(e, res.Graph)
	if err != nil {
		return nil, nil, err
	}
	return pr, res, nil
}

// prepare is Prepare kept for the next call on the same engine;
// preparing for another engine drops the previous engine's graph first,
// so one plan never holds more than one engine's plaintexts.
func (p *Plan) prepare(e Engine) (*exec.Prepared, *opt.Result, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.prepared != nil && p.preparedFor == e {
		telPrepare(true)
		return p.prepared, p.optResult, nil
	}
	telPrepare(false)
	p.preparedFor, p.prepared, p.optResult = nil, nil, nil
	pr, res, err := p.Prepare(e)
	if err != nil {
		return nil, nil, err
	}
	p.preparedFor, p.prepared, p.optResult = e, pr, res
	return pr, res, nil
}

// OptResult returns the optimizer outcome for e, preparing the plan if
// needed (before/after stats, for CLIs and bench reports).
func (p *Plan) OptResult(e Engine) (*opt.Result, error) {
	_, res, err := p.prepare(e)
	return res, err
}

// Warm lowers the plan for e and pre-encodes its plaintext operands, so
// a later InferCtx pays no one-time preparation cost inside its
// deadline. Safe to call concurrently; repeated calls are no-ops.
func (p *Plan) Warm(e Engine) error {
	_, _, err := p.prepare(e)
	return err
}

// NumShards returns the input ciphertext count of the image layout.
func (p *Plan) NumShards() int { return p.Input.NumShards() }

// Rotations returns the union of rotation amounts needed by all stages.
func (p *Plan) Rotations() []int {
	var all []int
	for _, s := range p.Stages {
		all = append(all, s.Rotations()...)
	}
	return union(all)
}

// CheckDepth verifies the plan fits the engine's level budget.
func (p *Plan) CheckDepth(maxLevel int) error {
	if p.Depth > maxLevel {
		return fmt.Errorf("henn: plan needs %d levels but parameters provide %d", p.Depth, maxLevel)
	}
	return nil
}

// Describe returns a multi-line plan summary.
func (p *Plan) Describe() string {
	out := fmt.Sprintf("plan: %d stages, depth %d, %d rotations\n", len(p.Stages), p.Depth, len(p.Rotations()))
	for i := range p.Stages {
		out += "  " + p.describeStage(i) + "\n"
	}
	return out
}

// describeStage names stage i. On the Fig. 5 front-end, stage 0's block
// row reads the digit parts of one image, not shards.
func (p *Plan) describeStage(i int) string {
	if first, ok := p.Stages[i].(*ShardedLinear); ok && i == 0 && p.Digits != nil && p.Digits.Digits > 1 {
		return first.describe(fmt.Sprintf("%d digit parts -> 1", p.Digits.Digits))
	}
	return p.Stages[i].Describe()
}

// Options controls plan compilation.
type Options struct {
	// Collapse merges adjacent linear layers (conv, pool, dense, folded
	// batch norm) into a single matrix before lowering — the paper's
	// Table I "2-arch" dual-architecture strategy. Each collapse saves one
	// multiplicative level and one full BSGS matrix-vector product.
	Collapse bool
}

// Compile lowers a trained SLAF model to a single-ciphertext (1×1 grid)
// homomorphic plan for the given slot count with linear collapsing
// enabled.
func Compile(m *nn.Model, slots int) (*Plan, error) {
	return CompileWithOptions(m, slots, Options{Collapse: true})
}

// CompileWithOptions is Compile with explicit options. The first linear
// layer absorbs the 1/255 pixel normalization (inputs are encrypted as
// raw [0, 255] pixels); batch normalization layers are folded into the
// preceding convolution.
func CompileWithOptions(m *nn.Model, slots int, opts Options) (*Plan, error) {
	return compile(m, slots, opts, &shard.Grid{Gy: 1, Gx: 1})
}

// CompileSharded compiles with the input split by grid. Intermediate
// manifests are chosen per stage boundary (single-shard as soon as the
// tensor fits), so a 1×1 grid is exactly Compile.
func CompileSharded(m *nn.Model, slots int, grid shard.Grid) (*Plan, error) {
	return compile(m, slots, Options{Collapse: true}, &grid)
}

// CompileShardedAuto compiles with the smallest horizontal-band input
// grid whose shards fit the slot count — a 1×1 grid, and therefore
// Compile's plan, whenever the input already fits one ciphertext.
func CompileShardedAuto(m *nn.Model, slots int) (*Plan, error) {
	return compile(m, slots, Options{Collapse: true}, nil)
}

// compile is the one compile walk: the model's abstract stages lowered
// over the input manifest of grid (nil = the smallest grid that fits),
// with every linear stage carved into inter-shard blocks.
func compile(m *nn.Model, slots int, opts Options, grid *shard.Grid) (*Plan, error) {
	abs, input, outputDim, err := buildAbstract(m, opts)
	if err != nil {
		return nil, err
	}
	var cur shard.Manifest
	if grid == nil {
		cur, err = manifestFor(input, slots)
	} else {
		cur, err = shard.New(shardShapeOf(input), *grid, slots)
	}
	if err != nil {
		return nil, err
	}
	plan := &Plan{Slots: slots, InputDim: input.flat, OutputDim: outputDim, Input: cur}
	for _, a := range abs {
		var st Stage
		if a.mat == nil {
			if st, err = newShardedAct(a.label, a.slaf, a.unitOf, cur, slots); err != nil {
				return nil, err
			}
		} else {
			out, err := manifestFor(a.out, slots)
			if err != nil {
				return nil, fmt.Errorf("henn: stage %s: %w", a.label, err)
			}
			sl, err := newShardedLinear(a.label, a.mat, a.bias, cur, out, slots)
			if err != nil {
				return nil, err
			}
			// Record the cross-shard fan-in on the advertised manifest.
			plan.Input.Halo = max(plan.Input.Halo, sl.fanIn())
			st, cur = sl, out
		}
		plan.Stages = append(plan.Stages, st)
		plan.Depth += st.Depth()
	}
	if cur.NumShards() != 1 {
		return nil, fmt.Errorf("henn: pipeline ends on %d shards; the final stage must converge to one ciphertext", cur.NumShards())
	}
	return plan, nil
}

// NewRNSPlan returns the Fig. 5 CNN-RNS pipeline over base: the image
// decomposes into k digit parts covering 8-bit pixels, in the smallest
// base B with Bᵏ ≥ 256, and stage 0 is base's first linear stage as one
// output row of k blocks, block i being the base block with its
// diagonals times Bⁱ. By linearity Σᵢ Bⁱ·M·dᵢ = M·x, so the parts
// recompose inside stage 0's giant-step sums, before any activation.
// The later stages are base's. It needs a single-ciphertext input and a
// linear first stage.
func NewRNSPlan(base *Plan, k int) (*Plan, error) {
	if len(base.Stages) == 0 {
		return nil, fmt.Errorf("henn: empty base plan")
	}
	if base.NumShards() != 1 {
		return nil, fmt.Errorf("henn: RNS pipeline needs a single-ciphertext input, plan has %d shards", base.NumShards())
	}
	first, ok := base.Stages[0].(*ShardedLinear)
	if !ok || len(first.Blocks) != 1 {
		return nil, fmt.Errorf("henn: RNS pipeline requires a single-ciphertext linear first stage")
	}
	var db rnsdec.DigitBasis
	for b := int64(2); db.Range() < 256; b++ {
		var err error
		if db, err = rnsdec.NewDigitBasis(b, k); err != nil {
			return nil, err
		}
	}
	blk := first.Blocks[0][0]
	row := make([]*LinearStage, k)
	for i, w := range db.Weights() {
		// Every block carries the row's bias (its length is the row
		// count); only the carrier, part 0, adds it.
		part := &LinearStage{Label: fmt.Sprintf("%s/p%d", blk.Label, i), Diags: map[int][]float64{}, Bias: blk.Bias, Slots: blk.Slots}
		for d, diag := range blk.Diags {
			part.Diags[d] = make([]float64, len(diag))
			for s, v := range diag {
				part.Diags[d][s] = w * v
			}
		}
		row[i] = part
	}
	stages := append([]Stage{&ShardedLinear{Label: first.Label, Blocks: [][]*LinearStage{row}}}, base.Stages[1:]...)
	return &Plan{
		Slots: base.Slots, InputDim: base.InputDim, OutputDim: base.OutputDim, Input: base.Input,
		Stages: stages, Depth: base.Depth, Digits: &db, Opt: base.Opt,
	}, nil
}

// optimizeLowered runs the graph optimizer and records its pass metrics.
func optimizeLowered(e Engine, g *ir.Graph, o *opt.Options) (*opt.Result, error) {
	res, err := opt.Optimize(e, g, o)
	if err != nil {
		return nil, err
	}
	telOptimize(res)
	return res, nil
}

// tshape tracks the tensor shape flowing between layers during the model
// walk (c = 0 for flat vectors).
type tshape struct {
	c, h, w int
	flat    int
}

// absStage is one pipeline step in compiler-internal form: a linear map
// (mat != nil) or a polynomial activation (slaf != nil), with the tensor
// shapes at its boundaries.
type absStage struct {
	label string
	// Linear: rows = out.flat, cols = in.flat.
	mat  *tensor.Tensor
	bias []float64
	// Activation: per-unit SLAF coefficients; unitOf maps a global flat
	// index (< in.flat) to its coefficient group.
	slaf    *nn.SLAF
	unitOf  func(i int) int
	in, out tshape
}

// pendingLinear accumulates a linear map awaiting lowering (and possible
// collapsing with the next linear layer).
type pendingLinear struct {
	label   string
	mat     *tensor.Tensor
	bias    []float64
	in, out tshape
}

func (p *pendingLinear) abs() absStage {
	return absStage{label: p.label, mat: p.mat, bias: p.bias, in: p.in, out: p.out}
}

// buildAbstract walks the model layers into abstract stages: it detects
// the input shape, folds batch norms into their convolutions, collapses
// adjacent linear layers when enabled, absorbs the 1/255 pixel
// normalization into the first linear matrix (inputs are encrypted as
// raw [0, 255] pixels), and records the tensor shape at every stage
// boundary so the compile walk can choose per-boundary manifests.
func buildAbstract(m *nn.Model, opts Options) (stages []absStage, input tshape, outputDim int, err error) {
	var cur tshape
	layers := m.Layers
	switch first := layers[0].(type) {
	case *nn.Conv2D:
		cur = tshape{c: first.InC, h: first.InH, w: first.InW, flat: first.InC * first.InH * first.InW}
	case *nn.Dense:
		cur = tshape{flat: first.In}
	case *nn.Flatten:
		if len(layers) < 2 {
			return nil, tshape{}, 0, fmt.Errorf("henn: model too short")
		}
		d, ok := layers[1].(*nn.Dense)
		if !ok {
			return nil, tshape{}, 0, fmt.Errorf("henn: flatten must precede a dense layer at the input")
		}
		cur = tshape{flat: d.In}
	default:
		return nil, tshape{}, 0, fmt.Errorf("henn: unsupported first layer %T", layers[0])
	}
	input = cur
	inputScale := 1.0 / 255

	var pending *pendingLinear
	// pushLinear queues a linear map, collapsing it into the pending one
	// when enabled: M2·(M1·x + b1) + b2 = (M2·M1)·x + (M2·b1 + b2).
	pushLinear := func(label string, mat *tensor.Tensor, bias []float64, in, out tshape) {
		applyInputScale(mat, &inputScale)
		if pending == nil {
			pending = &pendingLinear{label: label, mat: mat, bias: bias, in: in, out: out}
			return
		}
		if !opts.Collapse {
			stages = append(stages, pending.abs())
			pending = &pendingLinear{label: label, mat: mat, bias: bias, in: in, out: out}
			return
		}
		merged := tensor.MatMul(mat, pending.mat)
		mb := tensor.MatVec(mat, pending.bias)
		for i := range mb {
			mb[i] += bias[i]
		}
		pending = &pendingLinear{label: pending.label + "*" + label, mat: merged, bias: mb, in: pending.in, out: out}
	}
	flushPending := func() {
		if pending != nil {
			stages = append(stages, pending.abs())
			pending = nil
		}
	}

	for li := 0; li < len(layers); li++ {
		switch l := layers[li].(type) {
		case *nn.Conv2D:
			wt := tensor.FromSlice(l.W.Data, l.OutC, l.InC, l.K, l.K)
			mat, bias := tensor.ConvAsMatrix(wt, l.B.Data, l.InC, l.InH, l.InW, l.Stride, l.Pad)
			outShape := tshape{c: l.OutC, h: l.OutH(), w: l.OutW()}
			outShape.flat = outShape.c * outShape.h * outShape.w
			// Fold a following BatchNorm2D.
			label := fmt.Sprintf("conv%d", li)
			if li+1 < len(layers) {
				if bn, ok := layers[li+1].(*nn.BatchNorm2D); ok {
					scale, shift := bn.InferenceAffine()
					hw := outShape.h * outShape.w
					for r := 0; r < mat.Shape[0]; r++ {
						ch := r / hw
						for c := 0; c < mat.Shape[1]; c++ {
							mat.Data[r*mat.Shape[1]+c] *= scale[ch]
						}
						bias[r] = scale[ch]*bias[r] + shift[ch]
					}
					label += "+bn"
					li++
				}
			}
			pushLinear(label, mat, bias, cur, outShape)
			cur = outShape

		case *nn.MeanPool2D:
			mat := l.AsMatrix()
			out := tshape{c: l.InC, h: l.OutH(), w: l.OutW(), flat: l.InC * l.OutH() * l.OutW()}
			pushLinear(fmt.Sprintf("pool%d", li), mat, make([]float64, mat.Shape[0]), cur, out)
			cur = out

		case *nn.Dense:
			mat := tensor.FromSlice(append([]float64(nil), l.W.Data...), l.Out, l.In)
			bias := append([]float64(nil), l.B.Data...)
			out := tshape{flat: l.Out}
			pushLinear(fmt.Sprintf("dense%d", li), mat, bias, cur, out)
			cur = out
			outputDim = l.Out

		case *nn.SLAF:
			flushPending()
			sh := cur
			units := l.Units
			unitOf := func(i int) int {
				if units == 1 {
					return 0
				}
				if sh.c > 0 {
					return i / (sh.h * sh.w)
				}
				return i % units
			}
			stages = append(stages, absStage{
				label: fmt.Sprintf("slaf%d", li), slaf: l, unitOf: unitOf, in: sh, out: sh,
			})

		case *nn.Flatten:
			cur = tshape{flat: cur.flat}

		case *nn.BatchNorm2D:
			return nil, tshape{}, 0, fmt.Errorf("henn: batch norm at layer %d does not follow a convolution", li)

		case *nn.ReLU:
			return nil, tshape{}, 0, fmt.Errorf("henn: model still contains ReLU at layer %d; retrofit SLAFs first", li)

		default:
			return nil, tshape{}, 0, fmt.Errorf("henn: unsupported layer %T", l)
		}
	}
	flushPending()
	if outputDim == 0 {
		return nil, tshape{}, 0, fmt.Errorf("henn: model has no dense output layer")
	}
	return stages, input, outputDim, nil
}

// applyInputScale folds a pending input scaling into the first linear
// matrix (columns scaled), then clears it.
func applyInputScale(mat *tensor.Tensor, s *float64) {
	if *s == 1 {
		return
	}
	for i := range mat.Data {
		mat.Data[i] *= *s
	}
	*s = 1
}

// shardShapeOf converts a walk shape to the manifest form (flat vectors
// become 1×1×flat).
func shardShapeOf(t tshape) shard.Shape {
	if t.c > 0 {
		return shard.Shape{C: t.c, H: t.h, W: t.w}
	}
	return shard.Shape{C: 1, H: 1, W: t.flat}
}

// manifestFor picks the stage-boundary manifest for a tensor:
// single-shard whenever it fits (so downstream stages stay on one
// ciphertext), else the smallest horizontal band grid that does.
func manifestFor(t tshape, slots int) (shard.Manifest, error) {
	shape := shardShapeOf(t)
	// Image tensors band across rows; flat vectors (H = 1) band across
	// their single spatial axis instead.
	for g := 1; g <= shape.H*shape.W; g++ {
		grid := shard.Grid{Gy: g, Gx: 1}
		if shape.H == 1 {
			if g > shape.W {
				break
			}
			grid = shard.Grid{Gy: 1, Gx: g}
		} else if g > shape.H {
			break
		}
		if m, err := shard.New(shape, grid, slots); err == nil {
			return m, nil
		}
	}
	return shard.Manifest{}, fmt.Errorf("henn: %dx%dx%d tensor does not fit %d slots even one band per shard",
		shape.C, shape.H, shape.W, slots)
}
