package henn

import (
	"context"
	"fmt"

	"cnnhe/internal/nn"
)

// Batched inference packs B images into one ciphertext at a fixed block
// stride and lowers every linear layer to the block-diagonal matrix
// blockdiag(M, …, M). The diagonal method evaluates any matrix, so the
// per-ciphertext cost is unchanged while throughput multiplies by B —
// the SIMD amortization that E2DM and Lo-La (paper Table I) exploit.
//
// BatchPlan wraps a model compiled with block replication.
type BatchPlan struct {
	Plan      *Plan
	Batch     int
	BlockSize int
}

// CompileBatched compiles model for `batch` images per ciphertext. The
// block size is slots/batch and must be a power of two at least as large
// as the widest layer dimension.
func CompileBatched(m *nn.Model, slots, batch int) (*BatchPlan, error) {
	base, err := Compile(m, slots)
	if err != nil {
		return nil, err
	}
	return base.Batched(batch)
}

// Batched packs `batch` images per ciphertext at block stride
// slots/batch, rebuilding every stage tiled across the blocks. Batch 1
// serves p itself — any plan, multi-shard ones included, one image per
// evaluation; packing several images needs a single-ciphertext plan.
func (p *Plan) Batched(batch int) (*BatchPlan, error) {
	if batch < 1 || p.Slots%batch != 0 {
		return nil, fmt.Errorf("henn: batch %d must divide %d slots", batch, p.Slots)
	}
	block := p.Slots / batch
	if block&(block-1) != 0 {
		return nil, fmt.Errorf("henn: block size %d must be a power of two", block)
	}
	if batch == 1 {
		return &BatchPlan{Plan: p, Batch: 1, BlockSize: block}, nil
	}
	if p.Digits != nil || p.NumShards() > 1 {
		return nil, fmt.Errorf("henn: only a single-ciphertext plan packs %d images per ciphertext", batch)
	}
	out := &Plan{Slots: p.Slots, InputDim: p.InputDim, OutputDim: p.OutputDim, Input: p.Input, Depth: p.Depth, Opt: p.Opt}
	for _, st := range p.Stages {
		switch s := st.(type) {
		case *ShardedLinear:
			if len(s.Blocks) == 1 && len(s.Blocks[0]) == 1 {
				tiled, err := tileLinear(s.Blocks[0][0], block, batch, p.Slots)
				if err != nil {
					return nil, err
				}
				out.Stages = append(out.Stages, &ShardedLinear{Label: tiled.Label, Blocks: [][]*LinearStage{{tiled}}})
				continue
			}
		case *ShardedAct:
			if len(s.Acts) == 1 {
				out.Stages = append(out.Stages, &ShardedAct{Acts: []*ActStage{tileAct(s.Acts[0], block, batch, p.Slots)}})
				continue
			}
		}
		return nil, fmt.Errorf("henn: cannot batch stage %s", st.Describe())
	}
	return &BatchPlan{Plan: out, Batch: batch, BlockSize: block}, nil
}

// tileLinear rebuilds a linear stage as blockdiag(M, …, M). The original
// stage was lowered at full slot width, so its diagonals describe M
// embedded at block 0; entries must fit within one block. The tiled rows
// span every block, so the tiled stage's period is the slot count.
func tileLinear(s *LinearStage, block, batch, slots int) (*LinearStage, error) {
	t := &LinearStage{
		Label: s.Label + fmt.Sprintf("×%d", batch),
		Diags: map[int][]float64{},
		Bias:  make([]float64, slots),
		Slots: slots,
	}
	for k, diag := range s.Diags {
		for i, v := range diag {
			if v == 0 {
				continue
			}
			j := (i + k) % slots
			if i >= block || j >= block {
				return nil, fmt.Errorf("henn: stage %s exceeds block size %d (entry %d→%d)", s.Label, block, j, i)
			}
		}
		// In-block offset d of this diagonal: columns j = i + d with
		// d = k (when k < block) or d = k − slots (negative wrap).
		d := k
		if d >= block {
			d -= slots
		}
		if d <= -block {
			return nil, fmt.Errorf("henn: stage %s diagonal %d outside block", s.Label, k)
		}
		nk := ((d % slots) + slots) % slots
		nd := t.Diags[nk]
		if nd == nil {
			nd = make([]float64, slots)
			t.Diags[nk] = nd
		}
		for i, v := range diag {
			if v == 0 {
				continue
			}
			for b := 0; b < batch; b++ {
				nd[b*block+i] = v
			}
		}
	}
	for b := 0; b < batch; b++ {
		copy(t.Bias[b*block:(b+1)*block], s.Bias)
	}
	return t, nil
}

// tileAct replicates the activation coefficient vectors per block.
func tileAct(s *ActStage, block, batch, slots int) *ActStage {
	t := &ActStage{Label: s.Label + fmt.Sprintf("×%d", batch), Degree: s.Degree, SlotsN: slots}
	for p := 0; p <= s.Degree; p++ {
		t.A[p] = make([]float64, slots)
		for b := 0; b < batch; b++ {
			copy(t.A[p][b*block:(b+1)*block], s.A[p][:block])
		}
	}
	return t
}

// PackBatch lays images out at the block stride, rejecting pixels the
// plan's InferCtx would reject.
func (bp *BatchPlan) PackBatch(images [][]float64) ([]float64, error) {
	if len(images) > bp.Batch {
		return nil, badInput("%d images exceed batch %d", len(images), bp.Batch)
	}
	out := make([]float64, bp.Plan.Slots)
	for b, img := range images {
		if len(img) > bp.BlockSize {
			return nil, badInput("image length %d exceeds block %d", len(img), bp.BlockSize)
		}
		if err := bp.Plan.checkPixels(img); err != nil {
			return nil, fmt.Errorf("image %d: %w", b, err)
		}
		copy(out[b*bp.BlockSize:], img)
	}
	return out, nil
}

// InferBatchCtx classifies up to Batch images in one encrypted
// evaluation, with the same contract as Plan.InferCtx: the context is
// checked before every op, engine panics surface as classified errors,
// and a per-stage Report is returned non-nil even on failure
// (FailedStage names the stage that errored). A lone image travels
// through the plan's own input layout (its shards, for a multi-shard
// plan); several are packed at the block stride. Either way the inputs
// run through the plan's lowered op graph with ahead-of-time encoded
// plaintexts, shared across calls, and the batch shares one decrypt.
func (bp *BatchPlan) InferBatchCtx(ctx context.Context, e Engine, images [][]float64) ([]Logits, *Report, error) {
	rep := &Report{Engine: e.Name()}
	var inputs [][]float64
	var err error
	switch len(images) {
	case 0:
		err = badInput("no images in batch")
	case 1:
		inputs, err = bp.Plan.inputs(images[0])
	default:
		var packed []float64
		packed, err = bp.PackBatch(images)
		inputs = [][]float64{packed}
	}
	if err != nil {
		rep.FailedStage = "pack"
		return nil, rep, err
	}
	slots, err := bp.Plan.run(ctx, e, inputs, (len(images)-1)*bp.BlockSize+bp.Plan.OutputDim, rep)
	if err != nil {
		return nil, rep, err
	}
	out := make([]Logits, len(images))
	for b := range images {
		off := b * bp.BlockSize
		out[b] = Logits(append([]float64(nil), slots[off:off+bp.Plan.OutputDim]...))
	}
	return out, rep, nil
}
