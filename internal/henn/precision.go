package henn

import (
	"fmt"
	"math"

	"cnnhe/internal/ckks"
	"cnnhe/internal/noise"
)

// PrecisionEstimate predicts, before running anything, how many fractional
// bits of precision an encrypted evaluation of the plan will retain under
// the given parameters — the §III.C-style error analysis applied to a whole
// pipeline. It walks the stages with the internal/noise budget tracker
// using conservative per-stage bounds.
type PrecisionEstimate struct {
	// FinalBits is log2(scale/noise) at the output.
	FinalBits float64
	// PerStage records the bits remaining after each stage.
	PerStage []StagePrecision
}

// StagePrecision is one row of the precision report.
type StagePrecision struct {
	Stage string
	Bits  float64
}

// EstimatePrecision runs the noise model over the plan. valueBound is the
// expected magnitude of intermediate activations (from
// nn.ActivationRanges; use ~30 for CNN1-scale models).
func (p *Plan) EstimatePrecision(params ckks.Parameters, valueBound float64) (*PrecisionEstimate, error) {
	if err := p.CheckDepth(params.MaxLevel()); err != nil {
		return nil, err
	}
	m := noise.Model{N: params.N(), Sigma: params.Sigma, H: params.H}
	pf, _ := params.Chain.P().Float64()
	b := noise.NewBudget(m, params.Scale)
	level := params.MaxLevel()
	out := &PrecisionEstimate{}
	record := func(s Stage) {
		out.PerStage = append(out.PerStage, StagePrecision{Stage: s.Describe(), Bits: b.BitsOfPrecision()})
	}
	for _, s := range p.Stages {
		digits, maxDigit := params.KeySwitchBound(level)
		ks := m.KeySwitch(digits, maxDigit, pf)
		switch st := s.(type) {
		case *ShardedLinear:
			// Baby rotations add key-switch noise to the operand once
			// (hoisted); each diagonal product scales noise by the
			// plaintext; giant rotations add key-switch noise again.
			maxDiag := 0.0
			for _, row := range st.Blocks {
				for _, blk := range row {
					if blk != nil {
						maxDiag = math.Max(maxDiag, maxAbsVec(blk.Diags))
					}
				}
			}
			b.AfterRotation(ks)
			b.AfterMulPlain(params.QiFloat(level), maxDiag, params.QiFloat(level))
			b.AfterRotation(ks)
			level--
		case *ShardedAct:
			// x² (one mult+relin+rescale), then the coefficient layer
			// (plaintext mult + rescale).
			maxCoeff := 0.0
			for _, act := range st.Acts {
				maxCoeff = math.Max(maxCoeff, maxActCoeff(act))
			}
			b.AfterMul(b.Noise, valueBound, valueBound, ks, params.QiFloat(level))
			level--
			b.AfterMulPlain(params.QiFloat(level), maxCoeff, params.QiFloat(level))
			level--
		default:
			return nil, fmt.Errorf("henn: cannot estimate stage %T", s)
		}
		record(s)
	}
	out.FinalBits = b.BitsOfPrecision()
	return out, nil
}

func maxAbsVec(diags map[int][]float64) float64 {
	m := 0.0
	for _, d := range diags {
		for _, v := range d {
			if a := math.Abs(v); a > m {
				m = a
			}
		}
	}
	if m == 0 {
		return 1
	}
	return m
}

func maxActCoeff(st *ActStage) float64 {
	m := 0.0
	for p := 0; p <= st.Degree; p++ {
		for _, v := range st.A[p] {
			if a := math.Abs(v); a > m {
				m = a
			}
		}
	}
	if m == 0 {
		return 1
	}
	return m
}

// String renders the report.
func (pe *PrecisionEstimate) String() string {
	s := fmt.Sprintf("estimated output precision: %.1f bits\n", pe.FinalBits)
	for _, r := range pe.PerStage {
		s += fmt.Sprintf("  %-48s %6.1f bits\n", r.Stage, r.Bits)
	}
	return s
}
