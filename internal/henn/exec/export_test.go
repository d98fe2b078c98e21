package exec

import (
	"context"

	"cnnhe/internal/henn/ir"
)

// Plaintexts exposes a preparation's pre-encoded operand handles (one per
// op, nil where none) to the external tests.
func Plaintexts(p *Prepared) []ir.Pt { return p.pts }

// runWorkers is Run on a forced number of workers instead of one per
// input ciphertext, so single-input test graphs exercise a concurrent
// schedule too.
func (p *Prepared) runWorkers(ctx context.Context, inputs [][]float64, workers int) (*Result, error) {
	cts, encDur, failedStage, err := p.EncryptInputs(ctx, inputs)
	if err != nil {
		return &Result{Encrypt: encDur, FailedStage: failedStage}, err
	}
	res, err := p.runEncrypted(ctx, cts, workers)
	res.Encrypt = encDur
	return res, err
}
