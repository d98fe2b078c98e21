package exec

import "cnnhe/internal/henn/ir"

// Plaintexts exposes a preparation's pre-encoded operand handles (one per
// op, nil where none) to the external tests.
func Plaintexts(p *Prepared) []ir.Pt { return p.pts }
