package guard

import (
	"fmt"
	"math/big"

	"cnnhe/internal/ckks"
	"cnnhe/internal/ckksbig"
	"cnnhe/internal/henn"
	"cnnhe/internal/henn/ir"
)

// validate runs the structural and coefficient-range invariants on a
// backend ciphertext, once per ciphertext an op makes or Adopt takes in,
// and in DecryptVec: 184 serial scans, ≈4–5 ms of a ≈200 ms CNN1 image at
// logN 11 on [40,26×6,40] (2 vCPUs). An unknown backend passes
// unchecked; the guard still converts its panics.
func (g *GuardedEngine) validate(op string, ct henn.Ct) {
	switch c := ct.(type) {
	case *ckks.Ciphertext:
		if g.rnsCtx != nil {
			g.validateRNS(op, c)
		}
	case *ckksbig.Ciphertext:
		if g.bigCtx != nil {
			g.validateBig(op, c)
		}
	}
}

// componentNames labels a ciphertext's two components in validation
// errors. The validators scan them in this fixed order, so a ciphertext
// corrupt in both always reports c0.
var componentNames = [2]string{"c0", "c1"}

// validateRNS checks an RNS ciphertext: level in range, every limb up to
// the level present and correctly sized (structure), and every residue
// word strictly below its modulus. A flipped or injected
// word ≥ q_i can never be produced by correct modular arithmetic, so the
// range scan catches corruption that would otherwise surface only as
// garbage slots after decryption.
func (g *GuardedEngine) validateRNS(op string, ct *ckks.Ciphertext) {
	r := g.rnsCtx.R
	if ct.Level < 0 || ct.Level > r.MaxLevel() {
		g.fail(op, fmt.Errorf("%w: level %d outside [0, %d]", ir.ErrLevelExhausted, ct.Level, r.MaxLevel()))
	}
	for c, poly := range [2][][]uint64{ct.C0.Coeffs, ct.C1.Coeffs} {
		name := componentNames[c]
		for i := 0; i <= ct.Level; i++ {
			sr := r.SubRings[i]
			want := r.NVal * sr.Width()
			if i >= len(poly) || poly[i] == nil {
				g.fail(op, fmt.Errorf("%w: %s limb %d absent at level %d", ErrResidueMissing, name, i, ct.Level))
			}
			if len(poly[i]) != want {
				g.fail(op, fmt.Errorf("%w: %s limb %d has %d words, want %d", ErrResidueMissing, name, i, len(poly[i]), want))
			}
			if sr.Width() == 1 {
				q := sr.Modulus().Uint64()
				for j, w := range poly[i] {
					if w >= q {
						g.fail(op, fmt.Errorf("%w: %s limb %d coeff %d = %d ≥ q_%d", ErrCorruptCiphertext, name, i, j, w, i))
					}
				}
			} else {
				q := sr.Modulus()
				c := new(big.Int)
				for j := 0; j < r.NVal; j++ {
					sr.CoeffBig(poly[i], j, c)
					if c.Cmp(q) >= 0 || c.Sign() < 0 {
						g.fail(op, fmt.Errorf("%w: %s limb %d coeff %d ≥ q_%d", ErrCorruptCiphertext, name, i, j, i))
					}
				}
			}
		}
	}
}

// validateBig checks a multiprecision ciphertext: level in range, every
// coefficient present (structure), and every coefficient in [0, Q_ℓ).
func (g *GuardedEngine) validateBig(op string, ct *ckksbig.Ciphertext) {
	params := g.bigCtx.Params
	maxLevel := len(params.Factors) - 1
	if ct.Level < 0 || ct.Level > maxLevel {
		g.fail(op, fmt.Errorf("%w: level %d outside [0, %d]", ir.ErrLevelExhausted, ct.Level, maxLevel))
	}
	n := params.N()
	g.mu.Lock()
	q := g.qAt[ct.Level]
	if q == nil {
		q = params.QAt(ct.Level)
		g.qAt[ct.Level] = q
	}
	g.mu.Unlock()
	for c, poly := range [2][]*big.Int{ct.C0.Coeffs, ct.C1.Coeffs} {
		name := componentNames[c]
		if len(poly) != n {
			g.fail(op, fmt.Errorf("%w: %s has %d coefficients, want %d", ErrResidueMissing, name, len(poly), n))
		}
		for j, c := range poly {
			if c == nil {
				g.fail(op, fmt.Errorf("%w: %s coeff %d absent", ErrResidueMissing, name, j))
			}
			if c.Sign() < 0 || c.Cmp(q) >= 0 {
				g.fail(op, fmt.Errorf("%w: %s coeff %d outside [0, Q_%d)", ErrCorruptCiphertext, name, j, ct.Level))
			}
		}
	}
}
