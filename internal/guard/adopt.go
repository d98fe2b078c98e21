package guard

import "cnnhe/internal/henn"

// Adopt scans a ciphertext that no op of this guarded engine made —
// typically one read off the wire — and returns it unchanged.
// exec.Prepared.RunEncrypted passes every input through it; whether the
// ciphertext is at the (level, scale) the graph takes for a fresh input
// is the executor's own check.
//
// A refusal is returned as a *StageError instead of panicking, and the
// guard is as it was: one malformed client payload cannot affect the
// requests that follow.
func (g *GuardedEngine) Adopt(ct henn.Ct) (out henn.Ct, err error) {
	defer func() {
		if r := recover(); r != nil {
			se, ok := r.(*StageError)
			if !ok {
				panic(r)
			}
			out, err = nil, se
		}
	}()
	g.validate("Adopt", ct)
	return ct, nil
}

// Underlying returns ct: the guard hands the engine's own ciphertexts
// through. It stays only because benchmark/workloads.go calls it.
func Underlying(ct henn.Ct) henn.Ct { return ct }
