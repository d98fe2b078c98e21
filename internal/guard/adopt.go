package guard

import (
	"fmt"

	"cnnhe/internal/henn"
)

// Adopt validates a ciphertext that did not originate from this guarded
// engine — typically one deserialized off the wire — and wraps it in the
// guard's tracked handle so it can enter guarded ops. The full structural
// and coefficient-range validation runs and the scale mirror is
// initialized from the engine-reported scale. Whether the ciphertext is
// at the (level, scale) the graph's noise budget assumes for a fresh
// input is the executor's check (exec.Prepared.RunEncrypted).
//
// A rejected adoption returns its *StageError instead of panicking, and
// the guard is as it was: one malformed client payload cannot affect the
// requests that follow.
func (g *GuardedEngine) Adopt(ct henn.Ct) (out henn.Ct, err error) {
	const op = "Adopt"
	if _, ok := ct.(*trackedCt); ok {
		return ct, nil
	}
	defer func() {
		if r := recover(); r != nil {
			se, ok := r.(*StageError)
			if !ok {
				panic(r)
			}
			out, err = nil, se
		}
	}()
	g.validate(op, ct)
	scale := g.scaleOf(op, ct)
	if lvl := g.inner.Level(ct); lvl < 0 || lvl > g.inner.MaxLevel() {
		return nil, &StageError{Op: op, Cause: fmt.Errorf("%w: level %d outside [0, %d]",
			ErrCorruptCiphertext, lvl, g.inner.MaxLevel())}
	}
	return &trackedCt{ct: ct, scale: scale}, nil
}

// Underlying unwraps a guard-tracked ciphertext handle back to the
// engine's own ciphertext (for serialization); a handle the guard does
// not recognize is returned unchanged.
func Underlying(ct henn.Ct) henn.Ct { return peek(ct) }
