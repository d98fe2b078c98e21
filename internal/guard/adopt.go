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
// Unlike in-op validation, a rejected adoption does NOT latch the guard:
// one malformed client payload must not poison the engine for subsequent
// requests. The error is returned instead of panicking.
func (g *GuardedEngine) Adopt(ct henn.Ct) (out henn.Ct, err error) {
	const op = "Adopt"
	if _, ok := ct.(*trackedCt); ok {
		return ct, nil
	}
	if prior := g.Err(); prior != nil {
		return nil, prior
	}
	defer func() {
		if r := recover(); r != nil {
			se, ok := r.(*StageError)
			if !ok {
				panic(r)
			}
			// The failure was raised by this adoption (the guard was
			// healthy on entry); clear the latch it set.
			g.mu.Lock()
			if g.err == error(se) {
				g.err = nil
			}
			g.mu.Unlock()
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
