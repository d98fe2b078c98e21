// Package faults provides seeded, deterministic fault injection for the
// homomorphic inference engines. An Injector wraps a henn.Engine and
// fires exactly one configured fault at a chosen engine op, simulating
// the corruption classes the guarded runtime must detect and classify.
// The executor (internal/henn/exec) checks every engine result: first
// with the guard's scan (internal/guard Check), then against the level
// and scale the op graph derives; and it classifies a panic inside an op:
//
//	CorruptLimb — overwrite one coefficient of the op's output with an
//	              out-of-range value (a flipped word ≥ q_i on the RNS
//	              backend, a negative residue on the multiprecision one);
//	DropResidue — remove a residue the ciphertext's level requires (nil
//	              an RNS limb, nil a multiprecision coefficient);
//	SkewScale   — multiply the output's scale metadata by SkewFactor,
//	              desynchronising it from the actual encoding and from
//	              the scale the graph derives for the op;
//	PanicOp     — panic inside the op, as a buggy backend would;
//	DelayOp     — sleep Delay inside the op, stalling the stage past a
//	              caller's deadline.
//
// Injection is deterministic: the corrupted position is derived from
// Seed, and the fault fires on the Nth call matching Op. Compose as
//
//	g := guard.New(faults.Wrap(engine, inj), guard.DefaultConfig())
//
// so the guard observes the faulty backend exactly as it would a
// hardware error, serialization bug, or scheduling stall.
package faults

import (
	"fmt"
	"math/big"
	"sync"
	"time"

	"cnnhe/internal/ckks"
	"cnnhe/internal/ckksbig"
	"cnnhe/internal/henn"
)

// Kind enumerates the injectable fault classes.
type Kind int

const (
	// CorruptLimb overwrites one output coefficient with an out-of-range value.
	CorruptLimb Kind = iota
	// DropResidue removes a residue required at the ciphertext's level.
	DropResidue
	// SkewScale multiplies the output's scale metadata by SkewFactor.
	SkewScale
	// PanicOp panics inside the chosen op.
	PanicOp
	// DelayOp sleeps Delay inside the chosen op.
	DelayOp
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case CorruptLimb:
		return "corrupt-limb"
	case DropResidue:
		return "drop-residue"
	case SkewScale:
		return "skew-scale"
	case PanicOp:
		return "panic-op"
	case DelayOp:
		return "delay-op"
	}
	return fmt.Sprintf("faults.Kind(%d)", int(k))
}

// Injection configures a single fault.
type Injection struct {
	// Kind selects the fault class.
	Kind Kind
	// Op names the engine op to fire on ("MulRelin", "Rescale", ...).
	// Empty matches every intercepted op.
	Op string
	// Nth fires on the n-th matching call, 1-based; 0 means the first.
	Nth int
	// Seed determines the corrupted limb/coefficient position.
	Seed int64
	// Delay is the stall duration for DelayOp.
	Delay time.Duration
	// SkewFactor is the scale multiplier for SkewScale (default 1.01).
	SkewFactor float64
}

// Injector is a henn.Engine middleware that fires one configured fault.
// It embeds the engine it wraps and intercepts only the calls that make
// a ciphertext, and DecryptVec; the accessors and the plaintext paths
// reach the inner engine unchanged. It is safe for concurrent use
// (matching the engines' concurrency contract); the fault fires exactly
// once.
type Injector struct {
	henn.Engine
	inj Injection

	mu      sync.Mutex
	matched int
	fired   bool
}

// Wrap returns an Injector delivering inj on top of e.
func Wrap(e henn.Engine, inj Injection) *Injector {
	if inj.Nth <= 0 {
		inj.Nth = 1
	}
	if inj.SkewFactor == 0 {
		inj.SkewFactor = 1.01
	}
	return &Injector{Engine: e, inj: inj}
}

// Unwrap exposes the wrapped engine so diagnostics (and guard parameter
// discovery) can reach the base backend.
func (f *Injector) Unwrap() henn.Engine { return f.Engine }

// Fired reports whether the fault has been delivered.
func (f *Injector) Fired() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fired
}

// arm records a call to op and reports whether the fault fires on it.
func (f *Injector) arm(op string) bool {
	if f.inj.Op != "" && f.inj.Op != op {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fired {
		return false
	}
	f.matched++
	if f.matched != f.inj.Nth {
		return false
	}
	f.fired = true
	return true
}

// do intercepts one ct-returning op invocation.
func (f *Injector) do(op string, call func() henn.Ct) henn.Ct {
	fire := f.arm(op)
	if fire {
		switch f.inj.Kind {
		case PanicOp:
			panic(fmt.Sprintf("faults: injected panic in %s", op))
		case DelayOp:
			time.Sleep(f.inj.Delay)
		}
	}
	ct := call()
	if fire {
		f.mutate(ct)
	}
	return ct
}

// mutate applies the configured in-place corruption to ct.
func (f *Injector) mutate(ct henn.Ct) {
	switch f.inj.Kind {
	case CorruptLimb:
		switch c := ct.(type) {
		case *ckks.Ciphertext:
			limb := int(f.inj.Seed) % (c.Level + 1)
			if limb < 0 {
				limb += c.Level + 1
			}
			coeffs := c.C0.Coeffs[limb]
			j := int(f.inj.Seed) % len(coeffs)
			if j < 0 {
				j += len(coeffs)
			}
			coeffs[j] = ^uint64(0) // ≥ every q_i (moduli are < 2^62 per word)
		case *ckksbig.Ciphertext:
			j := int(f.inj.Seed) % len(c.C0.Coeffs)
			if j < 0 {
				j += len(c.C0.Coeffs)
			}
			c.C0.Coeffs[j] = big.NewInt(-1) // negative residue: unrepresentable
		}
	case DropResidue:
		switch c := ct.(type) {
		case *ckks.Ciphertext:
			limb := int(f.inj.Seed) % (c.Level + 1)
			if limb < 0 {
				limb += c.Level + 1
			}
			c.C1.Coeffs[limb] = nil
		case *ckksbig.Ciphertext:
			j := int(f.inj.Seed) % len(c.C1.Coeffs)
			if j < 0 {
				j += len(c.C1.Coeffs)
			}
			c.C1.Coeffs[j] = nil
		}
	case SkewScale:
		switch c := ct.(type) {
		case *ckks.Ciphertext:
			c.Scale *= f.inj.SkewFactor
		case *ckksbig.Ciphertext:
			c.Scale *= f.inj.SkewFactor
		}
	}
}

// ----- henn.Engine implementation -----

// EncryptVec implements henn.Engine.
func (f *Injector) EncryptVec(values []float64) henn.Ct {
	return f.do("EncryptVec", func() henn.Ct { return f.Engine.EncryptVec(values) })
}

// DecryptVec implements henn.Engine. Only PanicOp and DelayOp apply
// (there is no ciphertext output to corrupt).
func (f *Injector) DecryptVec(ct henn.Ct) []float64 {
	const op = "DecryptVec"
	if f.inj.Kind == PanicOp || f.inj.Kind == DelayOp {
		if f.arm(op) {
			if f.inj.Kind == PanicOp {
				panic(fmt.Sprintf("faults: injected panic in %s", op))
			}
			time.Sleep(f.inj.Delay)
		}
	}
	return f.Engine.DecryptVec(ct)
}

// Add implements henn.Engine.
func (f *Injector) Add(a, b henn.Ct) henn.Ct {
	return f.do("Add", func() henn.Ct { return f.Engine.Add(a, b) })
}

// MulRelin implements henn.Engine.
func (f *Injector) MulRelin(a, b henn.Ct) henn.Ct {
	return f.do("MulRelin", func() henn.Ct { return f.Engine.MulRelin(a, b) })
}

// MulInt implements henn.Engine.
func (f *Injector) MulInt(ct henn.Ct, n int64) henn.Ct {
	return f.do("MulInt", func() henn.Ct { return f.Engine.MulInt(ct, n) })
}

// Rescale implements henn.Engine.
func (f *Injector) Rescale(ct henn.Ct) henn.Ct {
	return f.do("Rescale", func() henn.Ct { return f.Engine.Rescale(ct) })
}

// DropLevel implements henn.Engine.
func (f *Injector) DropLevel(ct henn.Ct, n int) henn.Ct {
	return f.do("DropLevel", func() henn.Ct { return f.Engine.DropLevel(ct, n) })
}

// Rotate implements henn.Engine.
func (f *Injector) Rotate(ct henn.Ct, k int) henn.Ct {
	return f.do("Rotate", func() henn.Ct { return f.Engine.Rotate(ct, k) })
}

// RotateMany implements henn.Engine. A firing mutation corrupts the
// output for the smallest non-zero rotation (deterministic choice).
func (f *Injector) RotateMany(ct henn.Ct, ks []int) map[int]henn.Ct {
	fire := f.arm("RotateMany")
	if fire {
		switch f.inj.Kind {
		case PanicOp:
			panic("faults: injected panic in RotateMany")
		case DelayOp:
			time.Sleep(f.inj.Delay)
		}
	}
	outs := f.Engine.RotateMany(ct, ks)
	if fire {
		best := 0
		for k := range outs {
			if k != 0 && (best == 0 || k < best) {
				best = k
			}
		}
		if best != 0 {
			f.mutate(outs[best])
		}
	}
	return outs
}

// MulPlainPt implements henn.Engine.
func (f *Injector) MulPlainPt(ct henn.Ct, pt henn.Pt) henn.Ct {
	return f.do("MulPlainPt", func() henn.Ct { return f.Engine.MulPlainPt(ct, pt) })
}

// AddPlainPt implements henn.Engine.
func (f *Injector) AddPlainPt(ct henn.Ct, pt henn.Pt) henn.Ct {
	return f.do("AddPlainPt", func() henn.Ct { return f.Engine.AddPlainPt(ct, pt) })
}

var _ henn.Engine = (*Injector)(nil)
