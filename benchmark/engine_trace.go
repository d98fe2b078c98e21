package main

import (
	"context"
	"sync/atomic"
	"time"

	"cnnhe/internal/henn/ir"
)

// engineKind buckets engine calls the way the lowered graph names its
// ops, so a per-kind row means the same thing on every workload.
type engineKind int

const (
	kindEncrypt engineKind = iota
	kindDecrypt
	kindRotate // Rotate + RotateMany (one call per hoist group)
	kindMulPlain
	kindAddPlain
	kindAdd
	kindRecombine // Recombine, plus MulInt (only the unfused recombine chain calls it)
	kindMulRelin
	kindRescale
	kindDropLevel
	kindEncode // EncodeVecsAt: the ahead-of-time pass of exec.Prepare, set-up only
	numKinds
)

var kindNames = [numKinds]string{
	"encrypt", "decrypt", "rotate", "mul_plain", "add_plain", "add",
	"recombine", "mul_relin", "rescale", "drop_level", "encode",
}

// evalKinds are the kinds the executor issues between encrypt and
// decrypt; exec self time is the run minus their busy time.
var evalKinds = []engineKind{kindRotate, kindMulPlain, kindAddPlain, kindAdd,
	kindRecombine, kindMulRelin, kindRescale, kindDropLevel}

// kindTotals is a snapshot of the decorator's counters.
type kindTotals struct {
	Calls   [numKinds]int64
	Busy    [numKinds]time.Duration
	Outputs int64 // rotations produced (a RotateMany of n counts n)
	Encoded int64 // plaintexts encoded by EncodeVecsAt
}

func (a kindTotals) sub(b kindTotals) kindTotals {
	for k := range a.Calls {
		a.Calls[k] -= b.Calls[k]
		a.Busy[k] -= b.Busy[k]
	}
	a.Outputs -= b.Outputs
	a.Encoded -= b.Encoded
	return a
}

// tracedEngine is the benchmark's timing decorator: it implements
// ir.Engine by forwarding every call to inner and, while enabled, counts
// the call, adds its wall time to the kind's busy total and records a
// span. It sits directly on the backend (under guard.New where a guard
// is used) so what it times is the backend's work, not the guard's.
//
// newTracedEngine returns a *tracedRecombiner instead when inner
// implements ir.Recombiner: exec.Prepare and guard.New both probe for
// that optional interface, and hiding it would silently replace every
// fused recombine with a MulInt/Add chain — a different op mix from the
// one the undecorated run executes.
type tracedEngine struct {
	inner ir.Engine
	rec   *recorder
	on    atomic.Bool

	calls   [numKinds]atomic.Int64
	busy    [numKinds]atomic.Int64 // nanoseconds
	outputs atomic.Int64
	encoded atomic.Int64
}

type tracedRecombiner struct {
	*tracedEngine
	rc ir.Recombiner
}

// newTracedEngine wraps inner. The decorator starts disabled: a
// disabled decorator forwards with one atomic load per call.
func newTracedEngine(inner ir.Engine, rec *recorder) ir.Engine {
	t := &tracedEngine{inner: inner, rec: rec}
	if rc, ok := inner.(ir.Recombiner); ok {
		return &tracedRecombiner{tracedEngine: t, rc: rc}
	}
	return t
}

// tracedOf returns the decorator behind an engine built by
// newTracedEngine.
func tracedOf(e ir.Engine) *tracedEngine {
	switch t := e.(type) {
	case *tracedEngine:
		return t
	case *tracedRecombiner:
		return t.tracedEngine
	}
	return nil
}

func (t *tracedEngine) enable(on bool) { t.on.Store(on) }

func (t *tracedEngine) totals() kindTotals {
	var out kindTotals
	for k := range out.Calls {
		out.Calls[k] = t.calls[k].Load()
		out.Busy[k] = time.Duration(t.busy[k].Load())
	}
	out.Outputs = t.outputs.Load()
	out.Encoded = t.encoded.Load()
	return out
}

// observe times f as one call of kind k.
func (t *tracedEngine) observe(k engineKind, f func()) {
	if !t.on.Load() {
		f()
		return
	}
	start := time.Now()
	f()
	end := time.Now()
	t.calls[k].Add(1)
	t.busy[k].Add(int64(end.Sub(start)))
	if t.rec != nil {
		t.rec.add(span{Name: kindNames[k], Cat: "engine", Start: start, End: end,
			Parent: int(t.rec.parent.Load()), Req: int(t.rec.req.Load()), Track: int(t.rec.track.Load())})
	}
}

// Unwrap lets guard.New walk to the backend for its noise model.
func (t *tracedEngine) Unwrap() ir.Engine { return t.inner }

// Reset and SetRunContext forward the optional engine extensions serve
// probes for, when inner has them.
func (t *tracedEngine) Reset() error {
	if r, ok := t.inner.(interface{ Reset() error }); ok {
		return r.Reset()
	}
	return nil
}

func (t *tracedEngine) SetRunContext(ctx context.Context) {
	if s, ok := t.inner.(interface{ SetRunContext(context.Context) }); ok {
		s.SetRunContext(ctx)
	}
}

func (t *tracedEngine) Name() string              { return t.inner.Name() }
func (t *tracedEngine) Slots() int                { return t.inner.Slots() }
func (t *tracedEngine) MaxLevel() int             { return t.inner.MaxLevel() }
func (t *tracedEngine) Scale() float64            { return t.inner.Scale() }
func (t *tracedEngine) QiFloat(level int) float64 { return t.inner.QiFloat(level) }
func (t *tracedEngine) Level(ct ir.Ct) int        { return t.inner.Level(ct) }
func (t *tracedEngine) ScaleOf(ct ir.Ct) float64  { return t.inner.ScaleOf(ct) }

func (t *tracedEngine) EncryptVec(values []float64) (out ir.Ct) {
	t.observe(kindEncrypt, func() { out = t.inner.EncryptVec(values) })
	return out
}

func (t *tracedEngine) DecryptVec(ct ir.Ct) (out []float64) {
	t.observe(kindDecrypt, func() { out = t.inner.DecryptVec(ct) })
	return out
}

func (t *tracedEngine) Add(a, b ir.Ct) (out ir.Ct) {
	t.observe(kindAdd, func() { out = t.inner.Add(a, b) })
	return out
}

func (t *tracedEngine) AddPlainVec(ct ir.Ct, v []float64) (out ir.Ct) {
	t.observe(kindAddPlain, func() { out = t.inner.AddPlainVec(ct, v) })
	return out
}

func (t *tracedEngine) MulPlainVecAtScale(ct ir.Ct, v []float64, scale float64) (out ir.Ct) {
	t.observe(kindMulPlain, func() { out = t.inner.MulPlainVecAtScale(ct, v, scale) })
	return out
}

func (t *tracedEngine) MulPlainVecCached(ct ir.Ct, key string, v []float64, scale float64) (out ir.Ct) {
	t.observe(kindMulPlain, func() { out = t.inner.MulPlainVecCached(ct, key, v, scale) })
	return out
}

func (t *tracedEngine) AddPlainVecCached(ct ir.Ct, key string, v []float64) (out ir.Ct) {
	t.observe(kindAddPlain, func() { out = t.inner.AddPlainVecCached(ct, key, v) })
	return out
}

func (t *tracedEngine) MulRelin(a, b ir.Ct) (out ir.Ct) {
	t.observe(kindMulRelin, func() { out = t.inner.MulRelin(a, b) })
	return out
}

func (t *tracedEngine) MulInt(ct ir.Ct, n int64) (out ir.Ct) {
	t.observe(kindRecombine, func() { out = t.inner.MulInt(ct, n) })
	return out
}

func (t *tracedEngine) Rescale(ct ir.Ct) (out ir.Ct) {
	t.observe(kindRescale, func() { out = t.inner.Rescale(ct) })
	return out
}

func (t *tracedEngine) DropLevel(ct ir.Ct, n int) (out ir.Ct) {
	t.observe(kindDropLevel, func() { out = t.inner.DropLevel(ct, n) })
	return out
}

func (t *tracedEngine) Rotate(ct ir.Ct, k int) (out ir.Ct) {
	t.observe(kindRotate, func() { out = t.inner.Rotate(ct, k) })
	if t.on.Load() {
		t.outputs.Add(1)
	}
	return out
}

func (t *tracedEngine) RotateMany(ct ir.Ct, ks []int) (out map[int]ir.Ct) {
	t.observe(kindRotate, func() { out = t.inner.RotateMany(ct, ks) })
	if t.on.Load() {
		t.outputs.Add(int64(len(ks)))
	}
	return out
}

func (t *tracedEngine) EncodeVecsAt(specs []ir.PlainSpec) (out []ir.Pt) {
	t.observe(kindEncode, func() { out = t.inner.EncodeVecsAt(specs) })
	if t.on.Load() {
		t.encoded.Add(int64(len(specs)))
	}
	return out
}

func (t *tracedEngine) MulPlainPt(ct ir.Ct, pt ir.Pt) (out ir.Ct) {
	t.observe(kindMulPlain, func() { out = t.inner.MulPlainPt(ct, pt) })
	return out
}

func (t *tracedEngine) AddPlainPt(ct ir.Ct, pt ir.Pt) (out ir.Ct) {
	t.observe(kindAddPlain, func() { out = t.inner.AddPlainPt(ct, pt) })
	return out
}

// Recombine implements ir.Recombiner on the fused path.
func (t *tracedRecombiner) Recombine(args []ir.Ct, weights []int64) (out ir.Ct) {
	t.observe(kindRecombine, func() { out = t.rc.Recombine(args, weights) })
	return out
}

var (
	_ ir.Engine     = (*tracedEngine)(nil)
	_ ir.Engine     = (*tracedRecombiner)(nil)
	_ ir.Recombiner = (*tracedRecombiner)(nil)
)
