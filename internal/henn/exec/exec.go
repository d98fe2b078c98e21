// Package exec executes lowered op graphs (internal/henn/ir) against a
// CKKS engine.
//
// Prepare performs the ahead-of-time work a graph admits: structural
// validation, the engine's noise budget (a noise-aware engine — the
// guard — predicts every op's precision and may refuse the graph), and
// batch-encoding of every plaintext operand at its statically inferred
// (level, scale), deduplicated by cache key. The resulting Prepared value
// is immutable and safe to share across concurrent and batched
// inferences, and On rebinds it to another engine of the same parameters
// (a server's per-client key sets) without re-encoding.
//
// Run replays the graph on one worker per input ciphertext, the calling
// goroutine being worker 0. Workers take the ready task with the lowest
// entry op, so one worker visits ops in graph order; every op's operands
// are fixed by the graph, so any worker count gives the same bits.
// Hoisted rotation groups always execute as one RotateMany call so the
// shared key-switch decomposition is preserved, and an OpRecombine
// executes together with the plaintext products it absorbs as one
// ir.Combine call (one engine call on an ir.PlainRecombiner engine).
// Intermediate ciphertexts are reference-counted; at its last use each is
// dropped, and handed back to the engine when it is an ir.Releaser (the
// RNS engines build later results from its limbs). The encrypted inputs
// and the output are never handed back.
//
// Every ciphertext a run touches is checked once. A checking engine (the
// guard) offers Check, a scan for corruption the graph cannot see, and
// the executor runs it first on each input and each engine result. Then
// each input is checked against its encrypt op (ErrInputMismatch), and
// each engine result — a single op's, every hoist-group member's, every
// recombine's — against the (level, scale) ir.Graph.Derive gave its op:
// a level that differs fails the run with ir.ErrLevelExhausted, a scale
// that differs in any bit with ir.ErrScaleDrift. Stage rows and trace
// spans therefore read level and scale off the graph. A panic inside an
// engine call fails the run with ErrEnginePanic.
// The run owns its per-run state: the context is checked before every
// task, and the first failure stops every worker and is returned as
// "henn: <stage>: op <id> (<kind>): …" with the failing op's stage, which
// the Result's FailedStage names too.
package exec

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cnnhe/internal/henn/ir"
)

// Options is empty: the schedule is sized by the graph. It remains only
// as RunEncrypted's last parameter, because the benchmark module passes
// exec.Options{} there and is changed on its own.
type Options struct{}

// StageStat is the per-stage execution record behind henn's Report rows.
type StageStat struct {
	Name      string
	Duration  time.Duration
	Level     int
	Scale     float64
	NoiseBits float64
	Ops       int
}

// Result is the outcome of one Run.
type Result struct {
	// Out is the graph's output ciphertext.
	Out ir.Ct
	// Encrypt and Eval are the wall times of the two phases.
	Encrypt time.Duration
	Eval    time.Duration
	// Stages holds one record per completed reportable stage, in stage
	// order.
	Stages []StageStat
	// FailedStage names the stage a failed run died in ("" on success).
	FailedStage string
}

// noiseAware engines (the guard) predict every op's noise budget for a
// graph, or refuse the graph with an error.
type noiseAware interface {
	NoiseBits(g *ir.Graph) ([]float64, error)
}

// fuser engines (the guard) offer ir.PlainRecombiner whatever they wrap
// and report whether it is one fused call there.
type fuser interface {
	Fuses() bool
}

// fuses reports whether e evaluates a recombine's products inside one
// PlainRecombine call. On any other engine the executor evaluates each
// product itself, with MulPlainPt, and checks it like any result.
func fuses(e ir.Engine) bool {
	if f, ok := e.(fuser); ok {
		return f.Fuses()
	}
	_, ok := e.(ir.PlainRecombiner)
	return ok
}

// checker engines (the guard) scan a ciphertext for faults the graph
// cannot see — missing limbs, out-of-range coefficients. The executor
// calls Check on every input and every engine result.
type checker interface {
	Check(ct ir.Ct) error
}

var (
	// ErrInputMismatch: an encrypted input is not at the (level, scale)
	// of its encrypt op, which every static fact about the graph — the
	// plaintext encodings, the noise budget — assumes of a fresh input.
	ErrInputMismatch = errors.New("exec: encrypted input does not match the graph")
	// ErrEnginePanic: the engine panicked inside an op.
	ErrEnginePanic = errors.New("exec: engine panic")
)

// task is one schedulable unit: a single op, a whole hoist group (which
// must execute as one RotateMany call), or an OpRecombine with the
// OpMulPlain ops it absorbs (one ir.Combine call).
type task struct {
	// ops holds the task's op IDs in graph order.
	ops []int
	// entry is the op the task runs as: a hoist group enters at its
	// first member (execOp runs the whole group from it), every other
	// task at its last op (a recombine follows everything it absorbs).
	// Entries in ascending order visit the graph in op order.
	entry    int
	children []int // dependent task indices (deduplicated)
	indeg    int   // static in-degree
}

// Prepared is a validated graph with its plaintext operands pre-encoded
// for one engine. Immutable after Prepare; share freely across Runs.
type Prepared struct {
	e     ir.Engine
	g     *ir.Graph
	fuses bool    // fuses(e)
	check checker // e's Check (nil: e has none)

	// absorbedBy is g.AbsorbedBy(): ops with an entry ≥ 0 never execute
	// on their own.
	absorbedBy []int

	pts        []ir.Pt   // per-op pre-encoded operand (nil where none)
	bits       []float64 // per-op noise budget from a noiseAware engine (nil: none)
	use        []int32   // static consumer count per op (+1 for the output)
	encryptOps []int
	outStages  [][]int // op ID → stages it is the Out of (optimized graphs may point several stage rows at one op)
	stageOps   []int   // per-stage op count
	tasks      []task
	opTask     []int // op ID → task index (-1 for encrypt ops)
}

// Graph returns the prepared graph (for stats and diagnostics).
func (p *Prepared) Graph() *ir.Graph { return p.g }

// On returns a copy of p bound to e. The copy shares the graph, the task
// table and the pre-encoded plaintexts, so a server compiles and encodes
// once and rebinds per key set; e must accept the preparing engine's
// plaintext handles (the same engine type over the same CKKS context).
// e must also match the preparing engine's parameters — slots, top
// level, default scale, every level's prime — or On returns an error,
// as it does when e is noise-aware and refuses the graph.
func (p *Prepared) On(e ir.Engine) (*Prepared, error) {
	if e.Slots() != p.e.Slots() || e.MaxLevel() != p.e.MaxLevel() || e.Scale() != p.e.Scale() {
		return nil, fmt.Errorf("exec: rebind to %s: slots/level/scale %d/%d/%g, prepared for %d/%d/%g",
			e.Name(), e.Slots(), e.MaxLevel(), e.Scale(), p.e.Slots(), p.e.MaxLevel(), p.e.Scale())
	}
	for l := 0; l <= e.MaxLevel(); l++ {
		if e.QiFloat(l) != p.e.QiFloat(l) {
			return nil, fmt.Errorf("exec: rebind to %s: level %d prime %g, prepared for %g",
				e.Name(), l, e.QiFloat(l), p.e.QiFloat(l))
		}
	}
	bits, err := noiseBits(e, p.g)
	if err != nil {
		return nil, err
	}
	q := *p
	q.e, q.bits, q.fuses = e, bits, fuses(e)
	q.check, _ = e.(checker)
	return &q, nil
}

// noiseBits returns g's per-op noise budget on a noiseAware engine (nil
// on any other).
func noiseBits(e ir.Engine, g *ir.Graph) ([]float64, error) {
	if na, ok := e.(noiseAware); ok {
		return na.NoiseBits(g)
	}
	return nil, nil
}

// noise returns op id's predicted noise budget (NaN when the engine
// predicts none).
func (p *Prepared) noise(id int) float64 {
	if p.bits == nil {
		return math.NaN()
	}
	return p.bits[id]
}

// Prepare validates g and pre-encodes every plaintext operand on e at
// its exact (level, scale). Operands with bit-identical content at the
// same (level, scale) encode once — keyed by a content digest rather
// than PlainKey alone, so operands that carry no PlainKey (the
// AddPlainVec/MulPlainVecAtScale forms) still deduplicate. A panic while
// encoding fails the preparation: a panic value that is an error (the
// guard's plaintext refusal) keeps its chain, any other value becomes an
// ErrEnginePanic.
func Prepare(e ir.Engine, g *ir.Graph) (p *Prepared, err error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	bits, err := noiseBits(e, g)
	if err != nil {
		return nil, err
	}
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok {
				err = fmt.Errorf("exec: prepare: %w", e)
				return
			}
			err = fmt.Errorf("exec: prepare: %w: %v", ErrEnginePanic, r)
		}
	}()
	p = &Prepared{
		e:          e,
		g:          g,
		fuses:      fuses(e),
		absorbedBy: g.AbsorbedBy(),
		pts:        make([]ir.Pt, len(g.Ops)),
		bits:       bits,
		use:        make([]int32, len(g.Ops)),
		outStages:  make([][]int, len(g.Ops)),
		stageOps:   make([]int, len(g.Stages)),
		opTask:     make([]int, len(g.Ops)),
	}
	// Batch-encode the plaintext operands, deduplicating by content: a
	// digest selects candidate specs, a full bit-compare confirms (so a
	// digest collision can never alias two different operands).
	type ptKey struct {
		digest uint64
		n      int
		level  int
		scale  float64
	}
	var specs []ir.PlainSpec
	slot := make([]int, 0, len(g.Ops)) // spec index per encoding op
	seen := map[ptKey][]int{}
	for i := range g.Ops {
		op := &g.Ops[i]
		if op.Plain == nil {
			continue
		}
		scale := op.Scale // OpAddPlain encodes at the result's (level, scale)
		if op.Kind == ir.OpMulPlain {
			scale = op.PtScale
		}
		k := ptKey{digest: plainDigest(op.Plain), n: len(op.Plain), level: op.Level, scale: scale}
		dup := -1
		for _, j := range seen[k] {
			if plainBitsEqual(specs[j].Values, op.Plain) {
				dup = j
				break
			}
		}
		if dup >= 0 {
			slot = append(slot, dup)
			continue
		}
		seen[k] = append(seen[k], len(specs))
		slot = append(slot, len(specs))
		specs = append(specs, ir.PlainSpec{Values: op.Plain, Level: op.Level, Scale: scale})
	}
	encoded := e.EncodeVecsAt(specs)
	if len(encoded) != len(specs) {
		return nil, fmt.Errorf("exec: engine encoded %d of %d plaintexts", len(encoded), len(specs))
	}
	j := 0
	for i := range g.Ops {
		if g.Ops[i].Plain == nil {
			continue
		}
		p.pts[i] = encoded[slot[j]]
		j++
	}
	// Consumer counts, stage bookkeeping, encrypt prologue.
	for i := range g.Ops {
		op := &g.Ops[i]
		for _, a := range op.Args {
			p.use[a]++
		}
		p.stageOps[op.Stage]++
		if op.Kind == ir.OpEncrypt {
			p.encryptOps = append(p.encryptOps, i)
		}
	}
	p.use[g.Output]++ // the caller consumes the output
	for s, st := range g.Stages {
		if st.Out >= 0 {
			p.outStages[st.Out] = append(p.outStages[st.Out], s)
		}
	}
	p.check, _ = e.(checker)
	p.buildTasks()
	return p, nil
}

// plainDigest hashes a plaintext vector's float64 bits (FNV-1a).
func plainDigest(v []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range v {
		bits := math.Float64bits(x)
		for i := range buf {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// plainBitsEqual confirms a digest match with an exact bit compare.
func plainBitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// absorbed reports whether op id executes inside its recombine's call.
func (p *Prepared) absorbed(id int) bool { return p.absorbedBy[id] >= 0 }

// buildTasks groups ops into schedulable tasks and wires their static
// dependency edges.
func (p *Prepared) buildTasks() {
	g := p.g
	// group keys the multi-op task an op belongs to (-1: a task of its
	// own): hoist groups by their index, recombines with the products they
	// absorb after them by the recombine's op ID.
	group := func(i int) int {
		op := &g.Ops[i]
		switch {
		case op.Kind == ir.OpRotate && op.Hoist >= 0:
			return op.Hoist
		case p.absorbed(i):
			return len(g.Hoists) + p.absorbedBy[i]
		case op.Kind == ir.OpRecombine:
			return len(g.Hoists) + i
		}
		return -1
	}
	groupTask := map[int]int{}
	for i := range g.Ops {
		op := &g.Ops[i]
		if op.Kind == ir.OpEncrypt {
			p.opTask[i] = -1
			continue
		}
		k := group(i)
		if t, ok := groupTask[k]; ok {
			p.opTask[i] = t
			p.tasks[t].ops = append(p.tasks[t].ops, i)
			continue
		}
		if k >= 0 {
			groupTask[k] = len(p.tasks)
		}
		p.opTask[i] = len(p.tasks)
		p.tasks = append(p.tasks, task{ops: []int{i}})
	}
	for t := range p.tasks {
		tk := &p.tasks[t]
		tk.entry = tk.ops[len(tk.ops)-1]
		if op := &g.Ops[tk.ops[0]]; op.Kind == ir.OpRotate && op.Hoist >= 0 {
			tk.entry = tk.ops[0]
		}
		depSet := map[int]bool{}
		for _, id := range p.tasks[t].ops {
			for _, a := range p.g.Ops[id].Args {
				d := p.opTask[a]
				if d >= 0 && d != t && !depSet[d] {
					depSet[d] = true
					p.tasks[d].children = append(p.tasks[d].children, t)
					p.tasks[t].indeg++
				}
			}
		}
	}
}

// runState is the per-Run mutable state.
type runState struct {
	p     *Prepared
	tel   *runTel     // nil when telemetry is fully off for this run
	rel   ir.Releaser // p.e when it recycles dead results, else nil
	slots []ir.Ct
	use   []int32

	mu      sync.Mutex
	wake    sync.Cond // signalled when a task becomes ready or the run ends
	ready   []int     // entry ops of the runnable tasks, ascending
	indeg   []int     // unfinished dependencies per task
	pending int       // tasks not yet finished
	err     error     // the first failure; stops every worker
	started []bool
	start   []time.Time
	end     []time.Time
	stats   []StageStat
	done    []bool // stage Out op completed
}

func (p *Prepared) newRunState() *runState {
	rs := &runState{
		p:       p,
		slots:   make([]ir.Ct, len(p.g.Ops)),
		use:     make([]int32, len(p.g.Ops)),
		ready:   make([]int, 0, len(p.tasks)), // each task is pushed once: never regrows
		indeg:   make([]int, len(p.tasks)),
		pending: len(p.tasks),
		started: make([]bool, len(p.g.Stages)),
		start:   make([]time.Time, len(p.g.Stages)),
		end:     make([]time.Time, len(p.g.Stages)),
		stats:   make([]StageStat, len(p.g.Stages)),
		done:    make([]bool, len(p.g.Stages)),
	}
	copy(rs.use, p.use)
	rs.rel, _ = p.e.(ir.Releaser)
	rs.wake.L = &rs.mu
	for s, st := range p.g.Stages {
		rs.stats[s] = StageStat{Name: st.Name, NoiseBits: math.NaN(), Ops: p.stageOps[s]}
	}
	return rs
}

// opStarted/opDone maintain per-stage wall-clock spans and record a
// stage output's (level, scale, noise) once it is produced: the graph's,
// which the result was checked against.
func (rs *runState) opStarted(stage int, now time.Time) {
	rs.mu.Lock()
	if !rs.started[stage] {
		rs.started[stage] = true
		rs.start[stage] = now
	}
	rs.mu.Unlock()
}

func (rs *runState) opDone(id int, now time.Time) {
	op := &rs.p.g.Ops[id]
	rs.mu.Lock()
	if now.After(rs.end[op.Stage]) {
		rs.end[op.Stage] = now
	}
	for _, s := range rs.p.outStages[id] {
		rs.stats[s].Level = op.Level
		rs.stats[s].Scale = op.Scale
		rs.stats[s].NoiseBits = rs.p.noise(id)
		rs.done[s] = true
	}
	rs.mu.Unlock()
}

// observeHE is op id's result level and scale, and its predicted noise
// budget, for span attribution.
func (p *Prepared) observeHE(id int) heAttr {
	op := &p.g.Ops[id]
	return heAttr{Level: op.Level, Scale: op.Scale, Noise: p.noise(id)}
}

// opErr names op id ("op <id> (<kind>): …") in err, the cause of its
// failure; the run names the stage around it.
func (p *Prepared) opErr(id int, err error) error {
	return fmt.Errorf("op %d (%s): %w", id, p.g.Ops[id].Kind, err)
}

// scan runs the engine's Check on op id's ciphertext, when the engine
// has one.
func (p *Prepared) scan(id int, ct ir.Ct) error {
	if p.check == nil {
		return nil
	}
	if err := p.check.Check(ct); err != nil {
		return p.opErr(id, err)
	}
	return nil
}

// checkResult fails op id unless its result passes the engine's scan and
// the engine left it at the (level, scale) the graph derived for it: the
// level exactly, the scale bit for bit, as checkInput compares an input
// with its encrypt op. The scan runs first, so a corrupt result is
// classified by what is wrong with it, not by the level or scale read
// off it.
func (p *Prepared) checkResult(id int, ct ir.Ct) error {
	if err := p.scan(id, ct); err != nil {
		return err
	}
	op := &p.g.Ops[id]
	if level := p.e.Level(ct); level != op.Level {
		return p.opErr(id, fmt.Errorf("%w: left level %d; the graph derives %d",
			ir.ErrLevelExhausted, level, op.Level))
	}
	if scale := p.e.ScaleOf(ct); scale != op.Scale {
		return p.opErr(id, fmt.Errorf("%w: left scale 2^%.6f; the graph derives 2^%.6f",
			ir.ErrScaleDrift, math.Log2(scale), math.Log2(op.Scale)))
	}
	return nil
}

// release decrements an argument's reference count. At zero its last
// consumer has run: the slot is cleared, so only ciphertexts with pending
// consumers stay live, and the ciphertext goes back to a Releaser engine
// unless an encrypt op holds it (the caller's input). The output never
// reaches zero: Prepare counts the caller as one more consumer.
func (rs *runState) release(id int) {
	if atomic.AddInt32(&rs.use[id], -1) != 0 {
		return
	}
	ct := rs.slots[id]
	rs.slots[id] = nil
	if rs.rel != nil && rs.p.g.Ops[id].Kind != ir.OpEncrypt {
		rs.rel.Release(ct)
	}
}

// finish copies completed reportable stage records into res.
func (rs *runState) finish(res *Result) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for s, st := range rs.p.g.Stages {
		if !st.Record || !rs.done[s] {
			continue
		}
		row := rs.stats[s]
		row.Duration = rs.end[s].Sub(rs.start[s])
		res.Stages = append(res.Stages, row)
	}
}

// execOp runs one non-encrypt op (or, for the first member of a hoist
// group, the whole group via a single RotateMany) and checks each result
// (checkResult). A panic becomes an ErrEnginePanic naming the op — a
// hoist group's first member; the caller names the op's stage around
// every error. worker and taskIdx attribute the work for telemetry.
func (rs *runState) execOp(id, worker, taskIdx int) (err error) {
	p := rs.p
	op := &p.g.Ops[id]
	name := p.g.Stages[op.Stage].Name
	defer func() {
		if r := recover(); r != nil {
			err = p.panicked(id, r)
		}
	}()
	t0 := time.Now()
	rs.opStarted(op.Stage, t0)
	if op.Kind == ir.OpRotate && op.Hoist >= 0 {
		members := p.g.Hoists[op.Hoist]
		arg := rs.slots[op.Args[0]]
		ks := make([]int, len(members))
		for i, m := range members {
			ks[i] = p.g.Ops[m].K
		}
		outs := p.e.RotateMany(arg, ks)
		for i, m := range members {
			ct, ok := outs[ks[i]]
			if !ok {
				return fmt.Errorf("RotateMany dropped rotation %d", ks[i])
			}
			if err := p.checkResult(m, ct); err != nil {
				return err
			}
		}
		now := time.Now()
		var he heAttr
		if rs.tel.tracing() {
			// All group members share (level, scale); observe the first.
			he = p.observeHE(members[0])
		}
		rs.tel.opExecuted(op.Kind, name, worker, rs.tel.queuedAt(taskIdx),
			t0, now, len(members), len(members)-1, he)
		for i, m := range members {
			rs.slots[m] = outs[ks[i]]
			rs.opDone(m, now)
		}
		for range members {
			rs.release(op.Args[0])
		}
		return nil
	}
	args := make([]ir.Ct, len(op.Args))
	for i, a := range op.Args {
		args[i] = rs.slots[a]
	}
	var ct ir.Ct
	covered := 1 // logical ops this engine call evaluates
	switch op.Kind {
	case ir.OpRotate:
		ct = p.e.Rotate(args[0], op.K)
	case ir.OpMulPlain:
		ct = p.e.MulPlainPt(args[0], p.pts[id])
	case ir.OpAddPlain:
		ct = p.e.AddPlainPt(args[0], p.pts[id])
	case ir.OpAdd:
		ct = p.e.Add(args[0], args[1])
	case ir.OpMulRelin:
		ct = p.e.MulRelin(args[0], args[1])
	case ir.OpRescale:
		ct = p.e.Rescale(args[0])
	case ir.OpDropLevel:
		ct = p.e.DropLevel(args[0], op.Drop)
	case ir.OpRecombine:
		pts, n := rs.absorbedOperands(id, args)
		if pts != nil && !p.fuses {
			for i, pt := range pts {
				if pt == nil {
					continue
				}
				args[i] = p.e.MulPlainPt(args[i], pt)
				if err := p.checkResult(op.Args[i], args[i]); err != nil {
					return err
				}
			}
			pts = nil
		}
		ct = ir.Combine(p.e, args, pts, op.Weights)
		covered += n
	default:
		return fmt.Errorf("cannot execute %s op", op.Kind)
	}
	if err := p.checkResult(id, ct); err != nil {
		return err
	}
	now := time.Now()
	var he heAttr
	if rs.tel.tracing() {
		he = p.observeHE(id)
	}
	rs.tel.opExecuted(op.Kind, name, worker, rs.tel.queuedAt(taskIdx), t0, now, covered, 0, he)
	rs.slots[id] = ct
	rs.opDone(id, now)
	for _, a := range op.Args {
		if p.absorbed(a) {
			a = p.g.Ops[a].Args[0] // the product never existed; its input did
		}
		rs.release(a)
	}
	return nil
}

// absorbedOperands prepares recombine id for its ir.Combine call: for
// every product the recombine absorbs, args gets the product's ciphertext
// input and the returned slice its pre-encoded plaintext (nil when there
// are none). n counts the absorbed products.
func (rs *runState) absorbedOperands(id int, args []ir.Ct) (pts []ir.Pt, n int) {
	p := rs.p
	for i, a := range p.g.Ops[id].Args {
		if !p.absorbed(a) {
			continue
		}
		if pts == nil {
			pts = make([]ir.Pt, len(args))
		}
		args[i] = rs.slots[p.g.Ops[a].Args[0]]
		pts[i] = p.pts[a]
		n++
	}
	return pts, n
}

// panicked turns a panic recovered while op id ran into an
// ErrEnginePanic that names the op.
func (p *Prepared) panicked(id int, r any) error {
	return p.opErr(id, fmt.Errorf("%w: %v", ErrEnginePanic, r))
}

// EncryptInputs runs the graph's encrypt prologue serially in op order
// (encryption draws from the engine's PRNG, so a fixed call order keeps
// identically seeded runs bit-identical). The returned slice is indexed
// like the graph's encrypt ops. A panic becomes an ErrEnginePanic; an
// error names the failing op's stage ("henn: <stage>: …") and is
// returned with that stage.
func (p *Prepared) EncryptInputs(ctx context.Context, inputs [][]float64) (cts []ir.Ct, d time.Duration, failedStage string, err error) {
	if len(inputs) != p.g.Inputs {
		return nil, 0, "", fmt.Errorf("exec: %d inputs for a %d-input graph", len(inputs), p.g.Inputs)
	}
	tel := newRunTel(ctx, 0)
	t0 := time.Now()
	cts = make([]ir.Ct, len(p.encryptOps))
	for i, id := range p.encryptOps {
		op := &p.g.Ops[id]
		name := p.g.Stages[op.Stage].Name
		opT0 := time.Now()
		ct, eerr := func() (ct ir.Ct, err error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			defer func() {
				if r := recover(); r != nil {
					err = p.panicked(id, r)
				}
			}()
			return p.e.EncryptVec(inputs[op.InputIdx]), nil
		}()
		if eerr != nil {
			return nil, time.Since(t0), name, fmt.Errorf("henn: %s: %w", name, eerr)
		}
		var he heAttr
		if tel.tracing() {
			he = p.observeHE(id)
		}
		tel.opExecuted(ir.OpEncrypt, name, 0, time.Time{}, opT0, time.Now(), 1, 0, he)
		cts[i] = ct
	}
	tel.phase("encrypt", t0, time.Now())
	return cts, time.Since(t0), "", nil
}

// RunEncrypted evaluates the graph on already-encrypted inputs (in
// encrypt-op order, as returned by EncryptInputs, or read off the wire).
// It is the batched hot path: many RunEncrypted calls may share one
// Prepared concurrently. An input the engine's Check refuses, or at
// another (level, scale) than its encrypt op's (ErrInputMismatch),
// fails the run, named after that op's stage, before any op runs.
// Options is empty.
func (p *Prepared) RunEncrypted(ctx context.Context, cts []ir.Ct, _ Options) (*Result, error) {
	return p.runEncrypted(ctx, cts, len(p.encryptOps))
}

// inputFailed fails a run at input i, named after its encrypt op's stage.
func (p *Prepared) inputFailed(i int, err error) (*Result, error) {
	res := &Result{FailedStage: p.g.Stages[p.g.Ops[p.encryptOps[i]].Stage].Name}
	return res, fmt.Errorf("henn: %s: %w", res.FailedStage, err)
}

// runEncrypted is RunEncrypted on the given number of workers.
func (p *Prepared) runEncrypted(ctx context.Context, cts []ir.Ct, workers int) (*Result, error) {
	if len(cts) != len(p.encryptOps) {
		return &Result{}, fmt.Errorf("exec: %d ciphertexts for %d encrypt ops", len(cts), len(p.encryptOps))
	}
	for i, ct := range cts {
		if err := p.checkInput(i, ct); err != nil {
			return p.inputFailed(i, err)
		}
	}
	res := &Result{}
	rs := p.newRunState()
	rs.tel = newRunTel(ctx, len(p.tasks)).runStarted()
	for i, id := range p.encryptOps {
		rs.slots[id] = cts[i]
	}
	t0 := time.Now()
	err := rs.run(ctx, workers, res)
	res.Eval = time.Since(t0)
	rs.tel.phase("eval", t0, time.Now())
	rs.finish(res)
	if err != nil {
		return res, err
	}
	res.Out = rs.slots[p.g.Output]
	return res, nil
}

// checkInput rejects input i unless it passes the engine's scan and is
// at its encrypt op's (level, scale); a handle the engine cannot read is
// rejected too.
func (p *Prepared) checkInput(i int, ct ir.Ct) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: input %d: %v", ErrInputMismatch, i, r)
		}
	}()
	if err := p.scan(p.encryptOps[i], ct); err != nil {
		return err
	}
	op := &p.g.Ops[p.encryptOps[i]]
	if level, scale := p.e.Level(ct), p.e.ScaleOf(ct); level != op.Level || scale != op.Scale {
		return fmt.Errorf("%w: input %d at level %d, scale 2^%.6f; the graph takes it at level %d, scale 2^%.6f",
			ErrInputMismatch, i, level, math.Log2(scale), op.Level, math.Log2(op.Scale))
	}
	return nil
}

// Run encrypts inputs and evaluates the graph.
func (p *Prepared) Run(ctx context.Context, inputs [][]float64) (*Result, error) {
	cts, encDur, failedStage, err := p.EncryptInputs(ctx, inputs)
	if err != nil {
		return &Result{Encrypt: encDur, FailedStage: failedStage}, err
	}
	res, err := p.runEncrypted(ctx, cts, len(cts))
	res.Encrypt = encDur
	return res, err
}

// push makes task t runnable. Caller holds rs.mu, so the worker that
// takes t observes its ready instant.
func (rs *runState) push(t int) {
	if rs.tel != nil {
		rs.tel.readyAt[t] = time.Now()
	}
	e := rs.p.tasks[t].entry
	i, _ := slices.BinarySearch(rs.ready, e)
	rs.ready = slices.Insert(rs.ready, i, e)
	rs.wake.Signal()
}

// run executes the tasks as their dependencies resolve on workers
// workers, the calling goroutine being worker 0. The first error wins,
// named "henn: <stage>: …" after its op's stage, and stops the run; run
// returns once every worker has.
func (rs *runState) run(ctx context.Context, workers int, res *Result) error {
	p := rs.p
	rs.mu.Lock()
	for t := range p.tasks {
		if rs.indeg[t] = p.tasks[t].indeg; rs.indeg[t] == 0 {
			rs.push(t)
		}
	}
	rs.mu.Unlock()
	var wg sync.WaitGroup
	for w := 1; w < min(workers, len(p.tasks)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs.work(ctx, w, res)
		}()
	}
	rs.work(ctx, 0, res)
	wg.Wait()
	return rs.err
}

// work runs ready tasks, lowest entry op first, until every task has
// finished or one has failed.
func (rs *runState) work(ctx context.Context, worker int, res *Result) {
	p := rs.p
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for {
		for len(rs.ready) == 0 && rs.pending > 0 && rs.err == nil {
			rs.wake.Wait()
		}
		if rs.pending == 0 || rs.err != nil {
			return
		}
		id := rs.ready[0]
		rs.ready = rs.ready[1:]
		t := p.opTask[id]
		rs.mu.Unlock()
		err := ctx.Err()
		if err == nil {
			err = rs.execOp(id, worker, t)
		}
		rs.mu.Lock()
		if err != nil {
			if rs.err == nil {
				name := p.g.Stages[p.g.Ops[id].Stage].Name
				rs.err = fmt.Errorf("henn: %s: %w", name, err)
				res.FailedStage = name
			}
			rs.wake.Broadcast()
			return
		}
		for _, c := range p.tasks[t].children {
			if rs.indeg[c]--; rs.indeg[c] == 0 {
				rs.push(c)
			}
		}
		if rs.pending--; rs.pending == 0 {
			rs.wake.Broadcast()
		}
	}
}
