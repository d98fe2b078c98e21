package henn

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cnnhe/internal/henn/exec"
	"cnnhe/internal/telemetry"
)

// ErrBadInput tags input-validation failures: mis-sized images, label/image
// length mismatches, and other caller errors detected before any
// homomorphic work is done. Match with errors.Is.
var ErrBadInput = errors.New("henn: bad input")

func badInput(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", ErrBadInput, fmt.Sprintf(format, args...))
}

// Logits is the decrypted output of an encrypted classification.
type Logits []float64

// Argmax returns the predicted class: the lowest index holding the
// maximum logit. NaN entries are skipped — every `x > NaN` comparison is
// false, so a naive scan seeded at index 0 would report class 0 whenever
// l[0] is NaN regardless of the remaining logits. When every entry is
// NaN (or l is empty) it returns 0, deterministically.
func (l Logits) Argmax() int {
	best := -1
	for i, v := range l {
		if math.IsNaN(v) {
			continue
		}
		if best < 0 || v > l[best] {
			best = i
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

// StageAware is optionally implemented by engines (notably
// guard.GuardedEngine) that label their errors with the pipeline stage
// currently being evaluated. InferCtx announces each stage before
// evaluating it.
type StageAware interface {
	BeginStage(name string)
}

// NoiseAware is optionally implemented by engines that track a
// per-ciphertext noise-budget estimate. NoiseBits returns
// log2(scale/noiseBound) — the significant fractional bits remaining.
type NoiseAware interface {
	NoiseBits(ct Ct) float64
}

// StageReport records one pipeline step of an InferCtx run.
type StageReport struct {
	Stage    string
	Duration time.Duration
	// Level and Scale are the ciphertext metadata after the stage.
	Level int
	Scale float64
	// NoiseBits is the engine's remaining precision estimate after the
	// stage (NaN when the engine does not track noise).
	NoiseBits float64
}

// Report is the per-stage account of one inference: timings for the
// client-side encrypt/decrypt halves, the server-side evaluation total
// (the paper's classification latency), and one row per stage.
type Report struct {
	Engine  string
	Encrypt time.Duration
	Eval    time.Duration
	Decrypt time.Duration
	Stages  []StageReport
	// FailedStage names the stage that errored ("" on success).
	FailedStage string
}

// String renders the report as a small table.
func (r *Report) String() string {
	s := fmt.Sprintf("engine %s: encrypt %v, eval %v, decrypt %v\n", r.Engine, r.Encrypt, r.Eval, r.Decrypt)
	for _, st := range r.Stages {
		s += fmt.Sprintf("  %-56s %10v  level %d", st.Stage, st.Duration.Round(time.Microsecond), st.Level)
		if !math.IsNaN(st.NoiseBits) {
			s += fmt.Sprintf("  noise budget %.1f bits", st.NoiseBits)
		}
		s += "\n"
	}
	if r.FailedStage != "" {
		s += fmt.Sprintf("  FAILED at %s\n", r.FailedStage)
	}
	return s
}

// runStage evaluates one named stage of the eager interpreter: the
// context is checked first, StageAware engines are told the stage, and
// engine panics — misuse assertions and guard aborts — become errors. A
// recovered value that already is an error (e.g. *guard.StageError) is
// returned as-is so callers can classify it with errors.Is/errors.As. On
// failure the report's FailedStage names the stage.
func runStage(ctx context.Context, e Engine, rep *Report, name string, f func()) (err error) {
	if err := ctx.Err(); err != nil {
		rep.FailedStage = name
		return fmt.Errorf("henn: %s: %w", name, err)
	}
	if sa, ok := e.(StageAware); ok {
		sa.BeginStage(name)
	}
	defer func() {
		if r := recover(); r != nil {
			rep.FailedStage = name
			if e, ok := r.(error); ok {
				err = e
			} else {
				err = fmt.Errorf("henn: panic in %s: %v", name, r)
			}
		}
	}()
	f()
	return nil
}

// fillReport copies an executor result into the Report shape.
func fillReport(rep *Report, res *exec.Result) {
	rep.Encrypt = res.Encrypt
	rep.Eval = res.Eval
	if res.FailedStage != "" {
		rep.FailedStage = res.FailedStage
	}
	for _, st := range res.Stages {
		rep.Stages = append(rep.Stages, StageReport{
			Stage: st.Name, Duration: st.Duration,
			Level: st.Level, Scale: st.Scale, NoiseBits: st.NoiseBits,
		})
	}
}

// decrypt is the shared decrypt epilogue: one guarded DecryptVec of the
// output ciphertext, which must yield at least need slots.
func decrypt(ctx context.Context, e Engine, ct Ct, need int, rep *Report) ([]float64, error) {
	var out []float64
	t := time.Now()
	err := runStage(ctx, e, rep, "decrypt", func() { out = e.DecryptVec(ct) })
	rep.Decrypt = time.Since(t)
	telemetry.RecorderFrom(ctx).RecordPhase("decrypt", t, time.Now())
	if err != nil {
		return nil, err
	}
	if len(out) < need {
		return nil, badInput("engine decrypted %d slots, plan needs %d", len(out), need)
	}
	return out, nil
}

// inputs turns one raw image into the plan's input vectors: its digit
// parts under the RNS front-end, else its shards by the input manifest.
func (p *Plan) inputs(image []float64) ([][]float64, error) {
	if len(image) != p.InputDim {
		return nil, badInput("image length %d does not match plan input dim %d", len(image), p.InputDim)
	}
	if p.Digits != nil {
		return p.Digits.DecomposeTensor(image), nil
	}
	parts, err := p.Input.Split(image)
	if err != nil {
		return nil, badInput("%v", err)
	}
	return parts, nil
}

// run evaluates one set of input vectors on the prepared graph and
// decrypts at least need output slots. In Parallel mode independent ops
// are scheduled over one worker per input ciphertext; every op's operands
// are fixed by the graph, so the result does not depend on the schedule.
func (p *Plan) run(ctx context.Context, e Engine, inputs [][]float64, need int, rep *Report) ([]float64, error) {
	pr, _, err := p.prepare(e)
	if err != nil {
		rep.FailedStage = "prepare"
		return nil, err
	}
	workers := 1
	if p.Parallel {
		workers = len(inputs)
	}
	defer telInferStart()()
	res, err := pr.Run(ctx, inputs, exec.Options{Workers: workers})
	fillReport(rep, res)
	if err != nil {
		return nil, err
	}
	return decrypt(ctx, e, res.Out, need, rep)
}

// InferCtx classifies one raw image (pixels in [0, 255], length InputDim)
// with full error reporting: the input is validated, the context deadline
// is checked before every op, engine panics are converted to errors, and
// a per-stage timing/noise Report is returned alongside the logits. The
// report is non-nil even on failure (FailedStage names the stage that
// errored). Pair with guard.New to also get per-op invariant checking and
// noise-budget enforcement.
//
// The evaluation runs on the lowered op graph (Lower) with ahead-of-time
// encoded plaintexts, prepared on the first inference on an engine and
// shared by every later one until the plan is prepared for another
// engine. The sequential executor replays the graph in the legacy
// interpreter's exact engine-call order, so logits are bit-identical to
// InferCtxLegacy.
func (p *Plan) InferCtx(ctx context.Context, e Engine, image []float64) (Logits, *Report, error) {
	rep := &Report{Engine: e.Name()}
	parts, err := p.inputs(image)
	if err != nil {
		return nil, rep, err
	}
	out, err := p.run(ctx, e, parts, p.OutputDim, rep)
	if err != nil {
		return nil, rep, err
	}
	return Logits(out[:p.OutputDim]), rep, nil
}

// InferCtxLegacy is the eager step interpreter, retained as the reference
// oracle the executor is tested bit-identical against: it runs the same
// steps Lower traces, sequentially, straight against the engine.
func (p *Plan) InferCtxLegacy(ctx context.Context, e Engine, image []float64) (Logits, *Report, error) {
	rep := &Report{Engine: e.Name()}
	parts, err := p.inputs(image)
	if err != nil {
		return nil, rep, err
	}
	cur := make([]Ct, len(parts))
	t0 := time.Now()
	for i := range parts {
		if err := runStage(ctx, e, rep, p.encryptName(i), func() { cur[i] = e.EncryptVec(parts[i]) }); err != nil {
			rep.Encrypt = time.Since(t0)
			return nil, rep, err
		}
	}
	rep.Encrypt = time.Since(t0)
	for _, s := range p.steps() {
		t := time.Now()
		err := runStage(ctx, e, rep, s.name, func() { cur = s.eval(e, cur) })
		d := time.Since(t)
		rep.Eval += d
		if err != nil {
			return nil, rep, err
		}
		row := StageReport{Stage: s.name, Duration: d, Level: e.Level(cur[0]), Scale: e.ScaleOf(cur[0]), NoiseBits: math.NaN()}
		if na, ok := e.(NoiseAware); ok {
			row.NoiseBits = na.NoiseBits(cur[0])
		}
		rep.Stages = append(rep.Stages, row)
	}
	out, err := decrypt(ctx, e, cur[0], p.OutputDim, rep)
	if err != nil {
		return nil, rep, err
	}
	return Logits(out[:p.OutputDim]), rep, nil
}

// Infer classifies one raw image: encrypt → evaluate every stage →
// decrypt. It returns the logits and the server-side evaluation latency
// (excluding client encrypt/decrypt, as the paper measures classification
// latency of the homomorphic pipeline). It is a thin wrapper over
// InferCtx that panics on error, preserving the historical fail-loud
// behaviour of the engines; callers that want typed errors use InferCtx.
func (p *Plan) Infer(e Engine, image []float64) (Logits, time.Duration) {
	logits, rep, err := p.InferCtx(context.Background(), e, image)
	if err != nil {
		panic(err)
	}
	return logits, rep.Eval
}

// InferBatch classifies images concurrently on up to workers goroutines,
// all sharing one prepared graph (and thus one ahead-of-time encoded
// plaintext set). Encryption is serialized — the engines' encryptors
// draw from a non-thread-safe PRNG — while evaluation and decryption,
// which are stateless, overlap freely. The engine must be one whose
// evaluator is safe for concurrent use (both backends are; a guarded
// engine serializes internally). Results are in image order; the first
// error aborts the batch.
func (p *Plan) InferBatch(ctx context.Context, e Engine, images [][]float64, workers int) ([]Logits, error) {
	inputs := make([][][]float64, len(images))
	for i, img := range images {
		var err error
		if inputs[i], err = p.inputs(img); err != nil {
			return nil, fmt.Errorf("image %d: %w", i, err)
		}
	}
	pr, _, err := p.prepare(e)
	if err != nil {
		return nil, err
	}
	encs := make([][]Ct, len(images))
	for i := range images {
		cts, _, _, err := pr.EncryptInputs(ctx, inputs[i])
		if err != nil {
			return nil, fmt.Errorf("image %d: %w", i, err)
		}
		encs[i] = cts
	}
	workers = max(1, min(workers, len(images)))
	out := make([]Logits, len(images))
	errs := make([]error, len(images))
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= len(images) {
					return
				}
				done := telInferStart()
				res, err := pr.RunEncrypted(ctx, encs[i], exec.Options{})
				if err == nil {
					var slots []float64
					if slots, err = decrypt(ctx, e, res.Out, p.OutputDim, &Report{Engine: e.Name()}); err == nil {
						out[i] = Logits(slots[:p.OutputDim])
					}
				}
				errs[i] = err
				done()
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("image %d: %w", i, err)
		}
	}
	return out, nil
}

// LatencyStats aggregates per-inference latencies.
type LatencyStats struct {
	Min, Max, Avg time.Duration
	N             int

	// samples holds every recorded latency, sorted by finish, so
	// percentiles can be read after aggregation.
	samples []time.Duration
}

func newLatencyStats() LatencyStats {
	return LatencyStats{Min: time.Duration(1<<63 - 1)}
}

func (s *LatencyStats) add(d time.Duration) {
	if d < s.Min {
		s.Min = d
	}
	if d > s.Max {
		s.Max = d
	}
	s.Avg += d
	s.N++
	s.samples = append(s.samples, d)
}

func (s *LatencyStats) finish() {
	if s.N == 0 {
		// No samples: render as zeros rather than leaving the Min sentinel
		// (and a meaningless Max/Avg) visible.
		*s = LatencyStats{}
		return
	}
	s.Avg /= time.Duration(s.N)
	sort.Slice(s.samples, func(i, j int) bool { return s.samples[i] < s.samples[j] })
}

// Percentile returns the nearest-rank p-th percentile (p in [0, 100]) of
// the recorded latencies, or 0 when no samples were recorded.
func (s *LatencyStats) Percentile(p float64) time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	if p <= 0 {
		return s.samples[0]
	}
	rank := int(math.Ceil(p / 100 * float64(len(s.samples))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s.samples) {
		rank = len(s.samples)
	}
	return s.samples[rank-1]
}

// String renders the stats like the paper's tables (seconds).
func (s LatencyStats) String() string {
	if s.N == 0 {
		return "min 0.00s max 0.00s avg 0.00s (n=0)"
	}
	return fmt.Sprintf("min %.2fs max %.2fs avg %.2fs (n=%d)",
		s.Min.Seconds(), s.Max.Seconds(), s.Avg.Seconds(), s.N)
}

// EvaluateEncrypted classifies images[0:n] homomorphically and returns the
// accuracy against labels plus latency statistics. Mis-sized inputs and
// label/image mismatches yield a typed error (errors.Is ErrBadInput)
// before any ciphertext work starts.
func (p *Plan) EvaluateEncrypted(e Engine, images [][]float64, labels []int, n int) (float64, LatencyStats, error) {
	if n <= 0 || n > len(images) {
		n = len(images)
	}
	if n == 0 {
		return 0, LatencyStats{}, badInput("no images to evaluate")
	}
	if len(labels) < n {
		return 0, LatencyStats{}, badInput("%d labels for %d images", len(labels), n)
	}
	for i := 0; i < n; i++ {
		if len(images[i]) != p.InputDim {
			return 0, LatencyStats{}, badInput("image %d length %d does not match plan input dim %d", i, len(images[i]), p.InputDim)
		}
	}
	stats := newLatencyStats()
	correct := 0
	for i := 0; i < n; i++ {
		logits, rep, err := p.InferCtx(context.Background(), e, images[i])
		if err != nil {
			stats.finish()
			return 0, stats, fmt.Errorf("image %d: %w", i, err)
		}
		stats.add(rep.Eval)
		if logits.Argmax() == labels[i] {
			correct++
		}
	}
	stats.finish()
	return float64(correct) / float64(n), stats, nil
}
