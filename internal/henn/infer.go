package henn

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
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

// decrypt is the shared decrypt epilogue: one DecryptVec of the output
// ciphertext, which must yield at least need slots. The context is
// checked first, and a panic becomes the returned error, wrapped as
// "henn: decrypt: …" like the executor's op errors: a panic value that
// is an error (the guard's refusal of a corrupt output, e.g.
// guard.ErrCorruptCiphertext) as it is, so it still classifies with
// errors.Is, any other value as an exec.ErrEnginePanic.
func decrypt(ctx context.Context, e Engine, ct Ct, need int, rep *Report) (out []float64, err error) {
	const stage = "decrypt"
	t := time.Now()
	defer func() {
		rep.Decrypt = time.Since(t)
		telemetry.RecorderFrom(ctx).RecordPhase(stage, t, time.Now())
		if r := recover(); r != nil {
			rep.FailedStage = stage
			perr, ok := r.(error)
			if !ok {
				perr = fmt.Errorf("%w: %v", exec.ErrEnginePanic, r)
			}
			out, err = nil, fmt.Errorf("henn: %s: %w", stage, perr)
		}
	}()
	if err := ctx.Err(); err != nil {
		rep.FailedStage = stage
		return nil, fmt.Errorf("henn: %s: %w", stage, err)
	}
	out = e.DecryptVec(ct)
	if len(out) < need {
		return nil, badInput("engine decrypted %d slots, plan needs %d", len(out), need)
	}
	return out, nil
}

// checkPixels rejects pixels the plan cannot encrypt faithfully: NaN and
// ±Inf on every plan and, under the RNS front-end, values that round
// outside the digit range [0, Base^k).
func (p *Plan) checkPixels(image []float64) error {
	for i, v := range image {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return badInput("pixel %d is %v", i, v)
		}
		if p.Digits != nil {
			if r := math.Round(v); r < 0 || r >= float64(p.Digits.Range()) {
				return badInput("pixel %d = %v outside the digit range [0, %d)", i, v, p.Digits.Range())
			}
		}
	}
	return nil
}

// inputs validates one raw image and turns it into the plan's input
// vectors: its digit parts under the RNS front-end, else its shards by
// the input manifest.
func (p *Plan) inputs(image []float64) ([][]float64, error) {
	if len(image) != p.InputDim {
		return nil, badInput("image length %d does not match plan input dim %d", len(image), p.InputDim)
	}
	if err := p.checkPixels(image); err != nil {
		return nil, err
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

// run evaluates one set of input vectors on the prepared graph (one
// executor worker per input ciphertext) and decrypts at least need output
// slots.
func (p *Plan) run(ctx context.Context, e Engine, inputs [][]float64, need int, rep *Report) ([]float64, error) {
	pr, _, err := p.prepare(e)
	if err != nil {
		rep.FailedStage = "prepare"
		return nil, err
	}
	defer telInferStart()()
	res, err := pr.Run(ctx, inputs)
	fillReport(rep, res)
	if err != nil {
		return nil, err
	}
	return decrypt(ctx, e, res.Out, need, rep)
}

// InferCtx classifies one raw image (pixels in [0, 255], length InputDim)
// with full error reporting: the input is validated, the context deadline
// is checked before every op, every engine result is checked against the
// graph, an engine panic becomes exec.ErrEnginePanic, and a per-stage
// timing/noise Report is returned alongside the logits. The report is
// non-nil even on failure (FailedStage names the stage that errored).
// Pair with guard.New to also get a scan of every ciphertext, plaintext
// checks and noise-budget enforcement.
//
// The evaluation runs on the lowered, optimized op graph with
// ahead-of-time encoded plaintexts (Prepare), prepared on the first
// inference on an engine and shared by every later one until the plan is
// prepared for another engine. Pixels that are not finite — or, under the
// RNS front-end, round outside the digit range — are rejected with
// ErrBadInput before any homomorphic work.
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
