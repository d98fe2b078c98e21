// Command heinfer runs a single privacy-preserving classification: it
// plays both parties of Fig. 1 — the client encodes and encrypts an image
// under CKKS-RNS, the "server" side evaluates the compiled CNN plan
// blindly, and the client decrypts the logits.
//
// Inference runs through the guarded runtime (internal/guard): engine
// panics, scale drift, corrupted ciphertexts and an exhausted noise
// budget surface as classified errors instead of garbage logits, and the
// process exit code reports the failure class:
//
//	0  success
//	1  setup or unclassified failure
//	2  corrupted input (corrupt/malformed ciphertext, scale drift, bad image)
//	3  noise budget or level exhausted (parameters too small for the model)
//	4  deadline exceeded or cancelled
//
// Observability: -telemetry-addr serves live /metrics (Prometheus text),
// /debug/vars and /debug/pprof on localhost while the inference runs;
// -trace exports the run as Chrome trace-event JSON loadable in
// chrome://tracing or https://ui.perfetto.dev.
//
// Usage:
//
//	heinfer -model models/cnn1.gob -image 3 -logn 12 [-backend rns|big]
//	        [-rnsparts 3] [-timeout 90s] [-retries 2]
//	        [-telemetry-addr localhost:8080] [-trace trace.json] [-log-level info]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"cnnhe/internal/ckks"
	"cnnhe/internal/ckksbig"
	"cnnhe/internal/dataset"
	"cnnhe/internal/guard"
	"cnnhe/internal/henn"
	"cnnhe/internal/henn/ir"
	"cnnhe/internal/henn/ir/opt"
	"cnnhe/internal/nn"
	"cnnhe/internal/primes"
	"cnnhe/internal/ring"
	"cnnhe/internal/telemetry"
	"cnnhe/internal/tensor"
)

// Exit codes for the distinct failure classes.
const (
	exitOK        = 0
	exitSetup     = 1
	exitCorrupt   = 2
	exitExhausted = 3
	exitDeadline  = 4
)

// exitClass names an exit code for structured logs.
func exitClass(code int) string {
	switch code {
	case exitOK:
		return "ok"
	case exitCorrupt:
		return "corrupt"
	case exitExhausted:
		return "exhausted"
	case exitDeadline:
		return "deadline"
	}
	return "setup"
}

// parseLevel maps a -log-level flag value to a slog level.
func parseLevel(s string) slog.Level {
	switch s {
	case "debug":
		return slog.LevelDebug
	case "warn":
		return slog.LevelWarn
	case "error":
		return slog.LevelError
	}
	return slog.LevelInfo
}

// retryableClass reports whether a failure class is worth another
// attempt. Corrupted input (exit 2: bad image, malformed ciphertext,
// scale drift) and an exhausted noise budget or modulus chain (exit 3:
// parameters too small for the model) are deterministic — the same
// attempt fails the same way every time — so retrying them only wastes
// full inference latencies. Deadline (4) and unclassified (1) failures
// may be transient (machine load, injected faults) and are retried.
func retryableClass(code int) bool {
	switch code {
	case exitCorrupt, exitExhausted:
		return false
	}
	return true
}

// Backoff schedule for retryable failures: exponential from 100ms,
// capped at 5s, with full jitter in [d/2, d] so concurrent clients
// recovering from a shared stall do not re-stampede in lockstep.
const (
	baseBackoff = 100 * time.Millisecond
	maxBackoff  = 5 * time.Second
)

// retryBackoff returns the sleep before retry number attempt (0-based).
// rand01 supplies the jitter draw in [0, 1).
func retryBackoff(attempt int, rand01 float64) time.Duration {
	d := baseBackoff
	for i := 0; i < attempt && d < maxBackoff; i++ {
		d *= 2
	}
	if d > maxBackoff {
		d = maxBackoff
	}
	half := float64(d) / 2
	return time.Duration(half + rand01*half)
}

// classifyExit maps an inference error to its exit code.
func classifyExit(err error) int {
	switch {
	case err == nil:
		return exitOK
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return exitDeadline
	case errors.Is(err, guard.ErrNoiseBudgetExhausted), errors.Is(err, ir.ErrLevelExhausted):
		return exitExhausted
	case errors.Is(err, guard.ErrCorruptCiphertext), errors.Is(err, guard.ErrResidueMissing),
		errors.Is(err, ir.ErrScaleDrift), errors.Is(err, guard.ErrInvalidPlaintext),
		errors.Is(err, ckks.ErrFormat), errors.Is(err, ckks.ErrChecksum),
		errors.Is(err, henn.ErrBadInput):
		return exitCorrupt
	default:
		return exitSetup
	}
}

func main() {
	var (
		modelPath = flag.String("model", "models/cnn1.gob", "trained SLAF model (.gob)")
		imageIdx  = flag.Int("image", 0, "test-set image index")
		logN      = flag.Int("logn", 12, "ring degree exponent (14 = paper scale)")
		backend   = flag.String("backend", "rns", "rns (CKKS-RNS) or big (multiprecision CKKS)")
		rnsParts  = flag.Int("rnsparts", 0, "enable the Fig. 5 input-decomposition pipeline with this many parts (0 = off)")
		seed      = flag.Int64("seed", 1, "random seed")
		timeout   = flag.Duration("timeout", 0, "per-attempt inference deadline (0 = none)")
		retries   = flag.Int("retries", 0, "additional attempts after a failed inference")
		verbose   = flag.Bool("report", false, "print the per-stage timing and noise-budget report")
		optFlag   = flag.String("opt", "on", "graph optimizer: on or off")
		telAddr   = flag.String("telemetry-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. localhost:8080; empty = off)")
		tracePath = flag.String("trace", "", "export the inference as Chrome trace-event JSON to this path")
		logLevel  = flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
		ringPar   = flag.Bool("ring-parallel", ring.ParallelDefault(), "limb/slab-parallel ring kernels (default: on when GOMAXPROCS > 1)")
	)
	flag.Parse()

	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr,
		&slog.HandlerOptions{Level: parseLevel(*logLevel)})))
	ring.SetParallelDefault(*ringPar)
	slog.Info("ring kernels", "ring_parallel", *ringPar, "gomaxprocs", runtime.GOMAXPROCS(0))
	fatal := func(msg string, args ...any) {
		slog.Error(msg, args...)
		os.Exit(exitSetup)
	}

	if *telAddr != "" {
		srv, err := telemetry.Serve(*telAddr, nil)
		if err != nil {
			fatal("telemetry server failed", "err", err)
		}
		defer srv.Close()
		slog.Info("telemetry listening", "url", "http://"+srv.Addr)
	}

	model, arch, err := nn.LoadModel(*modelPath)
	if err != nil {
		fatal("loading model failed (run hetrain first)", "model", *modelPath, "err", err)
	}
	_, test, src := dataset.LoadMNIST(16, *imageIdx+1, *seed)
	fmt.Printf("model: %s   data: %s\n", arch, src)
	img := test.Image(*imageIdx)
	label := test.Labels[*imageIdx]

	plan, err := henn.Compile(model, 1<<(*logN-1))
	if err != nil {
		fatal("compiling plan failed", "model", *modelPath, "err", err)
	}
	fmt.Print(plan.Describe())

	optOpts, err := opt.ParseFlag(*optFlag)
	if err != nil {
		fatal("bad -opt flag", "opt", *optFlag, "err", err)
	}
	plan.Opt = optOpts

	k := max(plan.Depth+1, 13)
	params, err := ckks.NewParameters(*logN, primes.PaperShape(k, 26), 60, 1, math.Exp2(26))
	if err != nil {
		fatal("building CKKS parameters failed", "logn", *logN, "err", err)
	}
	if err := plan.CheckDepth(params.MaxLevel()); err != nil {
		fatal("plan deeper than the modulus chain", "model", *modelPath, "err", err)
	}

	var engine henn.Engine
	switch *backend {
	case "rns":
		e, err := henn.NewRNSEngine(params, plan.Rotations(), *seed+7)
		if err != nil {
			fatal("creating engine failed", "backend", *backend, "err", err)
		}
		engine = e
	case "big":
		bp, err := ckksbig.FromRNSParameters(params)
		if err != nil {
			fatal("creating engine failed", "backend", *backend, "err", err)
		}
		e, err := henn.NewBigEngine(bp, plan.Rotations(), *seed+7)
		if err != nil {
			fatal("creating engine failed", "backend", *backend, "err", err)
		}
		engine = e
	default:
		fatal("unknown backend", "backend", *backend)
	}
	fmt.Printf("backend: %s, N=2^%d, chain length %d (log q = %d)\n",
		engine.Name(), *logN, k, params.Chain.LogQ())

	if *rnsParts > 0 {
		plan, err = henn.NewRNSPlan(plan, *rnsParts)
		if err != nil {
			fatal("building RNS decomposition plan failed", "parts", *rnsParts, "err", err)
		}
	}

	// Lower and optimize once up front to report the op-graph shape —
	// before and after the optimizer; errors here are compile-time
	// problems (depth exhaustion, scale mismatch), not HE failures.
	{
		g, err := plan.Lower(engine)
		if err != nil {
			fatal("lowering plan failed", "model", *modelPath, "backend", *backend, "err", err)
		}
		res, err := opt.Optimize(engine, g, optOpts)
		if err != nil {
			fatal("graph optimizer failed", "model", *modelPath, "backend", *backend, "err", err)
		}
		fmt.Printf("lowered graph: %s\n", res.Before)
		fmt.Printf("optimized graph (-opt=%s): %s\n", optOpts.Setting(), res.After)
	}

	// Every attempt runs on one guard with a fresh deadline. Lowering and
	// ahead-of-time plaintext encoding are paid via Warm (once: the plan
	// keeps the graph prepared for g) before the deadline clock starts —
	// the timeout budgets ciphertext work only.
	g := guard.New(engine, guard.DefaultConfig())
	attempt := func() (henn.Logits, *henn.Report, *telemetry.RunRecorder, error) {
		if err := plan.Warm(g); err != nil {
			return nil, &henn.Report{FailedStage: "prepare"}, nil, err
		}
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		var rec *telemetry.RunRecorder
		if *tracePath != "" {
			// Stamp a trace ID so the exported Chrome trace carries the
			// same trace_context metadata a served request would.
			tc := telemetry.NewTraceContext()
			rec = telemetry.NewRunRecorder()
			rec.SetTrace(tc.TraceIDString(), tc.TraceIDString()[:16])
			ctx = telemetry.WithTraceContext(telemetry.WithRecorder(ctx, rec), tc)
		}
		logits, rep, err := plan.InferCtx(ctx, g, img)
		return logits, rep, rec, err
	}

	var (
		logits henn.Logits
		rep    *henn.Report
		rec    *telemetry.RunRecorder
	)
	rng := rand.New(rand.NewSource(*seed + 101))
	for try := 0; ; try++ {
		logits, rep, rec, err = attempt()
		if err == nil {
			break
		}
		code := classifyExit(err)
		slog.Error("inference attempt failed",
			"attempt", try+1, "of", *retries+1,
			"model", arch, "backend", engine.Name(),
			"stage", rep.FailedStage, "class", exitClass(code), "err", err)
		if try >= *retries {
			os.Exit(code)
		}
		if !retryableClass(code) {
			slog.Error("failure class is deterministic, not retrying", "class", exitClass(code))
			os.Exit(code)
		}
		delay := retryBackoff(try, rng.Float64())
		slog.Info("backing off before retry", "delay", delay)
		time.Sleep(delay)
	}

	if rec != nil {
		if err := rec.WriteChromeTraceFile(*tracePath); err != nil {
			fatal("writing trace failed", "path", *tracePath, "err", err)
		}
		slog.Info("trace written", "path", *tracePath,
			"spans", len(rec.Spans()), "ops", rec.OpCount(),
			"trace_id", rec.TraceID())
	}

	// Plaintext reference.
	x := tensor.New(1, 28, 28)
	for i := range img {
		x.Data[i] = img[i] / 255
	}
	plain := model.Forward(x).Data

	fmt.Printf("\nencrypted classification latency: %v (encrypt %v, decrypt %v)\n",
		rep.Eval, rep.Encrypt, rep.Decrypt)
	if *verbose {
		fmt.Print(rep)
	}
	fmt.Printf("true label: %d\n", label)
	fmt.Printf("%-10s %12s %12s\n", "class", "HE logit", "plain logit")
	for i := range logits {
		fmt.Printf("%-10d %12.4f %12.4f\n", i, logits[i], plain[i])
	}
	fmt.Printf("\nHE prediction:    %d\n", logits.Argmax())
	fmt.Printf("plain prediction: %d\n", henn.Logits(plain).Argmax())
}
