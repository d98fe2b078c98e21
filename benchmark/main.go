// Command benchmark is the repository's benchmark: one process per
// workload, everything built in-process (loopback httptest for the HTTP
// routes), a closed loop of requests, every answer checked against the
// plaintext model, and every metric of BENCHMARK.json printed by name
// with its unit. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"cnnhe/internal/ring"
)

// outDir receives the full report and the Chrome trace of each run,
// relative to the checkout root the benchmark is started from.
const outDir = "benchmark/out"

// env pins what the numbers were taken on.
type env struct {
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	RingParallel bool   `json:"ring_parallel"`
	GoVersion    string `json:"go_version"`
	GitCommit    string `json:"git_commit"`
	GOOS         string `json:"goos"`
	GOARCH       string `json:"goarch"`
}

// paramInfo identifies the CKKS instantiation of a run.
type paramInfo struct {
	LogN        int    `json:"log_n"`
	ChainBits   []int  `json:"chain_bits"`
	SpecialBits int    `json:"special_bits"`
	Levels      int    `json:"levels"`
	Slots       int    `json:"slots"`
	Digest      string `json:"digest"`
}

// report is the full account of one run, written to outDir; the last
// stdout line is the part of it the contract asks for.
type report struct {
	Workload string    `json:"workload"`
	Why      string    `json:"why"`
	Seed     int64     `json:"seed"`
	Seconds  int       `json:"seconds"`
	Trace    int       `json:"trace"`
	Claim    any       `json:"claim"` // always null: the benchmark measures, it claims nothing
	Env      env       `json:"env"`
	Params   paramInfo `json:"params"`

	SetupSeconds []float64 `json:"setup_seconds"` // one per full set-up
	Phases       []phase   `json:"phases"`        // of the set-up that served the requests
	Warmup       tally     `json:"warmup"`
	Timed        tally     `json:"timed"`
	TimedStartS  float64   `json:"timed_start_s"`
	TimedSeconds float64   `json:"timed_seconds"`
	LatenciesMS  []float64 `json:"latencies_ms"` // per succeeded request, by client then completion order
	LogitErrors  []float64 `json:"logit_errors"` // per succeeded request: largest |encrypted − plaintext| logit
	TailPct      float64   `json:"tail_pct,omitempty"`
	TailMS       float64   `json:"latency_tail_ms,omitempty"`

	Metrics metrics `json:"metrics"`
	Extra   metrics `json:"extra,omitempty"` // informational, workload-specific, not in BENCHMARK.json
}

// outcome is the last line of standard output.
type outcome struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "derives images, key generation and encryption randomness")
	seconds := fs.Int("seconds", 15, "length of the measured phase")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := findConfig(*workload)
	if err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("--seconds must be at least 1 and --trace 0 or 1")
	}
	if p, n := runtime.GOMAXPROCS(0), runtime.NumCPU(); p > n {
		return fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs available; timings would measure the scheduler", p, n)
	}
	// The serve layer logs one info line per request; keep stderr for the
	// benchmark's own account.
	slog.SetLogLoggerLevel(slog.LevelWarn)

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	rep, err := measure(context.Background(), cfg, ".", outDir, *seed, *seconds, *trace == 1, stderr)
	if err != nil {
		return err
	}
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-trace%d.json", cfg.Name, *trace)
	if err := os.WriteFile(filepath.Join(outDir, name), append(raw, '\n'), 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(outcome{Correct: rep.Timed.Failed == 0, Attempted: rep.Timed.Sent,
		Failed: rep.Timed.Failed, Metrics: rep.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(line))
	return err
}

func currentEnv() env {
	return env{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		RingParallel: ring.ParallelDefault(), GoVersion: runtime.Version(),
		GitCommit: os.Getenv("BENCH_GIT_COMMIT"), // run.sh sets it; a checkout without git has none
		GOOS:      runtime.GOOS, GOARCH: runtime.GOARCH,
	}
}

// measure runs one workload once. Untraced, it sets up cfg.SetupReps
// times and measures a closed loop for the given seconds. Traced, it
// sets up once with the engine decorated, measures half the time with
// the decorator off and half with it on, and probes the kernel, scheme
// and set-up layers directly, writing the Chrome trace into out. root is
// the checkout the models are read from.
func measure(ctx context.Context, cfg *config, root, out string, seed int64, seconds int, traced bool, log io.Writer) (*report, error) {
	rep := &report{Workload: cfg.Name, Why: cfg.Why, Seed: seed, Seconds: seconds, Env: currentEnv(),
		Metrics: metrics{}, Extra: metrics{}}
	var rec *recorder
	reps := cfg.SetupReps
	if traced {
		rep.Trace, rec, reps = 1, newRecorder(), 1
	}
	var in *instance
	var setups []time.Duration
	for i := 0; i < reps; i++ {
		if in != nil {
			in.close()
			in = nil
			runtime.GC()
		}
		t := time.Now()
		var err error
		if in, err = setup(ctx, cfg, root, seed, rec); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setups = append(setups, time.Since(t))
		rep.SetupSeconds = append(rep.SetupSeconds, setups[i].Seconds())
	}
	defer in.close()
	rep.Phases, rep.Warmup = in.phases, in.warmup
	rep.Params = paramInfo{LogN: cfg.LogN, ChainBits: cfg.Bits, SpecialBits: cfg.SpecialBits,
		Levels: in.params.MaxLevel(), Slots: in.params.Slots(), Digest: in.params.Fingerprint()}
	for _, p := range in.phases {
		fmt.Fprintf(log, "set-up  %-22s at %7.3fs took %7.3fs\n", p.Name, p.StartS, p.Seconds)
	}
	fmt.Fprintf(log, "warm-up sent %d succeeded %d failed %d\n", in.warmup.Sent, in.warmup.Succeeded, in.warmup.Failed)

	next := in.warmup.Sent
	timed := func(d time.Duration, rec *recorder) ([]result, procDelta) {
		runtime.GC()
		before := snapProc()
		rs := runLoop(ctx, in, &dispenser{deadline: time.Now().Add(d), capacity: in.capacity, first: next}, rec)
		next += len(rs)
		return rs, snapProc().since(before)
	}
	rep.TimedStartS = time.Since(processStart).Seconds()
	window := time.Duration(seconds) * time.Second
	if !traced {
		rs, cost := timed(window, nil)
		rep.TimedSeconds = cost.Wall.Seconds()
		if err := endToEnd(rep, rs, cost, setups); err != nil {
			return nil, err
		}
		logTimed(log, rep)
		return rep, rep.Metrics.checkAgainst(endToEndDefs)
	}

	plain, plainCost := timed(window/2, nil)
	in.te.enable(true)
	probe, err := in.probe()
	if err != nil {
		return nil, fmt.Errorf("set-up probe: %w", err)
	}
	before := in.te.totals()
	tracedRs, _ := timed(window/2, rec)
	evals := int(in.te.totals().sub(before).Calls[kindDecrypt])
	if in.replica != nil {
		// Engine-level attribution for the keyed route comes from replica
		// evaluations of the traced images, made outside their latency.
		before = in.te.totals()
		evals = 0
		for i := range tracedRs {
			if tracedRs[i].Err != nil {
				continue
			}
			s := in.pool[tracedRs[i].Ticket%len(in.pool)]
			logits, err := in.replica(ctx, probe.Prepared, s.Pixels)
			if err == nil {
				_, err = s.check(logits)
			}
			if err != nil {
				return nil, fmt.Errorf("replica evaluation of request %d: %w", tracedRs[i].Ticket, err)
			}
			evals++
		}
	}
	kinds := in.te.totals().sub(before)
	in.te.enable(false)
	rep.TimedSeconds = plainCost.Wall.Seconds()
	if err := perLayer(rep, in, plain, plainCost, tracedRs, kinds, evals, probe); err != nil {
		return nil, err
	}
	if err := probeRing(in.params, rep.Metrics); err != nil {
		return nil, fmt.Errorf("ring probe: %w", err)
	}
	if err := probeCKKS(in.params, rep.Metrics); err != nil {
		return nil, fmt.Errorf("ckks probe: %w", err)
	}
	tracePath := filepath.Join(out, "trace-"+cfg.Name+".json")
	if err := writeChromeTrace(tracePath, cfg.Name, rec.spans); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	fmt.Fprintf(log, "trace   %d spans written to %s\n", len(rec.spans), tracePath)
	logTimed(log, rep)
	return rep, rep.Metrics.checkAgainst(perLayerDefs)
}

func logTimed(log io.Writer, rep *report) {
	fmt.Fprintf(log, "timed   started at %.3fs, ran %.3fs: sent %d succeeded %d failed %d\n",
		rep.TimedStartS, rep.TimedSeconds, rep.Timed.Sent, rep.Timed.Succeeded, rep.Timed.Failed)
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(log, "  %-32s %14.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
}

// endToEnd fills the gated metrics from one untraced timed phase.
func endToEnd(rep *report, rs []result, cost procDelta, setups []time.Duration) error {
	lat, t := latencies(rs)
	rep.Timed = t
	for _, d := range lat {
		rep.LatenciesMS = append(rep.LatenciesMS, ms(d))
	}
	if len(lat) == 0 {
		return fmt.Errorf("no request of %d succeeded; first error: %v", t.Sent, firstErr(rs))
	}
	images := float64(len(lat))
	var all logitError
	for _, r := range rs {
		if r.Err == nil {
			all.Max = math.Max(all.Max, r.Logits.Max)
			rep.LogitErrors = append(rep.LogitErrors, r.Logits.Max)
			all.SumSq += r.Logits.SumSq
			all.N += r.Logits.N
		}
	}
	if pct, at := tail(lat); pct > 0 {
		rep.TailPct, rep.TailMS = pct, ms(at)
	}
	m := rep.Metrics
	m.set("latency_p50_ms", ms(median(lat)), "ms")
	m.set("images_per_s", images/cost.Wall.Seconds(), "1/s")
	m.set("setup_s", median(setups).Seconds(), "s")
	m.set("cpu_s_per_image", (cost.User+cost.Sys).Seconds()/images, "s")
	m.set("alloc_mb_per_image", float64(cost.AllocBytes)/1e6/images, "MB")
	m.set("logit_precision_bits", -math.Log2(math.Sqrt(all.SumSq/float64(all.N))), "bits")
	rep.Extra.set("logit_precision_worst_bits", -math.Log2(all.Max), "bits")
	return nil
}

func firstErr(rs []result) error {
	for _, r := range rs {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}

// perLayer fills the per-layer metrics from the untraced half (process
// cost, baseline latency), the traced half (spans, engine counters) and
// the set-up probe.
func perLayer(rep *report, in *instance, plain []result, plainCost procDelta, traced []result,
	kinds kindTotals, evals int, probe setupProbe) error {
	plainLat, plainTally := latencies(plain)
	lat, tracedTally := latencies(traced)
	rep.Timed = tally{Sent: plainTally.Sent + tracedTally.Sent, Succeeded: plainTally.Succeeded + tracedTally.Succeeded,
		Failed: plainTally.Failed + tracedTally.Failed, Rejected: plainTally.Rejected + tracedTally.Rejected}
	if len(lat) == 0 || len(plainLat) == 0 || evals == 0 {
		return fmt.Errorf("traced pass: %d of %d untraced and %d of %d traced requests succeeded, %d evaluations; first error: %v",
			len(plainLat), plainTally.Sent, len(lat), tracedTally.Sent, evals, firstErr(append(plain, traced...)))
	}
	m, x := rep.Metrics, rep.Extra
	n := float64(len(lat))
	perEval := func(d time.Duration) float64 { return ms(d) / float64(evals) }

	// Per-request means over the traced pass.
	var latency, call, evalMS, clientEnc, clientDec, up, down, fill float64
	for _, r := range traced {
		if r.Err != nil {
			continue
		}
		latency += ms(r.Latency) / n
		call += r.Meta.CallMS / n
		evalMS += r.Meta.EvalMS / n
		clientEnc += r.Meta.EncryptMS / n
		clientDec += r.Meta.DecryptMS / n
		up += float64(r.Meta.UpBytes) / n
		down += float64(r.Meta.DownBytes) / n
		fill += float64(r.Meta.BatchSize) / float64(in.capacity) / n
	}
	// Where encryption, evaluation and decryption run depends on the
	// route; each is measured where it happens.
	encrypt, decrypt, runMS := perEval(kinds.Busy[kindEncrypt]), perEval(kinds.Busy[kindDecrypt]), evalMS
	switch in.cfg.Route {
	case routePlan, routeSharded:
		runMS = call - encrypt - decrypt
	case routeKeyed:
		encrypt, decrypt = clientEnc, clientDec
	}
	busy := 0.0
	for _, k := range evalKinds {
		b := perEval(kinds.Busy[k])
		busy += b
		m.set("engine."+kindNames[k]+".calls", float64(kinds.Calls[k])/float64(evals), "count")
		m.set("engine."+kindNames[k]+".busy_pct", 100*b/latency, "%")
		x.set("engine."+kindNames[k]+".busy_ms", b, "ms")
	}
	m.set("engine.rotate.outputs", float64(kinds.Outputs)/float64(evals), "count")
	overhead := latency - encrypt - runMS - decrypt
	m.set("exec.run_ms", runMS, "ms")
	m.set("exec.self_ms", runMS-busy, "ms")
	m.set("request.latency_ms", ms(median(lat)), "ms")
	m.set("request.encrypt_ms", encrypt, "ms")
	m.set("request.decrypt_ms", decrypt, "ms")
	m.set("request.overhead_ms", overhead, "ms")
	m.set("residual.unattributed_pct", 100*overhead/latency, "%")
	m.set("trace.overhead_pct", 100*(ms(median(lat))-ms(median(plainLat)))/ms(median(plainLat)), "%")
	x.set("request.latency_mean_ms", latency, "ms")
	x.set("layers.sum_vs_p50_pct", 100*(encrypt+runMS+decrypt)/ms(median(lat)), "%")

	m.set("exec.prepare_ms", ms(probe.Prepare), "ms")
	m.set("exec.prepared_plaintexts", float64(probe.Plaintexts), "count")
	m.set("nn.load_model_ms", 1e3*in.phaseSeconds("nn.load_model"), "ms")
	m.set("henn.compile_ms", 1e3*in.phaseSeconds("henn.compile"), "ms")
	m.set("henn.lower_ms", ms(probe.Lower), "ms")
	m.set("opt.optimize_ms", ms(probe.Optimize), "ms")
	m.set("opt.engine_calls_before", float64(probe.Before.EngineCalls), "count")
	m.set("opt.engine_calls_after", float64(probe.After.EngineCalls), "count")
	m.set("opt.rotate_calls_after", float64(probe.After.RotateCalls()), "count")
	m.set("henn.keygen_ms", 1e3*in.phaseSeconds("henn.keygen"), "ms")
	warm := 1e3 * in.phaseSeconds("henn.warm")
	if in.cfg.Route == routeKeyed {
		// The keyed server warms per client inside the first request:
		// lower + prepare, which the replica probe timed.
		warm = ms(probe.Lower + probe.Prepare)
	}
	m.set("henn.warm_ms", warm, "ms")

	m.set("serve.batch_fill", fill, "ratio")
	m.set("serve.batches", float64(evals), "count")
	m.set("serve.rejected", float64(rep.Timed.Rejected)/float64(rep.Timed.Sent), "ratio")
	m.set("wire.upload_kb", up/1e3, "kB")
	m.set("wire.download_kb", down/1e3, "kB")
	m.set("wire.kb_per_request", (up+down)/1e3, "kB")
	m.set("keys.bundle_mb", float64(in.bundleBytes)/1e6, "MB")

	// Process cost per image comes from the untraced half: the traced
	// half also pays for spans and, on the keyed route, the replica.
	images := float64(len(plainLat))
	end := snapProc()
	m.set("proc.peak_rss_mb", float64(end.PeakRSSKB)*1024/1e6, "MB")
	m.set("proc.heap_inuse_mb", float64(end.HeapInuse)/1e6, "MB")
	m.set("proc.gc_cycles_per_image", float64(plainCost.GCCycles)/images, "count")
	m.set("proc.gc_pause_ms_per_image", ms(plainCost.GCPause)/images, "ms")
	m.set("proc.user_cpu_s", plainCost.User.Seconds()/images, "s")
	m.set("proc.sys_cpu_s", plainCost.Sys.Seconds()/images, "s")
	m.set("oracle.fail_rate", float64(rep.Timed.Failed)/float64(rep.Timed.Sent), "ratio")

	for _, name := range []string{"client.bundle_marshal", "client.register", "serve.start", "warmup"} {
		if s := in.phaseSeconds(name); s > 0 {
			x.set(name+"_ms", 1e3*s, "ms")
		}
	}
	return nil
}
