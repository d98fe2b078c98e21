package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"time"

	"cnnhe/internal/ckks"
	"cnnhe/internal/client"
	"cnnhe/internal/dataset"
	"cnnhe/internal/guard"
	"cnnhe/internal/henn"
	"cnnhe/internal/henn/exec"
	"cnnhe/internal/henn/ir"
	"cnnhe/internal/henn/ir/opt"
	"cnnhe/internal/nn"
	"cnnhe/internal/serve"
)

// route names the code path a workload drives.
type route int

const (
	routePlan    route = iota // henn.Compile → Plan.InferCtx, in process
	routeSharded              // henn.CompileShardedAuto → ShardedPlan.InferCtx, in process
	routeServe                // henn.CompileBatched → guard → serve → HTTP /classify
	routeKeyed                // serve.NewKeyed → HTTP /v1, client-held keys
)

// config is one workload at one scale. The full-scale table is
// workloadConfigs; the smoke test supplies TinyParameters-sized ones.
type config struct {
	Name  string
	Why   string
	Route route

	LoadModel func(root string) (*nn.Model, error)
	Shape     []int                               // model input tensor shape
	Images    func(n int, seed int64) [][]float64 // raw pixels, the same for the same seed

	LogN        int
	Bits        []int // ciphertext prime sizes, level 0 first
	SpecialBits int
	Scale       float64

	Batch     int // images per ciphertext (routeServe)
	Clients   int // closed-loop clients
	KeySets   int // registered clients alternated per request (routeKeyed)
	SetupReps int // full set-ups per run; setup_s is their median
}

// paperChain is the paper-shaped chain of length k: [40, 26×(k−2), 40].
func paperChain(k int) []int {
	bits := []int{40}
	for i := 0; i < k-2; i++ {
		bits = append(bits, 26)
	}
	return append(bits, 40)
}

func loadGob(rel string) func(root string) (*nn.Model, error) {
	return func(root string) (*nn.Model, error) {
		m, _, err := nn.LoadModel(filepath.Join(root, rel))
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", rel, err)
		}
		return m, nil
	}
}

func datasetImages(gen func(n int, seed int64) dataset.Dataset) func(n int, seed int64) [][]float64 {
	return func(n int, seed int64) [][]float64 {
		ds := gen(n, seed)
		out := make([][]float64, ds.Len())
		for i := range out {
			out[i] = ds.Image(i)
		}
		return out
	}
}

const (
	cnn1Model = "models/cnn1-slaf-n6000-s1.gob"
	cnn3Model = "benchmark/testdata/cnn3-slaf-n1024-s1.gob"
)

// workloadConfigs is the benchmark: four closed-loop workloads that
// stress different layers. README.md explains each choice and the
// parameter sizes (the contract's run-time cap sets N, not the paper).
func workloadConfigs() []config {
	mnist := datasetImages(dataset.SyntheticMNIST)
	cifar := datasetImages(dataset.SyntheticCIFAR10)
	return []config{
		{
			Name:  "cnn1_single",
			Why:   "CNN1 on one ciphertext, paper-shaped 13-prime chain, in process: rotation/key-switch bound, bypasses serve, client, keys and wire",
			Route: routePlan, LoadModel: loadGob(cnn1Model), Shape: []int{1, 28, 28}, Images: mnist,
			LogN: 11, Bits: paperChain(13), SpecialBits: 60, Scale: math.Exp2(26),
			Clients: 1, SetupReps: 2,
		},
		{
			Name:  "cnn3_sharded",
			Why:   "CIFAR CNN3 split over 4 ciphertext shards, in process: ~7.6k MulPlain and 8k engine calls per image, so MulPlain/recombine/executor bound, not rotation bound",
			Route: routeSharded, LoadModel: loadGob(cnn3Model), Shape: []int{3, 32, 32}, Images: cifar,
			LogN: 11, Bits: paperChain(10), SpecialBits: 60, Scale: math.Exp2(26),
			Clients: 1, SetupReps: 1,
		},
		{
			Name:  "serve_batched",
			Why:   "2 images per ciphertext behind guard, serve and HTTP /classify with 4 clients: the only workload where queue, batcher, admission and JSON are on the critical path",
			Route: routeServe, LoadModel: loadGob(cnn1Model), Shape: []int{1, 28, 28}, Images: mnist,
			LogN: 12, Bits: paperChain(8), SpecialBits: 60, Scale: math.Exp2(26),
			Batch: 2, Clients: 4, SetupReps: 1,
		},
		{
			Name:  "keyed_encrypted",
			Why:   "client-held keys over HTTP, two registered key sets alternating: the only workload crossing ckks marshal, keys store, client and guard.Adopt; HE eval is small so wire and key-store changes show",
			Route: routeKeyed, LoadModel: loadGob(cnn1Model), Shape: []int{1, 28, 28}, Images: mnist,
			LogN: 11, Bits: paperChain(8), SpecialBits: 60, Scale: math.Exp2(26),
			Clients: 1, KeySets: 2, SetupReps: 1,
		},
	}
}

func findConfig(name string) (*config, error) {
	cfgs := workloadConfigs()
	for i := range cfgs {
		if cfgs[i].Name == name {
			return &cfgs[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// reqMeta is what one request reports beside its logits.
type reqMeta struct {
	CallMS    float64 // the InferCtx call (in-process routes)
	EvalMS    float64 // server-reported evaluation time (HTTP routes)
	BatchSize int     // images that shared the evaluation
	UpBytes   int64   // request body at the HTTP boundary
	DownBytes int64   // response body at the HTTP boundary
	EncryptMS float64 // client-side encode+encrypt+marshal (routeKeyed)
	DecryptMS float64 // client-side unmarshal tail+decrypt+decode (routeKeyed)
	Rejected  bool    // HTTP 429/503/504
}

// phase is one named step of set-up, with when it started relative to
// process start, so a slow phase is visible in the report.
type phase struct {
	Name    string  `json:"name"`
	StartS  float64 `json:"start_s"`
	Seconds float64 `json:"seconds"`
}

// setupProbe holds the direct calls into the lowering, optimizer and
// executor-preparation layers made on the traced engine.
type setupProbe struct {
	Lower, Optimize, Prepare time.Duration
	Before, After            ir.Stats
	Plaintexts               int64
	Prepared                 *exec.Prepared // routeKeyed only: what the replica evaluates on
}

// instance is one workload set up and ready to take requests.
type instance struct {
	cfg      *config
	model    *nn.Model
	params   ckks.Parameters
	pool     []sample
	capacity int // images per encrypted evaluation

	// classify sends request number ticket and returns the decrypted
	// logits. tr is nil when spans are off.
	classify func(ctx context.Context, ticket int, px []float64, tr *reqTrace) ([]float64, reqMeta, error)
	close    func()

	phases      []phase
	warmup      tally
	bundleBytes int64

	// Traced mode only: rec is non-nil, the engine is decorated.
	rec     *recorder
	te      *tracedEngine
	probe   func() (setupProbe, error)
	replica func(ctx context.Context, prep *exec.Prepared, px []float64) ([]float64, error) // routeKeyed
}

var processStart = time.Now()

// step runs f as a named set-up phase.
func (in *instance) step(name string, f func() error) error {
	start := time.Now()
	err := f()
	end := time.Now()
	in.phases = append(in.phases, phase{Name: name, StartS: start.Sub(processStart).Seconds(), Seconds: end.Sub(start).Seconds()})
	if in.rec != nil {
		in.rec.add(span{Name: name, Cat: "setup", Start: start, End: end, Parent: -1, Req: -1, Track: 0})
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

func (in *instance) phaseSeconds(name string) float64 {
	total := 0.0
	for _, p := range in.phases {
		if p.Name == name {
			total += p.Seconds
		}
	}
	return total
}

// lowerable is the part of henn.Plan and henn.ShardedPlan set-up uses.
type lowerable interface {
	Lower(e henn.Engine) (*ir.Graph, error)
	Warm(e henn.Engine) error
	Rotations() []int
	CheckDepth(maxLevel int) error
}

// setup builds the workload from nothing: model load, compile, key
// generation, lowering/optimizing/pre-encoding, server start and key
// registration, then the warm-up requests. With rec non-nil the engine
// is decorated (disabled until the traced pass) and set-up phases are
// recorded as spans.
func setup(ctx context.Context, cfg *config, root string, seed int64, rec *recorder) (in *instance, err error) {
	in = &instance{cfg: cfg, rec: rec, capacity: 1, close: func() {}}
	defer func() {
		if err != nil {
			in.close()
		}
	}()
	if err := in.step("nn.load_model", func() (err error) {
		in.model, err = cfg.LoadModel(root)
		return err
	}); err != nil {
		return nil, err
	}
	if err := in.step("ckks.new_parameters", func() (err error) {
		in.params, err = ckks.NewParameters(cfg.LogN, cfg.Bits, cfg.SpecialBits, 1, cfg.Scale)
		return err
	}); err != nil {
		return nil, err
	}
	switch cfg.Route {
	case routePlan, routeSharded:
		err = in.setupInProcess(seed)
	case routeServe:
		err = in.setupServe(seed)
	case routeKeyed:
		err = in.setupKeyed(ctx, seed)
	}
	if err != nil {
		return nil, err
	}
	// Inputs and their plaintext answers; not part of the system under
	// test, but part of getting ready to send the first request.
	if err := in.step("oracle.inputs", func() error {
		for _, px := range cfg.Images(2*poolSize, seed) {
			if s := newSample(in.model, cfg.Shape, px); s.margin() >= minMargin && len(in.pool) < poolSize {
				in.pool = append(in.pool, s)
			}
		}
		if len(in.pool) == 0 {
			return fmt.Errorf("no image of %d has a top-2 logit margin of %g", 2*poolSize, minMargin)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := in.step("warmup", func() error {
		n := cfg.Clients
		if cfg.KeySets > n {
			n = cfg.KeySets
		}
		for _, r := range runLoop(ctx, in, &dispenser{limit: n, capacity: in.capacity}, nil) {
			in.warmup.add(&r)
			if r.Err != nil {
				return fmt.Errorf("warm-up request %d: %w", r.Ticket, r.Err)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return in, nil
}

// poolSize is how many distinct images a run cycles through.
const poolSize = 16

// engineSeed derives key-generation and encryption seeds from the run
// seed; distinct streams for distinct uses.
func engineSeed(seed int64, stream int64) int64 { return seed*1000 + stream }

// decorate puts the timing decorator on e when spans are wanted.
func (in *instance) decorate(e henn.Engine) henn.Engine {
	if in.rec == nil {
		return e
	}
	e = newTracedEngine(e, in.rec)
	in.te = tracedOf(e)
	return e
}

// probeOn returns the set-up probe for a plan on engine e: one direct
// call each into lowering, the optimizer and exec.Prepare. prepareRaw
// prepares the unoptimized lowering, as the keyed route does.
func (in *instance) probeOn(plan lowerable, e henn.Engine, o *opt.Options, prepareRaw bool) func() (setupProbe, error) {
	return func() (setupProbe, error) {
		var p setupProbe
		t := time.Now()
		g, err := plan.Lower(e)
		if err != nil {
			return p, fmt.Errorf("lower: %w", err)
		}
		p.Lower = time.Since(t)
		t = time.Now()
		res, err := opt.Optimize(e, g, o)
		if err != nil {
			return p, fmt.Errorf("optimize: %w", err)
		}
		p.Optimize = time.Since(t)
		p.Before, p.After = res.Before, res.After
		if !prepareRaw {
			g = res.Graph
		}
		before := in.te.totals()
		t = time.Now()
		prep, err := exec.Prepare(e, g)
		if err != nil {
			return p, fmt.Errorf("prepare: %w", err)
		}
		p.Prepare = time.Since(t)
		if prepareRaw {
			p.Prepared = prep // the keyed replica evaluates on it; elsewhere it would only hold memory
		}
		p.Plaintexts = in.te.totals().sub(before).Encoded
		return p, nil
	}
}

func (in *instance) setupInProcess(seed int64) error {
	cfg := in.cfg
	var plan lowerable
	var infer func(ctx context.Context, e henn.Engine, image []float64) (henn.Logits, *henn.Report, error)
	var o *opt.Options
	if err := in.step("henn.compile", func() error {
		if cfg.Route == routeSharded {
			sp, err := henn.CompileShardedAuto(in.model, in.params.Slots())
			if err != nil {
				return err
			}
			plan, infer, o = sp, sp.InferCtx, sp.Opt
			return nil
		}
		p, err := henn.Compile(in.model, in.params.Slots())
		if err != nil {
			return err
		}
		plan, infer, o = p, p.InferCtx, p.Opt
		return nil
	}); err != nil {
		return err
	}
	if err := plan.CheckDepth(in.params.MaxLevel()); err != nil {
		return err
	}
	var e henn.Engine
	if err := in.step("henn.keygen", func() error {
		eng, err := henn.NewRNSEngine(in.params, plan.Rotations(), engineSeed(seed, 1))
		e = eng
		return err
	}); err != nil {
		return err
	}
	e = in.decorate(e)
	if err := in.step("henn.warm", func() error { return plan.Warm(e) }); err != nil {
		return err
	}
	in.probe = in.probeOn(plan, e, o, false)
	in.classify = func(ctx context.Context, _ int, px []float64, tr *reqTrace) ([]float64, reqMeta, error) {
		sp := tr.openEngineParent("henn.InferCtx", "henn")
		start := time.Now()
		logits, _, err := infer(ctx, e, px)
		call := time.Since(start)
		tr.closeEngineParent(sp)
		return logits, reqMeta{BatchSize: 1, CallMS: ms(call)}, err
	}
	return nil
}

func (in *instance) setupServe(seed int64) error {
	cfg := in.cfg
	var bp *henn.BatchPlan
	if err := in.step("henn.compile", func() (err error) {
		bp, err = henn.CompileBatched(in.model, in.params.Slots(), cfg.Batch)
		return err
	}); err != nil {
		return err
	}
	if err := bp.Plan.CheckDepth(in.params.MaxLevel()); err != nil {
		return err
	}
	in.capacity = bp.Batch
	var e henn.Engine
	if err := in.step("henn.keygen", func() error {
		eng, err := henn.NewRNSEngine(in.params, bp.Plan.Rotations(), engineSeed(seed, 1))
		e = eng
		return err
	}); err != nil {
		return err
	}
	g := guard.New(in.decorate(e), guard.DefaultConfig())
	if err := in.step("henn.warm", func() error { return bp.Plan.Warm(g) }); err != nil {
		return err
	}
	in.probe = in.probeOn(bp.Plan, g, bp.Plan.Opt, false)
	var srv *serve.Server
	var ts *httptest.Server
	if err := in.step("serve.start", func() (err error) {
		// TargetLatency is set far above one batch evaluation so the AIMD
		// admission limit stays at the queue size: with the 2 s default a
		// healthy 1.5 s batch sits close enough to the target that one slow
		// batch would halve admission to one batch and refuse half the
		// closed-loop clients.
		srv, err = serve.New(serve.Config{Batch: bp, Engine: g, TargetLatency: time.Minute})
		if err != nil {
			return err
		}
		ts = httptest.NewServer(srv.Handler())
		return nil
	}); err != nil {
		return err
	}
	in.close = func() {
		ts.Close()
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(sctx) // drain failure only delays exit; nothing to report it to
	}
	hc := ts.Client()
	url := ts.URL + "/classify"
	in.classify = func(ctx context.Context, _ int, px []float64, tr *reqTrace) ([]float64, reqMeta, error) {
		var meta reqMeta
		body, err := json.Marshal(serve.ClassifyRequest{Image: px})
		if err != nil {
			return nil, meta, err
		}
		meta.UpBytes = int64(len(body))
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return nil, meta, err
		}
		req.Header.Set("Content-Type", "application/json")
		sp := tr.open("http.roundtrip", "http")
		resp, err := hc.Do(req)
		if err != nil {
			tr.close(sp)
			return nil, meta, err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		tr.close(sp)
		meta.DownBytes = int64(len(raw))
		if err != nil {
			return nil, meta, err
		}
		if resp.StatusCode != http.StatusOK {
			meta.Rejected = refused(resp.StatusCode)
			return nil, meta, fmt.Errorf("HTTP %s: %s", resp.Status, bytes.TrimSpace(raw))
		}
		var cr serve.ClassifyResponse
		if err := json.Unmarshal(raw, &cr); err != nil {
			return nil, meta, fmt.Errorf("decoding response: %w", err)
		}
		meta.EvalMS, meta.BatchSize = cr.EvalMillis, cr.BatchSize
		return cr.Logits, meta, nil
	}
	return nil
}

func refused(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable ||
		status == http.StatusGatewayTimeout
}

// wireStats is filled by countingTransport for the request whose
// context carries it.
type wireStats struct {
	mu       sync.Mutex
	sent     time.Time // first byte handed to the transport
	received time.Time // response body fully read
	up, down int64
}

type wireKey struct{}

// countingTransport measures bytes and times at the HTTP boundary of
// the client package without touching it.
type countingTransport struct{ base http.RoundTripper }

func (t countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ws, _ := req.Context().Value(wireKey{}).(*wireStats)
	if ws == nil {
		return t.base.RoundTrip(req)
	}
	ws.mu.Lock()
	if ws.sent.IsZero() {
		ws.sent = time.Now()
	}
	if req.ContentLength > 0 {
		ws.up += req.ContentLength
	}
	ws.mu.Unlock()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, ws: ws}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	ws *wireStats
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.ws.mu.Lock()
	b.ws.down += int64(n)
	b.ws.received = time.Now()
	b.ws.mu.Unlock()
	return n, err
}

func (in *instance) setupKeyed(ctx context.Context, seed int64) error {
	cfg := in.cfg
	var plan *henn.Plan
	if err := in.step("henn.compile", func() (err error) {
		plan, err = henn.Compile(in.model, in.params.Slots())
		return err
	}); err != nil {
		return err
	}
	if err := plan.CheckDepth(in.params.MaxLevel()); err != nil {
		return err
	}
	var cctx *ckks.Context
	var keyed *serve.Keyed
	var ts *httptest.Server
	if err := in.step("serve.start", func() (err error) {
		if cctx, err = ckks.NewContext(in.params); err != nil {
			return err
		}
		keyed, err = serve.NewKeyed(serve.KeyedConfig{Ctx: cctx, Plan: plan, Model: "cnn1", Backend: "ckks-rns"})
		if err != nil {
			return err
		}
		ts = httptest.NewServer(keyed.Handler())
		return nil
	}); err != nil {
		return err
	}
	in.close = func() {
		ts.Close()
		keyed.Close()
	}
	// No retries: a refused or failed request is a failure, not a delay.
	cl := &client.Client{BaseURL: ts.URL, HTTP: &http.Client{Transport: countingTransport{ts.Client().Transport}}}
	var info *client.InfoResponse
	keysets := make([]*client.KeySet, cfg.KeySets)
	if err := in.step("henn.keygen", func() (err error) {
		if info, err = cl.Info(ctx); err != nil {
			return err
		}
		for i := range keysets {
			if keysets[i], err = client.GenerateKeys(info, client.WithSeed(engineSeed(seed, int64(10+i)))); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := in.step("client.bundle_marshal", func() error {
		for _, ks := range keysets {
			b, err := ks.Bundle()
			if err != nil {
				return err
			}
			in.bundleBytes = int64(len(b))
		}
		return nil
	}); err != nil {
		return err
	}
	if err := in.step("client.register", func() error {
		for _, ks := range keysets {
			if _, err := cl.Register(ctx, ks); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	in.classify = func(ctx context.Context, ticket int, px []float64, tr *reqTrace) ([]float64, reqMeta, error) {
		ks := keysets[ticket%len(keysets)]
		ws := &wireStats{}
		start := time.Now()
		res, err := cl.ClassifyEncrypted(context.WithValue(ctx, wireKey{}, ws), ks, px, info.OutputDim,
			client.WithEncryptionSeed(engineSeed(seed, int64(100+ticket))))
		end := time.Now()
		meta := reqMeta{BatchSize: 1, UpBytes: ws.up, DownBytes: ws.down}
		if !ws.sent.IsZero() && !ws.received.IsZero() {
			meta.EncryptMS = ms(ws.sent.Sub(start))
			meta.DecryptMS = ms(end.Sub(ws.received))
			tr.addSpan("client.encrypt", "client", start, ws.sent)
			tr.addSpan("http.roundtrip", "http", ws.sent, ws.received)
			tr.addSpan("client.decrypt", "client", ws.received, end)
		}
		if err != nil {
			return nil, meta, err
		}
		meta.EvalMS = res.EvalMillis
		return res.Logits, meta, nil
	}
	if in.rec == nil {
		return nil
	}
	// The server builds its per-client engine itself, so its engine calls
	// cannot be decorated from here. The traced pass instead evaluates
	// each traced image once more on a replica built exactly as
	// serve.Keyed.evalFor builds it — eval-only engine on the client's
	// keys, guard on top, the unoptimized lowering prepared (by the set-up
	// probe) — with the decorator in between.
	ks := keysets[0]
	g := guard.New(in.decorate(henn.NewRNSEvalEngine(cctx, ks.RLK, ks.RTK)), guard.DefaultConfig())
	in.probe = in.probeOn(plan, g, plan.Opt, true)
	in.replica = func(ctx context.Context, prep *exec.Prepared, px []float64) ([]float64, error) {
		encSeed := engineSeed(seed, 99)
		ct, err := ks.EncryptImage(px, &encSeed)
		if err != nil {
			return nil, err
		}
		adopted, err := g.Adopt(ct)
		if err != nil {
			return nil, err
		}
		res, err := prep.RunEncrypted(ctx, []ir.Ct{adopted}, exec.Options{})
		if err != nil {
			_ = g.Reset() // clear the latch for the next replica run; err already reports the failure
			return nil, err
		}
		out, ok := guard.Underlying(res.Out).(*ckks.Ciphertext)
		if !ok {
			return nil, fmt.Errorf("replica produced %T", guard.Underlying(res.Out))
		}
		return ks.DecryptLogits(out, info.OutputDim)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
