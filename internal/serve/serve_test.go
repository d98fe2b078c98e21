package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cnnhe/internal/ckks"
	"cnnhe/internal/faults"
	"cnnhe/internal/guard"
	"cnnhe/internal/henn"
	"cnnhe/internal/henn/exec"
	"cnnhe/internal/nn"
	"cnnhe/internal/telemetry"
)

// tinyModel mirrors the henn test fixture: Conv(1→2, 3×3, s2) → SLAF →
// Flatten → Dense on 8×8 inputs, depth 4.
func tinyModel(seed int64) *nn.Model {
	rng := rand.New(rand.NewSource(seed))
	conv := nn.NewConv2D(rng, 1, 2, 3, 2, 0, 8, 8)
	flat := conv.OutC * conv.OutH() * conv.OutW()
	m := &nn.Model{Layers: []nn.Layer{
		conv,
		nn.NewReLU(),
		nn.NewFlatten(),
		nn.NewDense(rng, flat, 4),
	}}
	hm := m.ReplaceReLUWithSLAF(3, 1)
	for _, l := range hm.Layers {
		if s, ok := l.(*nn.SLAF); ok {
			s.FitReLU(3)
		}
	}
	return hm
}

func testImage(rng *rand.Rand, n int) []float64 {
	img := make([]float64, n)
	for i := range img {
		img[i] = float64(rng.Intn(256))
	}
	return img
}

// fixture compiles the batched plan and builds a guarded RNS engine for
// it (plus an unbatched reference plan sharing the model).
type fixture struct {
	model *nn.Model
	bp    *henn.BatchPlan
	base  *henn.Plan
	eng   *guard.GuardedEngine

	refOnce sync.Once
	refEng  *henn.RNSEngine
}

func newFixture(t testing.TB, batch int) *fixture {
	t.Helper()
	m := tinyModel(61)
	bp, err := henn.CompileBatched(m, 512, batch)
	if err != nil {
		t.Fatal(err)
	}
	base, err := henn.Compile(m, 512)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ckks.NewParameters(10, []int{40, 30, 30, 30, 30}, 60, 1, math.Exp2(30))
	if err != nil {
		t.Fatal(err)
	}
	e, err := henn.NewRNSEngine(p, bp.Plan.Rotations(), 601)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{model: m, bp: bp, base: base,
		eng: guard.New(e, guard.DefaultConfig())}
}

// refLogits runs the unbatched single-image reference path on a
// separate engine (so PRNG state cannot couple it to the served path),
// built once per fixture.
func (f *fixture) refLogits(t testing.TB, img []float64) henn.Logits {
	t.Helper()
	f.refOnce.Do(func() {
		p, err := ckks.NewParameters(10, []int{40, 30, 30, 30, 30}, 60, 1, math.Exp2(30))
		if err != nil {
			t.Fatal(err)
		}
		f.refEng, err = henn.NewRNSEngine(p, f.base.Rotations(), 602)
		if err != nil {
			t.Fatal(err)
		}
	})
	logits, _, err := f.base.InferCtx(context.Background(), f.refEng, img)
	if err != nil {
		t.Fatal(err)
	}
	return logits
}

func postClassify(t testing.TB, url string, image []float64) *http.Response {
	t.Helper()
	body, err := json.Marshal(ClassifyRequest{Image: image})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestServeConcurrentParity is the end-to-end acceptance test: N
// concurrent HTTP clients against one micro-batching server produce the
// same predictions (logits within CKKS tolerance) as sequential
// single-image InferCtx runs.
func TestServeConcurrentParity(t *testing.T) {
	f := newFixture(t, 4)
	s, err := New(Config{Batch: f.bp, Engine: f.eng, MaxWait: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Shutdown(context.Background()) }()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 8
	rng := rand.New(rand.NewSource(62))
	images := make([][]float64, n)
	for i := range images {
		images[i] = testImage(rng, 64)
	}

	got := make([]henn.Logits, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			resp := postClassify(t, ts.URL, images[i])
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d", i, resp.StatusCode)
				return
			}
			var cr ClassifyResponse
			if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
				t.Errorf("client %d: decoding: %v", i, err)
				return
			}
			if cr.BatchSize < 1 || cr.BatchSize > f.bp.Batch {
				t.Errorf("client %d: batch size %d outside [1, %d]", i, cr.BatchSize, f.bp.Batch)
			}
			got[i] = henn.Logits(cr.Logits)
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i, img := range images {
		want := f.refLogits(t, img)
		if len(got[i]) != len(want) {
			t.Fatalf("client %d: %d logits, want %d", i, len(got[i]), len(want))
		}
		for j := range want {
			if math.Abs(got[i][j]-want[j]) > 0.05 {
				t.Fatalf("client %d logit %d: served %g reference %g", i, j, got[i][j], want[j])
			}
		}
		if got[i].Argmax() != want.Argmax() {
			t.Fatalf("client %d prediction mismatch", i)
		}
	}
}

// TestServeMultiShardPlan: a plan whose image spans several ciphertexts
// serves /classify through the same micro-batching server, one image per
// evaluation, and answers with exactly the logits Plan.InferCtx computes
// on an identically seeded engine.
func TestServeMultiShardPlan(t *testing.T) {
	compile := func() *henn.Plan {
		m := &nn.Model{Layers: []nn.Layer{nn.NewDense(rand.New(rand.NewSource(41)), 1200, 7)}}
		plan, err := henn.CompileShardedAuto(m, 512)
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	plan := compile()
	if plan.NumShards() != 3 {
		t.Fatalf("%d shards, want 3", plan.NumShards())
	}
	p, err := ckks.NewParameters(10, []int{40, 30, 30}, 60, 1, math.Exp2(30))
	if err != nil {
		t.Fatal(err)
	}
	engine := func() henn.Engine {
		e, err := henn.NewRNSEngine(p, plan.Rotations(), 611)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	bp, err := plan.Batched(1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Batch: bp, Engine: engine()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Shutdown(context.Background()) }()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	img := testImage(rand.New(rand.NewSource(14)), plan.InputDim)
	resp := postClassify(t, ts.URL, img)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	var cr ClassifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	want, _, err := compile().InferCtx(context.Background(), engine(), img)
	if err != nil {
		t.Fatal(err)
	}
	if cr.BatchSize != 1 || len(cr.Logits) != len(want) {
		t.Fatalf("batch size %d, %d logits; want 1, %d", cr.BatchSize, len(cr.Logits), len(want))
	}
	for i := range want {
		if cr.Logits[i] != want[i] {
			t.Fatalf("logit %d: served %v, Plan.InferCtx %v", i, cr.Logits[i], want[i])
		}
	}
}

// TestServeQueueFullRejects: with the batcher stopped and the queue at
// capacity, a request is rejected with 429 and a Retry-After hint.
func TestServeQueueFullRejects(t *testing.T) {
	f := newFixture(t, 2)
	s, err := newServer(Config{Batch: f.bp, Engine: f.eng, QueueSize: 1,
		RetryAfter: 3 * time.Second}) // batcher intentionally not started
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(63))
	if _, err := s.enqueue(context.Background(), testImage(rng, 64)); err != nil {
		t.Fatalf("first enqueue should fit: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp := postClassify(t, ts.URL, testImage(rng, 64))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("want 429, got %d", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("want Retry-After 3, got %q", ra)
	}
}

// TestServeShutdownDrains: requests queued before Shutdown are all
// served through final batches; requests after Shutdown are refused.
func TestServeShutdownDrains(t *testing.T) {
	f := newFixture(t, 4)
	// Long MaxWait: the drain must come from Shutdown closing intake,
	// not from the flush timer happening to fire.
	s, err := New(Config{Batch: f.bp, Engine: f.eng, MaxWait: 2 * time.Second, QueueSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(64))
	const n = 3
	reqs := make([]*request, n)
	for i := range reqs {
		r, err := s.enqueue(context.Background(), testImage(rng, 64))
		if err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
		reqs[i] = r
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	for i, r := range reqs {
		select {
		case res := <-r.resp:
			if res.err != nil {
				t.Fatalf("drained request %d failed: %v", i, res.err)
			}
			if len(res.logits) != f.bp.Plan.OutputDim {
				t.Fatalf("drained request %d: %d logits", i, len(res.logits))
			}
		default:
			t.Fatalf("request %d not answered by drain", i)
		}
	}
	// Post-shutdown intake refused, at both layers.
	if _, err := s.enqueue(context.Background(), testImage(rng, 64)); err != ErrShuttingDown {
		t.Fatalf("want ErrShuttingDown, got %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp := postClassify(t, ts.URL, testImage(rng, 64))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("want 503 after shutdown, got %d", resp.StatusCode)
	}
	// Shutdown is idempotent.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

// TestServeBadRequests: malformed inputs are rejected at the HTTP edge
// before touching the queue.
func TestServeBadRequests(t *testing.T) {
	f := newFixture(t, 2)
	s, err := New(Config{Batch: f.bp, Engine: f.eng})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Shutdown(context.Background()) }()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Wrong length.
	resp := postClassify(t, ts.URL, []float64{1, 2, 3})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short image: want 400, got %d", resp.StatusCode)
	}
	// Non-finite pixel (would poison the whole packed batch).
	rng := rand.New(rand.NewSource(65))
	bad := testImage(rng, 64)
	bad[10] = math.NaN()
	body, _ := json.Marshal(map[string][]string{})
	_ = body
	raw := []byte(`{"image":[`)
	for i, v := range bad {
		if i > 0 {
			raw = append(raw, ',')
		}
		if math.IsNaN(v) {
			raw = append(raw, `1e999`...) // decodes to +Inf rejection path via JSON error or non-finite
		} else {
			raw = append(raw, []byte(fmt.Sprintf("%g", v))...)
		}
	}
	raw = append(raw, `]}`...)
	r2, err := http.Post(ts.URL+"/classify", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("non-finite image: want 400, got %d", r2.StatusCode)
	}
	// Invalid JSON.
	r3, err := http.Post(ts.URL+"/classify", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: want 400, got %d", r3.StatusCode)
	}
	// Wrong method.
	r4, err := http.Get(ts.URL + "/classify")
	if err != nil {
		t.Fatal(err)
	}
	r4.Body.Close()
	if r4.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET: want 405, got %d", r4.StatusCode)
	}
	// Health while accepting, carrying the optimizer setting for load
	// clients to stamp their reports with.
	r5, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status    string `json:"status"`
		Optimizer string `json:"optimizer"`
	}
	err = json.NewDecoder(r5.Body).Decode(&health)
	r5.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if r5.StatusCode != http.StatusOK {
		t.Fatalf("healthz: want 200, got %d", r5.StatusCode)
	}
	if health.Status != "ok" || health.Optimizer == "" {
		t.Fatalf("healthz body: %+v (want ok status and an optimizer setting)", health)
	}
}

// TestServeRequestTimeout: an expired per-request deadline surfaces as
// 504 instead of hanging.
func TestServeRequestTimeout(t *testing.T) {
	f := newFixture(t, 2)
	s, err := New(Config{Batch: f.bp, Engine: f.eng, RequestTimeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Shutdown(context.Background()) }()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	rng := rand.New(rand.NewSource(66))
	resp := postClassify(t, ts.URL, testImage(rng, 64))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("want 504, got %d", resp.StatusCode)
	}
}

// TestServeGuardRecoversAfterFailedBatch: a batch whose guarded engine
// op fails fails alone — the next batch on the same guard and prepared
// graph succeeds with no reset in between, since the guard keeps no
// per-run state.
func TestServeGuardRecoversAfterFailedBatch(t *testing.T) {
	f := newFixture(t, 2)
	p, err := ckks.NewParameters(10, []int{40, 30, 30, 30, 30}, 60, 1, math.Exp2(30))
	if err != nil {
		t.Fatal(err)
	}
	e, err := henn.NewRNSEngine(p, f.bp.Plan.Rotations(), 603)
	if err != nil {
		t.Fatal(err)
	}
	// The injector panics inside the first MulRelin, then passes through.
	inj := faults.Wrap(e, faults.Injection{Kind: faults.PanicOp, Op: "MulRelin"})
	s, err := New(Config{Batch: f.bp, Engine: guard.New(inj, guard.DefaultConfig()), MaxWait: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Shutdown(context.Background()) }()
	rng := rand.New(rand.NewSource(67))

	_, _, err = s.Submit(context.Background(), testImage(rng, 64))
	if !inj.Fired() || !errors.Is(err, exec.ErrEnginePanic) {
		t.Fatalf("first batch: fired %v, error %v; want the injected engine panic", inj.Fired(), err)
	}
	logits, info, err := s.Submit(context.Background(), testImage(rng, 64))
	if err != nil {
		t.Fatalf("batch after a failed one failed: %v", err)
	}
	if len(logits) != f.bp.Plan.OutputDim || info.Size != 1 {
		t.Fatalf("unexpected result after a failed batch: %d logits, batch %d", len(logits), info.Size)
	}
}

// TestServeMetricsExposed: the serving instruments land on the shared
// registry and render on /metrics.
func TestServeMetricsExposed(t *testing.T) {
	telemetry.SetEnabled(true)
	f := newFixture(t, 2)
	s, err := New(Config{Batch: f.bp, Engine: f.eng, MaxWait: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Shutdown(context.Background()) }()
	rng := rand.New(rand.NewSource(68))
	if _, _, err := s.Submit(context.Background(), testImage(rng, 64)); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(telemetry.Handler(telemetry.Default()))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, family := range []string{
		"cnnhe_serve_queue_depth",
		"cnnhe_serve_batch_fill_ratio",
		"cnnhe_serve_batches_total",
		"cnnhe_serve_requests_total",
		"cnnhe_serve_request_seconds",
		"cnnhe_serve_batch_seconds",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("family %s missing from /metrics", family)
		}
	}
	snap := telemetry.Default().Snapshot()
	if fam, ok := snap.Family("cnnhe_serve_batch_fill_ratio"); !ok || len(fam.Series) == 0 {
		t.Fatal("fill-ratio gauge not registered")
	} else if v := fam.Series[0].Value; v <= 0 || v > 1 {
		t.Fatalf("fill ratio %v outside (0, 1]", v)
	}
}
