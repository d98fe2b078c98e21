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
	"testing"

	"cnnhe/internal/ckks"
	"cnnhe/internal/client"
	"cnnhe/internal/guard"
	"cnnhe/internal/henn"
	"cnnhe/internal/henn/exec"
	"cnnhe/internal/henn/ir"
	"cnnhe/internal/henn/ir/opt"
	"cnnhe/internal/primes"
	"cnnhe/internal/telemetry"
)

// keyedFixture is a running keyed server over the tiny model plus the
// pieces tests need to talk to it.
type keyedFixture struct {
	keyed *Keyed
	srv   *httptest.Server
	cl    *client.Client
	plan  *henn.Plan
	ctx   *ckks.Context
}

func newKeyedFixture(t testing.TB) *keyedFixture {
	return newKeyedFixtureCfg(t, nil)
}

// newKeyedFixtureCfg lets a test adjust the server config (store bounds,
// durable dir) before startup.
func newKeyedFixtureCfg(t testing.TB, mutate func(*KeyedConfig)) *keyedFixture {
	t.Helper()
	m := tinyModel(61)
	plan, err := henn.Compile(m, 512)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ckks.NewParameters(10, []int{40, 30, 30, 30, 30}, 60, 1, math.Exp2(30))
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.CheckDepth(p.MaxLevel()); err != nil {
		t.Fatal(err)
	}
	ctx, err := ckks.NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := KeyedConfig{
		Ctx:     ctx,
		Plan:    plan,
		Model:   "tiny",
		Backend: "ckks-rns",
	}
	if mutate != nil {
		mutate(&cfg)
	}
	k, err := NewKeyed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(k.Close)
	srv := httptest.NewServer(k.Handler())
	t.Cleanup(srv.Close)
	return &keyedFixture{
		keyed: k,
		srv:   srv,
		cl:    client.New(srv.URL),
		plan:  plan,
		ctx:   cfg.Ctx,
	}
}

// clientKeys runs the client-side key ceremony against the fixture's
// /v1/info: reconstruct params, generate a seeded key set, register it.
func (f *keyedFixture) clientKeys(t testing.TB, seed int64) *client.KeySet {
	t.Helper()
	info, err := f.cl.Info(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ks, err := client.GenerateKeys(info, client.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.cl.Register(context.Background(), ks); err != nil {
		t.Fatal(err)
	}
	return ks
}

// TestKeyedEncryptedRoundTrip is the protocol's end-to-end core: keygen
// → register → encrypt → server-side eval under client keys → local
// decrypt, with logits bit-identical to plan.InferCtx on the full
// (secret-holding) engine over the same keys and encryption randomness.
// The route compiles through the plan's own path, so it follows Plan.Opt:
// each leg's served graph is the one InferCtx prepares, and the optimized
// leg's is the smaller.
func TestKeyedEncryptedRoundTrip(t *testing.T) {
	calls := map[string]int{}
	for _, leg := range []struct {
		name string
		opts *opt.Options
	}{{"opt=on", nil}, {"opt=off", opt.Disabled()}} {
		t.Run(leg.name, func(t *testing.T) {
			f := newKeyedFixtureCfg(t, func(cfg *KeyedConfig) { cfg.Plan.Opt = leg.opts })
			ks := f.clientKeys(t, 91)
			img := testImage(rand.New(rand.NewSource(7)), f.plan.InputDim)
			const encSeed = 777

			got, err := f.cl.ClassifyEncrypted(context.Background(), ks, img, f.plan.OutputDim,
				client.WithEncryptionSeed(encSeed))
			if err != nil {
				t.Fatal(err)
			}
			ref := henn.NewRNSEngineFromKeys(ks.Context(), ks.SK, ks.PK, ks.RLK, ks.RTK, encSeed)
			want, _, err := f.plan.InferCtx(context.Background(), ref, img)
			if err != nil {
				t.Fatal(err)
			}
			assertSameLogits(t, "encrypted route", got.Logits, want)

			// A second round trip under the cached per-client engine must agree
			// too (exercises the Entry.Eval reuse path).
			again, err := f.cl.ClassifyEncrypted(context.Background(), ks, img, f.plan.OutputDim,
				client.WithEncryptionSeed(encSeed))
			if err != nil {
				t.Fatal(err)
			}
			assertSameLogits(t, "cached-engine", again.Logits, want)

			res, err := f.plan.OptResult(ref)
			if err != nil {
				t.Fatal(err)
			}
			if st := f.keyed.prep.Graph().Stats(); st.Ops != res.After.Ops || st.EngineCalls != res.After.EngineCalls {
				t.Fatalf("served graph %d ops / %d engine calls, plan compiles %d / %d",
					st.Ops, st.EngineCalls, res.After.Ops, res.After.EngineCalls)
			}
			calls[leg.name] = res.After.EngineCalls
		})
	}
	if calls["opt=on"] >= calls["opt=off"] {
		t.Fatalf("optimized route makes %d engine calls, unoptimized %d", calls["opt=on"], calls["opt=off"])
	}
}

// TestKeyedSpareLevels runs the keyed route on a chain with two spare
// levels under a 40-bit top prime, [40, 30×(depth+1), 40], so lowering
// spends two 30-bit primes on the first linear stage and drops each input
// to them before it. The client still encrypts at MaxLevel, the guard's
// scan and RunEncrypted's input check accept the upload, and the logits are
// bit-identical to plan.InferCtx on the same plan and chain.
func TestKeyedSpareLevels(t *testing.T) {
	f := newKeyedFixtureCfg(t, func(cfg *KeyedConfig) {
		p, err := ckks.NewParameters(10, primes.PaperShape(cfg.Plan.Depth+3, 30), 60, 1, math.Exp2(30))
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Ctx, err = ckks.NewContext(p); err != nil {
			t.Fatal(err)
		}
	})
	top := f.ctx.Params.MaxLevel()
	level0 := top - 1 // the depth's levels plus one more prime for stage 0
	g := f.keyed.prep.Graph()
	drops, stage0 := 0, 0
	for _, op := range g.Ops {
		if !strings.HasPrefix(g.Stages[op.Stage].Name, "stage 0 ") {
			continue
		}
		if op.Kind == ir.OpDropLevel && g.Ops[op.Args[0]].Kind == ir.OpEncrypt && op.Level == level0 {
			drops++
		}
		if op.Kind == ir.OpMulPlain {
			stage0++
			if op.Level != level0 {
				t.Fatalf("stage 0 MulPlain at level %d, want %d", op.Level, level0)
			}
		}
	}
	if drops != g.Inputs || stage0 == 0 {
		t.Fatalf("stage 0 drops %d of %d inputs to level %d (%d MulPlains there)", drops, g.Inputs, level0, stage0)
	}

	ks := f.clientKeys(t, 93)
	info, err := f.cl.Info(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	img := testImage(rand.New(rand.NewSource(8)), f.plan.InputDim)
	const encSeed = 778
	seed := int64(encSeed)
	ct, err := ks.EncryptImage(img, &seed)
	if err != nil {
		t.Fatal(err)
	}
	if info.Levels != top || ct.Level != top {
		t.Fatalf("/v1/info advertises level %d and the client encrypts at %d, want MaxLevel %d", info.Levels, ct.Level, top)
	}
	got, err := f.cl.ClassifyEncrypted(context.Background(), ks, img, f.plan.OutputDim,
		client.WithEncryptionSeed(encSeed))
	if err != nil {
		t.Fatal(err)
	}
	ref := henn.NewRNSEngineFromKeys(ks.Context(), ks.SK, ks.PK, ks.RLK, ks.RTK, encSeed)
	want, _, err := f.plan.InferCtx(context.Background(), ref, img)
	if err != nil {
		t.Fatal(err)
	}
	assertSameLogits(t, "encrypted route", got.Logits, want)
}

// assertSameLogits requires bit-identical logits.
func assertSameLogits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d logits, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s logit %d: %v, local reference %v", label, i, got[i], want[i])
		}
	}
}

// TestNewKeyedRejectsTooDeepPlan: a plan the parameters cannot evaluate
// fails at construction, not with a 500 on every classify.
func TestNewKeyedRejectsTooDeepPlan(t *testing.T) {
	plan, err := henn.Compile(tinyModel(61), 512)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ckks.NewParameters(10, []int{40, 30, 30}, 60, 1, math.Exp2(30))
	if err != nil {
		t.Fatal(err)
	}
	if plan.CheckDepth(p.MaxLevel()) == nil {
		t.Fatalf("fixture: plan depth %d fits %d levels", plan.Depth, p.MaxLevel())
	}
	ctx, err := ckks.NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	if k, err := NewKeyed(KeyedConfig{Ctx: ctx, Plan: plan}); err == nil {
		k.Close()
		t.Fatal("NewKeyed accepted a plan deeper than the modulus chain")
	}
}

func TestKeyedInfo(t *testing.T) {
	f := newKeyedFixture(t)
	info, err := f.cl.Info(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.Model != "tiny" || info.Backend != "ckks-rns" {
		t.Fatalf("model/backend = %q/%q", info.Model, info.Backend)
	}
	if info.InputDim != f.plan.InputDim || info.OutputDim != f.plan.OutputDim {
		t.Fatalf("dims %d/%d, want %d/%d", info.InputDim, info.OutputDim, f.plan.InputDim, f.plan.OutputDim)
	}
	if info.Slots != f.ctx.Params.Slots() || info.Levels != f.ctx.Params.MaxLevel() {
		t.Fatalf("slots/levels %d/%d", info.Slots, info.Levels)
	}
	want := f.plan.Rotations()
	if len(info.Rotations) != len(want) || len(want) == 0 {
		t.Fatalf("advertised %d rotations, plan needs %d", len(info.Rotations), len(want))
	}
	for i := range want {
		if info.Rotations[i] != want[i] {
			t.Fatalf("rotation %d: %d != %d", i, info.Rotations[i], want[i])
		}
	}
	if !info.EncryptedRoute {
		t.Fatal("encrypted route not advertised")
	}
	if info.Params.Fingerprint != f.ctx.Params.Fingerprint() {
		t.Fatal("params fingerprint mismatch")
	}
	// The manifest must be sufficient to rebuild the exact parameters.
	if _, err := client.ParamsFromInfo(info.Params); err != nil {
		t.Fatal(err)
	}
}

func TestKeyedUnknownFingerprint(t *testing.T) {
	f := newKeyedFixture(t)
	req, _ := http.NewRequest(http.MethodPost, f.srv.URL+client.PathClassifyEncrypted,
		strings.NewReader("x"))
	req.Header.Set(client.HeaderKeyFingerprint, "deadbeef")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

func TestKeyedRejectsIncompatibleBundle(t *testing.T) {
	f := newKeyedFixture(t)

	kg := ckks.NewKeyGenerator(f.ctx, 55)
	sk := kg.GenSecretKey()

	post := func(body []byte) int {
		resp, err := http.Post(f.srv.URL+client.PathKeys, client.ContentTypeCKKS,
			bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// Wrong params digest → 409.
	digest := f.ctx.Params.ParamsDigest()
	digest[0] ^= 0xFF
	var buf bytes.Buffer
	if err := f.ctx.WriteKeyBundle(&buf, &ckks.KeyBundle{
		ParamsDigest: digest,
		PK:           kg.GenPublicKey(sk),
		RLK:          kg.GenRelinearizationKey(sk),
		RTK:          kg.GenRotationKeys(sk, f.plan.Rotations(), false),
	}); err != nil {
		t.Fatal(err)
	}
	if code := post(buf.Bytes()); code != http.StatusConflict {
		t.Fatalf("params mismatch: status %d, want 409", code)
	}

	// Rotation keys missing the plan's requirement → 409.
	buf.Reset()
	if err := f.ctx.WriteKeyBundle(&buf, &ckks.KeyBundle{
		ParamsDigest: f.ctx.Params.ParamsDigest(),
		PK:           kg.GenPublicKey(sk),
		RLK:          kg.GenRelinearizationKey(sk),
		RTK:          kg.GenRotationKeys(sk, f.plan.Rotations()[:1], false),
	}); err != nil {
		t.Fatal(err)
	}
	if code := post(buf.Bytes()); code != http.StatusConflict {
		t.Fatalf("missing rotations: status %d, want 409", code)
	}

	// Truncated frame → 400.
	if code := post(buf.Bytes()[:buf.Len()/2]); code != http.StatusBadRequest {
		t.Fatalf("truncated bundle: status %d, want 400", code)
	}
}

// TestKeyedRejectsShortSwitchingKey: a bundle whose relinearization key
// carries one digit fewer than the chain has moduli is refused at
// registration with a 400, instead of registering and failing inside
// the first encrypted evaluation.
func TestKeyedRejectsShortSwitchingKey(t *testing.T) {
	f := newKeyedFixture(t)
	kg := ckks.NewKeyGenerator(f.ctx, 56)
	sk := kg.GenSecretKey()
	rlk := kg.GenRelinearizationKey(sk)
	rlk.B, rlk.A = rlk.B[1:], rlk.A[1:]
	var buf bytes.Buffer
	if err := f.ctx.WriteKeyBundle(&buf, &ckks.KeyBundle{
		ParamsDigest: f.ctx.Params.ParamsDigest(),
		PK:           kg.GenPublicKey(sk),
		RLK:          rlk,
		RTK:          kg.GenRotationKeys(sk, f.plan.Rotations(), false),
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(f.srv.URL+client.PathKeys, client.ContentTypeCKKS, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short switching key: status %d, want 400", resp.StatusCode)
	}
}

func TestKeyedOversizeBodies(t *testing.T) {
	f := newKeyedFixture(t)
	ks := f.clientKeys(t, 92)
	fp, err := ks.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}

	big := make([]byte, int(f.keyed.bundleLimit)+1)
	resp, err := http.Post(f.srv.URL+client.PathKeys, client.ContentTypeCKKS,
		bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize bundle: status %d, want 413", resp.StatusCode)
	}

	big = make([]byte, int(f.keyed.ctLimit)+1)
	req, _ := http.NewRequest(http.MethodPost, f.srv.URL+client.PathClassifyEncrypted,
		bytes.NewReader(big))
	req.Header.Set(client.HeaderKeyFingerprint, fp)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize ciphertext: status %d, want 413", resp.StatusCode)
	}
}

func TestKeyedRejectsGarbageCiphertext(t *testing.T) {
	f := newKeyedFixture(t)
	ks := f.clientKeys(t, 93)
	fp, err := ks.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	garbage := testImageBytes(94, 4096)
	req, _ := http.NewRequest(http.MethodPost, f.srv.URL+client.PathClassifyEncrypted,
		bytes.NewReader(garbage))
	req.Header.Set(client.HeaderKeyFingerprint, fp)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage ciphertext: status %d, want 400", resp.StatusCode)
	}
}

// TestKeyedRejectsMismatchedCiphertext: a well-formed upload that is not
// a fresh encryption at the graph's (level, scale) — another scale, or a
// level dropped — is refused as 400 bad_ciphertext before any
// homomorphic op runs, naming the input. So is one holding a word ≥ q_i
// under a valid checksum, which the wire decoder does not range-check:
// RunEncrypted runs the guard's scan on every input, naming its encrypt
// op.
func TestKeyedRejectsMismatchedCiphertext(t *testing.T) {
	f := newKeyedFixture(t)
	ks := f.clientKeys(t, 95)
	fp, err := ks.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	ev := ckks.NewEvaluator(ks.Context(), nil, nil)
	scale := ks.Params.Scale
	mismatch := []string{exec.ErrInputMismatch.Error(), "input 0"}
	for _, tc := range []struct {
		name   string
		mutate func(ct *ckks.Ciphertext) *ckks.Ciphertext
		want   []string // substrings of the error body
	}{
		{"double scale", func(ct *ckks.Ciphertext) *ckks.Ciphertext { ct.Scale = 2 * scale; return ct }, mismatch},
		{"scale 20 bits short", func(ct *ckks.Ciphertext) *ckks.Ciphertext { ct.Scale = scale / (1 << 20); return ct }, mismatch},
		{"scale off by 1e-3", func(ct *ckks.Ciphertext) *ckks.Ciphertext { ct.Scale = scale * (1 + 1e-3); return ct }, mismatch},
		{"one level down", func(ct *ckks.Ciphertext) *ckks.Ciphertext { return ev.DropLevel(ct, 1) }, mismatch},
		{"word out of range", func(ct *ckks.Ciphertext) *ckks.Ciphertext { ct.C0.Coeffs[1][7] = ^uint64(0); return ct },
			[]string{guard.ErrCorruptCiphertext.Error(), " (Encrypt): "}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ct, err := ks.EncryptImage(testImage(rand.New(rand.NewSource(96)), f.plan.InputDim), nil)
			if err != nil {
				t.Fatal(err)
			}
			var body bytes.Buffer
			if err := ks.Context().WriteCiphertext(&body, tc.mutate(ct)); err != nil {
				t.Fatal(err)
			}
			req, _ := http.NewRequest(http.MethodPost, f.srv.URL+client.PathClassifyEncrypted, &body)
			req.Header.Set(client.HeaderKeyFingerprint, fp)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var eb errorBody
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, error %q; want 400", resp.StatusCode, eb.Error)
			}
			for _, w := range tc.want {
				if !strings.Contains(eb.Error, w) {
					t.Fatalf("error %q does not name %q", eb.Error, w)
				}
			}
			for _, s := range telemetry.Flight().Snapshot() {
				if s.TraceID != eb.TraceID {
					continue
				}
				if s.Outcome != "bad_ciphertext" || len(s.TopOps) != 0 {
					t.Fatalf("flight entry: outcome %q after %d op kinds ran; want bad_ciphertext before any op", s.Outcome, len(s.TopOps))
				}
				return
			}
			t.Fatalf("no flight entry for trace %s", eb.TraceID)
		})
	}
}

// TestKeyedClientSelfHealsEviction: when the server forgets a client's
// bundle (LRU eviction here; a restart without the durable store in
// production), the SDK re-registers the bundle it already holds and
// replays the classification — no error surfaces and no keygen reruns.
func TestKeyedClientSelfHealsEviction(t *testing.T) {
	f := newKeyedFixtureCfg(t, func(cfg *KeyedConfig) { cfg.MaxClients = 1 })
	ksA := f.clientKeys(t, 96)
	img := testImage(rand.New(rand.NewSource(11)), f.plan.InputDim)
	const encSeed = 779
	first, err := f.cl.ClassifyEncrypted(context.Background(), ksA, img, f.plan.OutputDim,
		client.WithEncryptionSeed(encSeed))
	if err != nil {
		t.Fatal(err)
	}

	// A second client's registration evicts A from the 1-entry store.
	f.clientKeys(t, 97)
	fpA, err := ksA.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.keyed.Store().Get(fpA); err == nil {
		t.Fatal("bundle A still resident — eviction fixture broken")
	}

	// The same call transparently re-registers and succeeds, with the
	// same logits (same keys, same encryption randomness).
	healed, err := f.cl.ClassifyEncrypted(context.Background(), ksA, img, f.plan.OutputDim,
		client.WithEncryptionSeed(encSeed))
	if err != nil {
		t.Fatalf("self-heal round trip: %v", err)
	}
	for i := range first.Logits {
		if healed.Logits[i] != first.Logits[i] {
			t.Fatalf("logit %d drifted across self-heal: %v != %v", i, healed.Logits[i], first.Logits[i])
		}
	}
	if _, err := f.keyed.Store().Get(fpA); err != nil {
		t.Fatalf("bundle A not re-registered: %v", err)
	}
}

// testImageBytes is deterministic junk for framing-rejection tests.
func testImageBytes(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// TestKeyedPathHoldsNoSecretKey pins the privacy invariant: the engine
// the encrypted route evaluates on is the eval-only type, whose secret
// operations are unreachable (they panic), and it is built exclusively
// from wire-registered key material.
func TestKeyedPathHoldsNoSecretKey(t *testing.T) {
	f := newKeyedFixture(t)
	ks := f.clientKeys(t, 95)
	img := testImage(rand.New(rand.NewSource(9)), f.plan.InputDim)
	if _, err := f.cl.ClassifyEncrypted(context.Background(), ks, img, f.plan.OutputDim); err != nil {
		t.Fatal(err)
	}
	fp, err := ks.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	entry, err := f.keyed.Store().Get(fp)
	if err != nil {
		t.Fatal(err)
	}
	entry.Mu.Lock()
	defer entry.Mu.Unlock()
	ev, ok := entry.Eval.(*keyedEval)
	if !ok {
		t.Fatalf("entry eval state is %T", entry.Eval)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("DecryptVec on the keyed path did not panic")
		}
	}()
	ev.g.DecryptVec(nil)
}

// TestClassifyBodyLimit413 pins the plaintext route's plan-sized body
// cap: an oversize JSON body gets a 413, not a generic decode error.
func TestClassifyBodyLimit413(t *testing.T) {
	f := newFixture(t, 2)
	s, err := New(Config{Batch: f.bp, Engine: f.eng})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Shutdown(context.Background()) }()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := make([]byte, int(s.classifyBodyLimit())+1)
	for i := range body {
		body[i] = ' '
	}
	body[0] = '{'
	resp, err := http.Post(ts.URL+"/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

// TestClientFault: an encrypted-evaluation failure is the client's — 400
// bad_ciphertext — when the guard's scan, the input check or the graph
// check refused its ciphertext or one made from it, wherever the
// executor wraps the cause. An engine panic is the server's (500 error):
// a registered bundle holds every rotation the graph needs.
func TestClientFault(t *testing.T) {
	wrapped := func(err error) error { return fmt.Errorf("henn: stage 1 (act): op 9 (MulRelin): %w", err) }
	for _, tc := range []struct {
		err  error
		want string
	}{
		{wrapped(fmt.Errorf("%w: c0 limb 1 coeff 7", guard.ErrCorruptCiphertext)), "bad_ciphertext"},
		{wrapped(fmt.Errorf("%w: c1 limb 0 absent", guard.ErrResidueMissing)), "bad_ciphertext"},
		{wrapped(fmt.Errorf("%w: left scale 2^61", ir.ErrScaleDrift)), "bad_ciphertext"},
		{wrapped(fmt.Errorf("%w: left level 2", ir.ErrLevelExhausted)), "bad_ciphertext"},
		{fmt.Errorf("henn: encrypt: %w: input 0 at level 3", exec.ErrInputMismatch), "bad_ciphertext"},
		{wrapped(fmt.Errorf("%w: ckks: missing rotation key for galois element 5", exec.ErrEnginePanic)), "error"},
		{wrapped(context.DeadlineExceeded), "timeout"},
		{errors.New("henn: stage 0: cannot execute op"), "error"},
	} {
		if got := evalOutcome(tc.err); got != tc.want {
			t.Errorf("evalOutcome(%v) = %q, want %q", tc.err, got, tc.want)
		}
		if got := clientFault(tc.err); got != (tc.want == "bad_ciphertext") {
			t.Errorf("clientFault(%v) = %v", tc.err, got)
		}
	}
}
