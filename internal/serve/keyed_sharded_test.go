package serve

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"cnnhe/internal/ckks"
	"cnnhe/internal/client"
	"cnnhe/internal/henn"
	"cnnhe/internal/henn/ir/opt"
	"cnnhe/internal/nn"
	"cnnhe/internal/tensor"
)

// shardedFixture is a keyed server over a cross-shard dense model whose
// input (1200) exceeds the slot count (512), so every classify request
// carries three ciphertext frames.
type shardedFixture struct {
	keyed *Keyed
	srv   *httptest.Server
	cl    *client.Client
	sp    *henn.Plan
	ctx   *ckks.Context
}

func newShardedFixture(t testing.TB, o *opt.Options) *shardedFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	m := &nn.Model{Layers: []nn.Layer{nn.NewDense(rng, 1200, 7)}}
	sp, err := henn.CompileShardedAuto(m, 512)
	if err != nil {
		t.Fatal(err)
	}
	if sp.NumShards() != 3 {
		t.Fatalf("auto grid: %d shards, want 3", sp.NumShards())
	}
	sp.Opt = o
	p, err := ckks.NewParameters(10, []int{40, 30, 30}, 60, 1, math.Exp2(30))
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.CheckDepth(p.MaxLevel()); err != nil {
		t.Fatal(err)
	}
	ctx, err := ckks.NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	k, err := NewKeyed(KeyedConfig{
		Ctx:     ctx,
		Plan:    sp,
		Model:   "shardeddense",
		Backend: "ckks-rns",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(k.Close)
	srv := httptest.NewServer(k.Handler())
	t.Cleanup(srv.Close)
	return &shardedFixture{keyed: k, srv: srv, cl: client.New(srv.URL), sp: sp, ctx: ctx}
}

func (f *shardedFixture) clientKeys(t testing.TB, seed int64) (*client.KeySet, *client.InfoResponse) {
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
	return ks, info
}

// TestKeyedShardedInfoAdvertisesManifest pins the /v1/info extension: a
// sharded plan advertises its shard count and a decodable input manifest
// that splits images into exactly the server's expected frame set.
func TestKeyedShardedInfoAdvertisesManifest(t *testing.T) {
	f := newShardedFixture(t, nil)
	info, err := f.cl.Info(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.Shards != 3 {
		t.Fatalf("info.Shards = %d, want 3", info.Shards)
	}
	man, err := info.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if man.NumShards() != 3 || man.Slots != f.ctx.Params.Slots() {
		t.Fatalf("manifest %v", man)
	}
	if man.Shape != f.sp.Input.Shape || man.Grid != f.sp.Input.Grid {
		t.Fatalf("manifest %v != plan input %v", man, f.sp.Input)
	}
	if info.InputDim != f.sp.InputDim || info.OutputDim != f.sp.OutputDim {
		t.Fatalf("dims %d/%d", info.InputDim, info.OutputDim)
	}
	if len(info.Rotations) == 0 {
		t.Fatal("no rotations advertised — cross-shard blocks need them")
	}
}

// TestKeyedShardedRoundTrip is the sharded protocol end to end: the
// client splits the image by the advertised manifest, ships one
// ciphertext frame per shard, and the decrypted logits are bit-identical
// to the same sharded plan's InferCtx under the same keys and encryption
// randomness, optimized or not.
func TestKeyedShardedRoundTrip(t *testing.T) {
	for _, leg := range []struct {
		name string
		opts *opt.Options
	}{{"opt=on", nil}, {"opt=off", opt.Disabled()}} {
		t.Run(leg.name, func(t *testing.T) { testKeyedShardedRoundTrip(t, newShardedFixture(t, leg.opts)) })
	}
}

func testKeyedShardedRoundTrip(t *testing.T, f *shardedFixture) {
	ks, info := f.clientKeys(t, 98)
	man, err := info.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	img := testImage(rand.New(rand.NewSource(13)), f.sp.InputDim)
	const encSeed = 881

	got, err := f.cl.ClassifyEncrypted(context.Background(), ks, img, f.sp.OutputDim,
		client.WithEncryptionSeed(encSeed), client.WithShardManifest(man))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Logits) != f.sp.OutputDim {
		t.Fatalf("got %d logits, want %d", len(got.Logits), f.sp.OutputDim)
	}

	// Reference: identical computation locally with the same key material
	// and encryption randomness.
	ref := henn.NewRNSEngineFromKeys(ks.Context(), ks.SK, ks.PK, ks.RLK, ks.RTK, encSeed)
	want, _, err := f.sp.InferCtx(context.Background(), ref, img)
	if err != nil {
		t.Fatal(err)
	}
	assertSameLogits(t, "encrypted route", got.Logits, want)

	// Sanity beyond bit-identity: the encrypted logits track the
	// plaintext matrix product.
	plain := nnForwardDense(t, img)
	for i := range want {
		if math.Abs(got.Logits[i]-plain[i]) > 1e-3 {
			t.Fatalf("logit %d: encrypted %v vs plaintext %v", i, got.Logits[i], plain[i])
		}
	}
}

// nnForwardDense recomputes the fixture model's plaintext forward pass
// on normalized pixels, mirroring the encrypted pipeline's scaling.
func nnForwardDense(t testing.TB, img []float64) []float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	m := &nn.Model{Layers: []nn.Layer{nn.NewDense(rng, 1200, 7)}}
	x := tensor.New(1, 1, len(img))
	for i := range img {
		x.Data[i] = img[i] / 255
	}
	return m.Forward(x).Data
}

// TestKeyedShardedRejectsWrongFrameCount pins the framing contract: a
// body with bytes past the expected frame set is a 400, not a silent
// truncation. (A whole extra frame trips the 413 size cap even earlier.)
func TestKeyedShardedRejectsWrongFrameCount(t *testing.T) {
	f := newShardedFixture(t, nil)
	ks, info := f.clientKeys(t, 99)
	man, err := info.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	fp, err := ks.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	img := testImage(rand.New(rand.NewSource(17)), f.sp.InputDim)
	seed := int64(883)
	cts, err := ks.EncryptImageShards(man, img, &seed)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	for _, ct := range cts {
		if err := ks.Context().WriteCiphertext(&body, ct); err != nil {
			t.Fatal(err)
		}
	}
	body.Write([]byte("trailing junk after the last frame"))
	req, _ := http.NewRequest(http.MethodPost, f.srv.URL+client.PathClassifyEncrypted, &body)
	req.Header.Set(client.HeaderKeyFingerprint, fp)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 for trailing frames", resp.StatusCode)
	}
}
