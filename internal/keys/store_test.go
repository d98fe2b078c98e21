package keys

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"cnnhe/internal/ckks"
	"cnnhe/internal/telemetry"
)

// bundleFixture builds a serialized bundle over TinyParameters covering
// the given rotations, under a fresh key set per seed.
func bundleFixture(t *testing.T, ctx *ckks.Context, seed int64, rotations []int) []byte {
	t.Helper()
	kg := ckks.NewKeyGenerator(ctx, seed)
	sk := kg.GenSecretKey()
	b := &ckks.KeyBundle{
		ParamsDigest: ctx.Params.ParamsDigest(),
		PK:           kg.GenPublicKey(sk),
		RLK:          kg.GenRelinearizationKey(sk),
		RTK:          kg.GenRotationKeys(sk, rotations, false),
	}
	var buf bytes.Buffer
	if err := ctx.WriteKeyBundle(&buf, b); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func testCtx(t *testing.T) *ckks.Context {
	t.Helper()
	p, err := ckks.TinyParameters()
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := ckks.NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

func TestRegisterAndGet(t *testing.T) {
	ctx := testCtx(t)
	s, err := NewStore(Config{Ctx: ctx, RequiredRotations: []int{1, 2, 0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	data := bundleFixture(t, ctx, 10, []int{1, 2})
	e, err := s.Register(data)
	if err != nil {
		t.Fatal(err)
	}
	if e.Fingerprint != ckks.BundleFingerprint(data) {
		t.Fatal("entry fingerprint is not the content address")
	}
	if e.Size != len(data) {
		t.Fatalf("size %d, want %d", e.Size, len(data))
	}
	got, err := s.Get(e.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if got != e {
		t.Fatal("Get returned a different entry")
	}
	// Idempotent re-registration returns the same entry.
	again, err := s.Register(data)
	if err != nil {
		t.Fatal(err)
	}
	if again != e {
		t.Fatal("re-registration created a new entry")
	}
	if s.Len() != 1 {
		t.Fatalf("store has %d entries, want 1", s.Len())
	}
}

func TestGetUnknown(t *testing.T) {
	ctx := testCtx(t)
	s, err := NewStore(Config{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("deadbeef"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestRegisterRejectsMalformed(t *testing.T) {
	ctx := testCtx(t)
	s, err := NewStore(Config{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	data := bundleFixture(t, ctx, 11, []int{1})
	truncated := data[:len(data)/2]
	if _, err := s.Register(truncated); !errors.Is(err, ckks.ErrFormat) && !errors.Is(err, ckks.ErrChecksum) {
		t.Fatalf("want typed decode error, got %v", err)
	}
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/3] ^= 0x40
	if _, err := s.Register(flipped); !errors.Is(err, ckks.ErrFormat) && !errors.Is(err, ckks.ErrChecksum) {
		t.Fatalf("want typed decode error, got %v", err)
	}
	if s.Len() != 0 {
		t.Fatal("rejected bundles were stored")
	}
}

func TestRegisterRejectsParamsMismatch(t *testing.T) {
	ctx := testCtx(t)
	s, err := NewStore(Config{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	// Same ring, different advertised digest: flip a digest byte in a
	// freshly built bundle.
	kg := ckks.NewKeyGenerator(ctx, 12)
	sk := kg.GenSecretKey()
	digest := ctx.Params.ParamsDigest()
	digest[0] ^= 0xFF
	var buf bytes.Buffer
	if err := ctx.WriteKeyBundle(&buf, &ckks.KeyBundle{
		ParamsDigest: digest,
		PK:           kg.GenPublicKey(sk),
		RLK:          kg.GenRelinearizationKey(sk),
		RTK:          kg.GenRotationKeys(sk, []int{1}, false),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register(buf.Bytes()); !errors.Is(err, ErrParamsMismatch) {
		t.Fatalf("want ErrParamsMismatch, got %v", err)
	}
}

func TestRegisterRejectsMissingRotations(t *testing.T) {
	ctx := testCtx(t)
	s, err := NewStore(Config{Ctx: ctx, RequiredRotations: []int{1, 4}})
	if err != nil {
		t.Fatal(err)
	}
	data := bundleFixture(t, ctx, 13, []int{1}) // missing rotation 4
	if _, err := s.Register(data); !errors.Is(err, ErrMissingRotations) {
		t.Fatalf("want ErrMissingRotations, got %v", err)
	}
	// A superset of the requirement is fine.
	if _, err := s.Register(bundleFixture(t, ctx, 13, []int{1, 4, 8})); err != nil {
		t.Fatal(err)
	}
}

func TestLRUEviction(t *testing.T) {
	ctx := testCtx(t)
	s, err := NewStore(Config{Ctx: ctx, MaxEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Register(bundleFixture(t, ctx, 20, nil))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Register(bundleFixture(t, ctx, 21, nil))
	if err != nil {
		t.Fatal(err)
	}
	// Touch a so b is the LRU victim.
	if _, err := s.Get(a.Fingerprint); err != nil {
		t.Fatal(err)
	}
	c, err := s.Register(bundleFixture(t, ctx, 22, nil))
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("store has %d entries, want 2", s.Len())
	}
	if _, err := s.Get(b.Fingerprint); !errors.Is(err, ErrNotFound) {
		t.Fatalf("LRU victim still present: %v", err)
	}
	for _, e := range []*Entry{a, c} {
		if _, err := s.Get(e.Fingerprint); err != nil {
			t.Fatalf("survivor %s evicted: %v", e.Fingerprint[:8], err)
		}
	}
}

func TestTTLExpiry(t *testing.T) {
	ctx := testCtx(t)
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	s, err := NewStore(Config{Ctx: ctx, TTL: time.Minute, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	e, err := s.Register(bundleFixture(t, ctx, 30, nil))
	if err != nil {
		t.Fatal(err)
	}
	now = now.Add(30 * time.Second)
	if _, err := s.Get(e.Fingerprint); err != nil {
		t.Fatalf("entry expired early: %v", err)
	}
	// The Get refreshed last-use; expire from there.
	now = now.Add(61 * time.Second)
	if _, err := s.Get(e.Fingerprint); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound after TTL, got %v", err)
	}
	// Re-registration of the same bytes revives the fingerprint.
	if _, err := s.Register(bundleFixture(t, ctx, 30, nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(e.Fingerprint); err != nil {
		t.Fatalf("revived entry not found: %v", err)
	}
}

// TestStoreConcurrentRegisterEvictLookup hammers the store from many
// goroutines under -race: concurrent registrations of a small bundle
// population over a tight capacity bound (constant LRU churn), lookups
// that borrow the per-entry eval slot under Entry.Mu, and a TTL so
// short that expiry races the borrows. The store must stay within its
// bound and every borrowed entry must keep a coherent eval slot even
// after the store has forgotten it.
func TestStoreConcurrentRegisterEvictLookup(t *testing.T) {
	ctx := testCtx(t)
	const variants = 5
	bundles := make([][]byte, variants)
	fps := make([]string, variants)
	for i := range bundles {
		bundles[i] = bundleFixture(t, ctx, 100+int64(i), []int{1})
		fps[i] = ckks.BundleFingerprint(bundles[i])
	}
	s, err := NewStore(Config{
		Ctx:               ctx,
		RequiredRotations: []int{1},
		MaxEntries:        2,
		TTL:               2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const iters = 200
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				k := rng.Intn(variants)
				switch rng.Intn(3) {
				case 0:
					if _, err := s.Register(bundles[k]); err != nil {
						t.Errorf("register %d: %v", k, err)
						return
					}
				case 1:
					e, err := s.Get(fps[k])
					if err != nil {
						if !errors.Is(err, ErrNotFound) {
							t.Errorf("get %d: %v", k, err)
							return
						}
						continue
					}
					// Borrow the cached-engine slot the way serve.Keyed
					// does: build on first use, reuse after, all under
					// Entry.Mu — racing TTL expiry of the same entry.
					e.Mu.Lock()
					if e.Eval == nil {
						e.Eval = fps[k]
					} else if e.Eval.(string) != fps[k] {
						t.Errorf("entry %d borrowed a foreign eval slot", k)
					}
					e.Mu.Unlock()
					if i%16 == 0 {
						time.Sleep(3 * time.Millisecond) // let TTL cross a borrow window
					}
				default:
					s.Len()
				}
			}
		}(w)
	}
	wg.Wait()
	if n := s.Len(); n > 2 {
		t.Fatalf("store exceeded its bound: %d entries", n)
	}
}

func TestRequiredGaloisElements(t *testing.T) {
	ctx := testCtx(t)
	s, err := NewStore(Config{Ctx: ctx, RequiredRotations: []int{3, 1, 1, 0, -1}})
	if err != nil {
		t.Fatal(err)
	}
	els := s.RequiredGaloisElements()
	if len(els) != 3 {
		t.Fatalf("got %d galois elements, want 3 (dedup, no zero)", len(els))
	}
	for i := 1; i < len(els); i++ {
		if els[i-1] >= els[i] {
			t.Fatal("galois elements not sorted")
		}
	}
}

// rejections reads the cnnhe_keys_rejected_total series by reason.
func rejections(reason string) float64 {
	f, ok := telemetry.Default().Snapshot().Family("cnnhe_keys_rejected_total")
	if !ok {
		return 0
	}
	for _, s := range f.Series {
		if s.Label("reason") == reason {
			return s.Value
		}
	}
	return 0
}

// TestRegisterForeignChainIsParamsMismatch: a bundle generated under
// another moduli chain is a parameter mismatch (reason "params"), not a
// malformed frame — the digest is compared before the key bodies, whose
// shape the other chain fixes, are parsed.
func TestRegisterForeignChainIsParamsMismatch(t *testing.T) {
	telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(false)
	p, err := ckks.NewParameters(10, []int{40, 30, 30, 30, 30}, 60, 1, math.Exp2(30))
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := ckks.NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	short, err := ckks.NewParameters(10, []int{40, 30, 30}, 60, 1, math.Exp2(30))
	if err != nil {
		t.Fatal(err)
	}
	shortCtx, err := ckks.NewContext(short)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStore(Config{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	params, format := rejections("params"), rejections("format")
	if _, err := s.Register(bundleFixture(t, shortCtx, 14, []int{1})); !errors.Is(err, ErrParamsMismatch) || errors.Is(err, ckks.ErrFormat) {
		t.Fatalf("want ErrParamsMismatch (not ErrFormat), got %v", err)
	}
	if got := rejections("params") - params; got != 1 {
		t.Errorf("params rejections grew by %v, want 1", got)
	}
	if got := rejections("format") - format; got != 0 {
		t.Errorf("format rejections grew by %v, want 0", got)
	}
}
