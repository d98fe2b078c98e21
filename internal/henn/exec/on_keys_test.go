package exec_test

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"cnnhe/internal/ckks"
	"cnnhe/internal/guard"
	"cnnhe/internal/henn"
	"cnnhe/internal/henn/exec"
	"cnnhe/internal/henn/ir"
	"cnnhe/internal/nn"
)

// keyedFixture is the keyed route's shared state for a small dense SLAF
// model drawn from seed: the plan, the CKKS context, the plan's graph
// prepared once against a key-less guarded eval engine, and an image.
func keyedFixture(t *testing.T, seed int64) (*henn.Plan, *ckks.Context, *exec.Prepared, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := (&nn.Model{Layers: []nn.Layer{nn.NewDense(rng, 64, 16), nn.NewReLU(), nn.NewDense(rng, 16, 4)}}).ReplaceReLUWithSLAF(3, 1)
	for _, l := range m.Layers {
		if s, ok := l.(*nn.SLAF); ok {
			s.FitReLU(3)
		}
	}
	plan, err := henn.Compile(m, 512)
	if err != nil {
		t.Fatal(err)
	}
	params, err := ckks.NewParameters(10, []int{40, 30, 30, 30, 30}, 60, 1, math.Exp2(30))
	if err != nil {
		t.Fatal(err)
	}
	cctx, err := ckks.NewContext(params)
	if err != nil {
		t.Fatal(err)
	}
	shared, _, err := plan.Prepare(guard.New(henn.NewRNSEvalEngine(cctx, nil, nil), guard.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	img := make([]float64, plan.InputDim)
	for i := range img {
		img[i] = float64(rng.Intn(256))
	}
	return plan, cctx, shared, img
}

// TestOnTwoKeySetsConcurrently is the keyed route's sharing contract on
// real CKKS: one graph prepared against a key-less guarded eval engine,
// rebound to two clients' key sets, evaluated concurrently (run under
// -race). Both copies use the original's plaintext handles, and each
// copy's logits are bit-identical to plan.InferCtx on the full engine
// over its own keys and encryption randomness.
func TestOnTwoKeySetsConcurrently(t *testing.T) {
	plan, cctx, shared, img := keyedFixture(t, 5)
	parts, err := plan.Input.Split(img)
	if err != nil {
		t.Fatal(err)
	}

	type client struct {
		full *henn.RNSEngine
		prep *exec.Prepared
		in   ir.Ct
		want henn.Logits
		got  []float64
		err  error
	}
	clients := make([]*client, 2)
	for i := range clients {
		kg := ckks.NewKeyGenerator(cctx, int64(80+i))
		sk := kg.GenSecretKey()
		pk, rlk := kg.GenPublicKey(sk), kg.GenRelinearizationKey(sk)
		rtk := kg.GenRotationKeys(sk, plan.Rotations(), false)
		encSeed := int64(900 + i)
		c := &client{full: henn.NewRNSEngineFromKeys(cctx, sk, pk, rlk, rtk, encSeed)}
		if c.want, _, err = plan.InferCtx(context.Background(), c.full, img); err != nil {
			t.Fatal(err)
		}
		g := guard.New(henn.NewRNSEvalEngine(cctx, rlk, rtk), guard.DefaultConfig())
		if c.prep, err = shared.On(g); err != nil {
			t.Fatal(err)
		}
		// The client encrypts exactly as the reference did.
		enc := henn.NewRNSEngineFromKeys(cctx, sk, pk, rlk, rtk, encSeed)
		c.in = enc.EncryptVec(parts[0])
		clients[i] = c
	}
	if clients[0].want[0] == clients[1].want[0] {
		t.Fatal("fixture: both key sets give the same reference logit")
	}

	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := c.prep.RunEncrypted(context.Background(), []ir.Ct{c.in}, exec.Options{})
			if c.err = err; err == nil {
				c.got = c.full.DecryptVec(guard.Underlying(res.Out))[:plan.OutputDim]
			}
		}()
	}
	wg.Wait()

	base := exec.Plaintexts(shared)
	for i, c := range clients {
		if c.err != nil {
			t.Fatalf("client %d: %v", i, c.err)
		}
		for j := range c.want {
			if c.got[j] != c.want[j] {
				t.Fatalf("client %d logit %d: rebound %v, reference %v", i, j, c.got[j], c.want[j])
			}
		}
		pts, shares := exec.Plaintexts(c.prep), 0
		for j := range base {
			if pts[j] != base[j] {
				t.Fatalf("client %d: op %d plaintext handle is not the shared one", i, j)
			}
			if base[j] != nil {
				shares++
			}
		}
		if shares == 0 {
			t.Fatal("fixture: the graph has no plaintext operands")
		}
	}
}

// TestEvalEngineRunAllocatesLikeFullEngine: the keyed route's guarded
// eval-only engine runs the fused linear-stage calls itself, so one
// prepared graph evaluated on it allocates about what the same graph
// allocates on a guarded full engine over the same keys, and ends on the
// same bits. Unrolling each fused call into its MulPlainPt + MulInt/Add
// chain allocates a fresh ciphertext per product and per addition, several
// times the full engine's total. Each leg is measured on one processor:
// with two, a leg's fewest bytes over three runs move by ≈49 kB from one
// test run to the next on a ≈199 kB total (the ring's limb free lists
// are per-processor sync.Pools), enough to cross the 1.25 bound; on one,
// both legs read the same bytes on every run.
func TestEvalEngineRunAllocatesLikeFullEngine(t *testing.T) {
	plan, cctx, shared, img := keyedFixture(t, 7)
	kg := ckks.NewKeyGenerator(cctx, 31)
	sk := kg.GenSecretKey()
	pk, rlk := kg.GenPublicKey(sk), kg.GenRelinearizationKey(sk)
	rtk := kg.GenRotationKeys(sk, plan.Rotations(), false)
	full := henn.NewRNSEngineFromKeys(cctx, sk, pk, rlk, rtk, 32)
	parts, err := plan.Input.Split(img)
	if err != nil {
		t.Fatal(err)
	}
	in := full.EncryptVec(parts[0])

	// run evaluates the shared graph on a guard over e and returns the
	// decrypted output and the fewest bytes allocated over three runs.
	run := func(e henn.Engine) ([]float64, uint64) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		g := guard.New(e, guard.DefaultConfig())
		prep, err := shared.On(g)
		if err != nil {
			t.Fatal(err)
		}
		var out []float64
		least := uint64(math.MaxUint64)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			res, err := prep.RunEncrypted(context.Background(), []ir.Ct{in}, exec.Options{})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
			out = full.DecryptVec(guard.Underlying(res.Out))
		}
		return out, least
	}
	evalOut, evalAlloc := run(henn.NewRNSEvalEngine(cctx, rlk, rtk))
	fullOut, fullAlloc := run(full)
	for i := range fullOut {
		if math.Float64bits(evalOut[i]) != math.Float64bits(fullOut[i]) {
			t.Fatalf("slot %d: eval engine %v, full engine %v", i, evalOut[i], fullOut[i])
		}
	}
	t.Logf("allocated per run: eval engine %d B, full engine %d B", evalAlloc, fullAlloc)
	if float64(evalAlloc) > 1.25*float64(fullAlloc) {
		t.Fatalf("eval engine run allocated %d B, more than 1.25× the full engine's %d B", evalAlloc, fullAlloc)
	}
}
