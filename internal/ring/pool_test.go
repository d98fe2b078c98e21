package ring

import (
	"math/big"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"cnnhe/internal/primes"
)

// Pool suite: correctness of the persistent worker pool itself, plus a
// concurrency hammer that mirrors heserve's batcher — many goroutines
// issuing overlapping ring ops on a shared parallel ring. Run under
// `go test -race` (the Makefile's test-race target does) to prove the
// revived limb-parallel path is data-race-free and deterministic.

func TestPoolRunCoversAllIndices(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16, 97, 1000} {
		hits := make([]atomic.Int32, n)
		pool().Run(n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d executed %d times, want exactly 1", n, i, got)
			}
		}
	}
}

// TestPoolNestedRun proves a Run issued from inside a Run callback cannot
// deadlock: the submitting goroutine always participates in draining its
// own job, so progress never depends on a free worker. The henn executor's
// parallel scheduler nests exactly like this.
func TestPoolNestedRun(t *testing.T) {
	outer := 2 * poolWorkers()
	inner := 2 * poolWorkers()
	var total atomic.Int64
	pool().Run(outer, func(i int) {
		pool().Run(inner, func(j int) { total.Add(1) })
	})
	if got := total.Load(); got != int64(outer*inner) {
		t.Fatalf("nested Run executed %d tasks, want %d", got, outer*inner)
	}
}

func TestParallelRangeGrainCoverage(t *testing.T) {
	for _, tc := range []struct{ n, grain int }{
		{0, 64}, {1, 64}, {63, 64}, {64, 64}, {65, 64}, {1000, 1}, {1000, 4096},
	} {
		hits := make([]atomic.Int32, tc.n)
		var mu sync.Mutex
		spans := 0
		ParallelRangeGrain(true, tc.n, tc.grain, func(lo, hi int) {
			if lo < 0 || hi > tc.n || lo >= hi {
				t.Errorf("n=%d grain=%d: bad span [%d,%d)", tc.n, tc.grain, lo, hi)
				return
			}
			for i := lo; i < hi; i++ {
				hits[i].Add(1)
			}
			mu.Lock()
			spans++
			mu.Unlock()
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("n=%d grain=%d: index %d covered %d times", tc.n, tc.grain, i, got)
			}
		}
		// Serial path must agree on coverage too.
		serial := make([]bool, tc.n)
		ParallelRangeGrain(false, tc.n, tc.grain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				serial[i] = true
			}
		})
		for i, ok := range serial {
			if !ok {
				t.Fatalf("n=%d grain=%d serial: index %d not covered", tc.n, tc.grain, i)
			}
		}
	}
}

// hammerRing builds a mid-size ring with both word and wide limbs so the
// hammer exercises both backends through the pool.
func hammerRing(t *testing.T) *Ring {
	t.Helper()
	chain, err := primes.BuildChain(8, []int{40, 26, 26, 80}, 45, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(256, chain.Moduli, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	r.Parallel = true
	return r
}

// opMix runs a representative op sequence (the same mix a CNN1 forward
// pass issues: NTT-domain muls, adds, a rescale division, and a key
// switch's digit raise and NTT-domain division) and leaves the result in
// out.
func opMix(r *Ring, seed int64, out *Poly) {
	rng := rand.New(rand.NewSource(seed))
	limbs := r.Limbs(r.MaxLevel(), true)
	a := r.NewPoly(r.MaxLevel())
	b := r.NewPoly(r.MaxLevel())
	for _, i := range limbs {
		r.SubRings[i].SampleUniform(rng, a.Coeffs[i])
		r.SubRings[i].SampleUniform(rng, b.Coeffs[i])
	}
	tmp := r.NewPoly(r.MaxLevel())
	r.NTT(limbs, a)
	r.NTT(limbs, b)
	r.MulCoeffs(limbs, a, b, tmp)
	r.MulCoeffsThenAdd(limbs, a, a, tmp)
	r.Add(limbs, tmp, b, tmp)
	r.Sub(limbs, tmp, a, tmp)
	r.INTT(limbs, tmp)
	qLimbs := r.Limbs(r.MaxLevel()-1, false)
	r.DivideExactByLimb(r.MaxLevel(), qLimbs, tmp, out)

	tmpNTT := r.NewPoly(r.MaxLevel())
	r.Copy(limbs, tmp, tmpNTT)
	r.NTT(limbs, tmpNTT)
	digits := []*Poly{r.NewPoly(r.MaxLevel()), r.NewPoly(r.MaxLevel())}
	r.DecomposeNTT(limbs, tmp, tmpNTT, digits)
	top := []int{r.MaxLevel()}
	r.INTT(top, digits[0])
	r.INTT(top, digits[1])
	r.DivideExactByLimbNTT(r.MaxLevel(), qLimbs, digits, digits, digits)
	r.Add(qLimbs, out, digits[0], out)
	r.Add(qLimbs, out, digits[1], out)
}

// TestPoolHammerDeterministic launches 4×workers goroutines concurrently
// driving the shared parallel ring, then checks every goroutine's result is
// bit-identical to the serial reference for its seed. Failure under -race
// means the pool shares mutable state between tasks; failure of the compare
// means nondeterministic scheduling leaked into results.
func TestPoolHammerDeterministic(t *testing.T) {
	r := hammerRing(t)
	qLimbs := r.Limbs(r.MaxLevel()-1, false)

	// Serial references, one per seed.
	rSerial := hammerRing(t)
	rSerial.Parallel = false
	const seeds = 8
	refs := make([]*Poly, seeds)
	for s := 0; s < seeds; s++ {
		refs[s] = rSerial.NewPolyQ(rSerial.MaxLevel() - 1)
		opMix(rSerial, int64(s), refs[s])
	}

	workers := 4 * poolWorkers()
	const rounds = 4
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				seed := (w + round) % seeds
				got := r.NewPolyQ(r.MaxLevel() - 1)
				opMix(r, int64(seed), got)
				if !r.Equal(qLimbs, got, refs[seed]) {
					errs <- "parallel result diverged from serial reference"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestPoolHammerScratchPool drives GetPoly/PutPoly and the rescale scratch
// slab pool from many goroutines at once; -race flags any slab handed to
// two tasks simultaneously.
func TestPoolHammerScratchPool(t *testing.T) {
	r := hammerRing(t)
	limbs := r.Limbs(r.MaxLevel(), true)
	qLimbs := r.Limbs(r.MaxLevel()-1, false)
	rng := rand.New(rand.NewSource(42))
	src := r.NewPoly(r.MaxLevel())
	for _, i := range limbs {
		r.SubRings[i].SampleUniform(rng, src.Coeffs[i])
	}
	ref := r.NewPolyQ(r.MaxLevel() - 1)
	r.DivideExactByLimb(r.MaxLevel(), qLimbs, src, ref)

	var wg sync.WaitGroup
	fail := make(chan struct{}, 1)
	for w := 0; w < 4*poolWorkers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 8; round++ {
				out := r.GetPoly()
				r.DivideExactByLimb(r.MaxLevel(), qLimbs, src, out)
				if !r.Equal(qLimbs, out, ref) {
					select {
					case fail <- struct{}{}:
					default:
					}
				}
				r.PutPoly(out)
			}
		}()
	}
	wg.Wait()
	select {
	case <-fail:
		t.Fatal("concurrent DivideExactByLimb diverged from reference")
	default:
	}
}

// TestAllocsDivideExactByLimbSerial pins the pooled-scratch satellite: the
// old code made a fresh N-word tmp slice per limb per call; the pooled
// version is allowed exactly one small allocation — the closure header
// handed to forLimbSlabs, which escapes because the parallel branch ships
// it to the worker pool. Parallel mode has small fixed job-dispatch
// allocations on top, so the bound is asserted serial-only.
func TestAllocsDivideExactByLimbSerial(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector allocation instrumentation skews AllocsPerRun")
	}
	r := hammerRing(t)
	r.Parallel = false
	limbs := r.Limbs(r.MaxLevel(), true)
	qLimbs := r.Limbs(r.MaxLevel()-1, false)
	rng := rand.New(rand.NewSource(3))
	src := r.NewPoly(r.MaxLevel())
	for _, i := range limbs {
		r.SubRings[i].SampleUniform(rng, src.Coeffs[i])
	}
	out := r.NewPolyQ(r.MaxLevel() - 1)
	r.DivideExactByLimb(r.MaxLevel(), qLimbs, src, out) // warm the slab pool
	allocs := testing.AllocsPerRun(20, func() {
		r.DivideExactByLimb(r.MaxLevel(), qLimbs, src, out)
	})
	if allocs > 1 {
		t.Fatalf("DivideExactByLimb allocated %.1f objects/op in serial mode, want ≤1 (closure header only)", allocs)
	}
}

// TestAllocsDivideExactByLimbNTTSerial pins the NTT-domain division to the
// same budget: its target transforms run in pooled slabs, so a serial call
// allocates only the closure header handed to forTasks.
func TestAllocsDivideExactByLimbNTTSerial(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector allocation instrumentation skews AllocsPerRun")
	}
	r := hammerRing(t)
	r.Parallel = false
	limbs := r.Limbs(r.MaxLevel(), true)
	qLimbs := r.Limbs(r.MaxLevel()-1, false)
	rng := rand.New(rand.NewSource(4))
	src := r.NewPoly(r.MaxLevel())
	for _, i := range limbs {
		r.SubRings[i].SampleUniform(rng, src.Coeffs[i])
	}
	srcs, outs := []*Poly{src, src}, []*Poly{r.NewPolyQ(r.MaxLevel() - 1), r.NewPolyQ(r.MaxLevel() - 1)}
	r.DivideExactByLimbNTT(r.MaxLevel(), qLimbs, srcs, srcs, outs) // warm the slab pool
	allocs := testing.AllocsPerRun(20, func() {
		r.DivideExactByLimbNTT(r.MaxLevel(), qLimbs, srcs, srcs, outs)
	})
	if allocs > 1 {
		t.Fatalf("DivideExactByLimbNTT allocated %.1f objects/op in serial mode, want ≤1 (closure header only)", allocs)
	}
}

// TestAllocsMulScalarCached pins the scalar-cache satellite: once the
// (subring, scalar) Shoup constant is cached, word-backend MulScalar and
// SubScalarThenMulScalar must be allocation-free for uint64-range scalars.
func TestAllocsMulScalarCached(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector allocation instrumentation skews AllocsPerRun")
	}
	r := hammerRing(t)
	r.Parallel = false
	rng := rand.New(rand.NewSource(5))
	sr := r.SubRings[0] // word limb
	a := make([]uint64, r.NVal*sr.Width())
	out := make([]uint64, len(a))
	sr.SampleUniform(rng, a)
	s := big.NewInt(123456789)
	c := big.NewInt(55555)
	sr.MulScalar(a, s, out)                 // warm the cache
	sr.SubScalarThenMulScalar(a, c, s, out) // warm the cache
	if allocs := testing.AllocsPerRun(20, func() { sr.MulScalar(a, s, out) }); allocs > 0 {
		t.Fatalf("cached MulScalar allocated %.1f objects/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() { sr.SubScalarThenMulScalar(a, c, s, out) }); allocs > 0 {
		t.Fatalf("cached SubScalarThenMulScalar allocated %.1f objects/op, want 0", allocs)
	}
}
