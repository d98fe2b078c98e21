package guard_test

import (
	"context"
	"sync"
	"testing"

	"cnnhe/internal/ckks"
	"cnnhe/internal/guard"
	"cnnhe/internal/henn"
	"cnnhe/internal/henn/exec"
	"cnnhe/internal/henn/shard"
)

// TestReleaseReachesEngine: the guard hands a released ciphertext
// straight to the RNS engine, which takes its limbs back; the operand it
// was made from still decrypts.
func TestReleaseReachesEngine(t *testing.T) {
	plan := tinyPlan(t)
	g := guard.New(rnsEngine(t, plan, 41), guard.DefaultConfig())
	a := g.EncryptVec([]float64{1, 2})
	sum := g.Add(a, a).(*ckks.Ciphertext)
	g.Release(sum)
	if sum.C0.Coeffs[0] != nil {
		t.Fatal("the release did not reach the RNS engine: limb 0 still held")
	}
	if got := g.DecryptVec(a); len(got) == 0 {
		t.Fatal("the operand stopped decrypting")
	}
}

// TestConcurrentRunsShareOnePrepared: two RunEncrypted calls on one
// prepared 4-shard graph at once, on the same inputs, each recycle their
// dead results into the engine's one set of free lists while the other
// runs; both outputs are bit-identical to a run on its own, raw and
// guarded.
func TestConcurrentRunsShareOnePrepared(t *testing.T) {
	plan, err := henn.CompileSharded(wideModel(23), 512, shard.Grid{Gy: 2, Gx: 2})
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumShards() != 4 {
		t.Fatalf("%d input shards, want 4", plan.NumShards())
	}
	raw := rnsEngine(t, plan, 47)
	parts, err := plan.Input.Split(testImage(9, plan.InputDim))
	if err != nil {
		t.Fatal(err)
	}
	for _, leg := range []struct {
		name string
		e    henn.Engine
	}{
		{"raw", raw},
		{"guarded", guard.New(raw, guard.DefaultConfig())},
	} {
		t.Run(leg.name, func(t *testing.T) {
			prep, _, err := plan.Prepare(leg.e)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			cts, _, _, err := prep.EncryptInputs(ctx, parts)
			if err != nil {
				t.Fatal(err)
			}
			run := func() (*ckks.Ciphertext, error) {
				res, err := prep.RunEncrypted(ctx, cts, exec.Options{})
				if err != nil {
					return nil, err
				}
				return guard.Underlying(res.Out).(*ckks.Ciphertext), nil
			}
			want, err := run()
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			outs := make([]*ckks.Ciphertext, 2)
			errs := make([]error, 2)
			for i := range outs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					outs[i], errs[i] = run()
				}()
			}
			wg.Wait()
			r := raw.Ctx.R
			for i, got := range outs {
				if errs[i] != nil {
					t.Fatalf("concurrent run %d: %v", i, errs[i])
				}
				limbs := r.Limbs(want.Level, false)
				if got.Level != want.Level || got.Scale != want.Scale ||
					!r.Equal(limbs, got.C0, want.C0) || !r.Equal(limbs, got.C1, want.C1) {
					t.Fatalf("concurrent run %d differs from the run on its own", i)
				}
			}
			// The inputs are the caller's: no run recycled them.
			for i, ct := range cts {
				if guard.Underlying(ct).(*ckks.Ciphertext).C0.Coeffs[0] == nil {
					t.Fatalf("input %d was recycled", i)
				}
			}
		})
	}
}
