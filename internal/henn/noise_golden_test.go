package henn_test

import (
	"fmt"
	"math"
	"testing"

	"cnnhe/internal/ckks"
	"cnnhe/internal/guard"
	"cnnhe/internal/henn"
	"cnnhe/internal/henn/ir/opt"
	"cnnhe/internal/nn"
	"cnnhe/internal/primes"
)

// TestNoiseBudgetGolden pins the noise budget the guard predicts at logN
// 11 for the shipped CNN1 on the paper's chain [40, 26×11, 40] + 60 and
// for the benchmark's CNN3 over 4 shards on [40, 26×8, 40] + 60 (the
// cnn3_sharded plan): the bits of every report stage, which a guarded run
// reports as StageReport.NoiseBits. The budget is a property of the
// graph, so this is symbolic: the plan is lowered against a params-only
// engine and the guard wraps a key-less evaluation engine — no key
// generation. The optimizer must not move the budget, so both -opt
// settings are pinned to the same row. A folded linear stage's
// rotate-and-add folds each double the bound it sums (CNN1's dense
// stages fold 3 and 6 times, CNN3's last stage 6 times), so the budget
// after them is a few bits below the slot-wide BSGS's.
func TestNoiseBudgetGolden(t *testing.T) {
	for _, tc := range []struct {
		name, model string
		k           int
		compile     func(*nn.Model, int) (*henn.Plan, error)
		want        []string
	}{
		{"cnn1", "../../models/cnn1-slaf-n6000-s1.gob", 13, henn.Compile,
			[]string{"-1.076095", "-12.235908", "-22.235909", "-66.707754", "-76.707754"}},
		{"cnn3 4 shards", "../../benchmark/testdata/cnn3-slaf-n1024-s1.gob", 10, henn.CompileShardedAuto,
			[]string{"-2.405638", "-17.291786", "-28.169825", "-112.679300", "-122.679300"}},
	} {
		model, _, err := nn.LoadModel(tc.model)
		if err != nil {
			t.Fatal(err)
		}
		params, err := ckks.NewParameters(11, primes.PaperShape(tc.k, 26), 60, 1, math.Exp2(26))
		if err != nil {
			t.Fatal(err)
		}
		ctx, err := ckks.NewContext(params)
		if err != nil {
			t.Fatal(err)
		}
		g := guard.New(henn.NewRNSEvalEngine(ctx, nil, nil), guard.DefaultConfig())
		e := henn.ParamsOnlyEngine("ckks-rns", params.Slots(), params.MaxLevel(), params.Scale, params.QiFloat)
		for _, o := range []*opt.Options{nil, opt.Disabled()} {
			plan, err := tc.compile(model, params.Slots())
			if err != nil {
				t.Fatal(err)
			}
			lowered, err := plan.Lower(e)
			if err != nil {
				t.Fatal(err)
			}
			res, err := opt.Optimize(e, lowered, o)
			if err != nil {
				t.Fatal(err)
			}
			gr := res.Graph
			noise, err := g.NoiseBits(gr)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, st := range gr.Stages {
				if st.Record {
					got = append(got, fmt.Sprintf("%.6f", noise[st.Out]))
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Errorf("%s -opt=%s: per-stage noise bits %v, want %v", tc.name, o.Setting(), got, tc.want)
			}
		}
	}
}
