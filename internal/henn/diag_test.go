package henn

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	"cnnhe/internal/ckks"
	"cnnhe/internal/mnist"
	"cnnhe/internal/nn"
	"cnnhe/internal/tensor"
)

// TestDiagLogits compares encrypted vs plaintext logits stage by stage.
func TestDiagLogits(t *testing.T) {
	if os.Getenv("CNNHE_CALIBRATE") == "" {
		t.Skip("set CNNHE_CALIBRATE=1 to run")
	}
	rng := rand.New(rand.NewSource(2))
	m := nn.NewCNN1(rng)
	train, test, _ := mnist.Load(2000, 20, 1)
	nn.Train(m, train.ToNN(), nn.TrainConfig{Epochs: 5, BatchSize: 64, MaxLR: 0.08, Momentum: 0.9, Seed: 3})
	rc := nn.DefaultRetrofitConfig()
	rc.Epochs = 2
	hm := nn.Retrofit(m, train.ToNN(), rc)
	fmt.Printf("plain slaf acc: %.3f\n", nn.Evaluate(hm, test.ToNN()))

	// print activation ranges
	fmt.Println("ranges:", nn.ActivationRanges(hm, train.ToNN().Images[:256]))

	plan, err := Compile(hm, 1024)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ckks.NewParameters(11, []int{40, 30, 30, 30, 30, 30, 30, 30}, 60, 1, math.Exp2(30))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewRNSEngine(p, plan.Rotations(), 77)
	if err != nil {
		t.Fatal(err)
	}

	for n := 0; n < 3; n++ {
		img := test.Image(n)
		// plaintext per-stage reference via model forward
		x := tensor.New(1, 28, 28)
		for i := range img {
			x.Data[i] = img[i] / 255
		}
		want := hm.Forward(x).Data

		cts := []Ct{e.EncryptVec(img)}
		for _, s := range plan.Stages {
			cts = s.Eval(e, cts)
		}
		got := e.DecryptVec(cts[0])
		maxe := 0.0
		for i := range want {
			if d := math.Abs(got[i] - want[i]); d > maxe {
				maxe = d
			}
		}
		fmt.Printf("img %d: label %d plainArg %d heArg %d maxLogitErr %.4f logitsWant %.2f..%.2f\n",
			n, test.Labels[n], Logits(want).Argmax(), Logits(got[:10]).Argmax(), maxe,
			minf(want), maxf(want))
	}
}

func minf(v []float64) float64 {
	m := v[0]
	for _, x := range v {
		if x < m {
			m = x
		}
	}
	return m
}
func maxf(v []float64) float64 {
	m := v[0]
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}
