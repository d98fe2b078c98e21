// Privacy-preserving medical image triage — the application domain the
// paper's conclusion motivates ("explore the applicability of proposed
// models for sensitive domains such as medical image classification").
//
// A synthetic 28×28 "lesion scan" dataset is generated (no real medical
// data exists offline; the substitution exercises the identical encrypted
// code path): class 0 = small regular lesion, class 1 = large irregular
// lesion. A compact CNN with SLAF activations is trained in the clear, and
// encrypted scans are classified under CKKS-RNS so that the "hospital's"
// images never leave encryption.
//
// Run: go run ./examples/medical
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"cnnhe/internal/ckks"
	"cnnhe/internal/henn"
	"cnnhe/internal/nn"
	"cnnhe/internal/primes"
	"cnnhe/internal/tensor"
)

const size = 28

// synthScan renders a blob with the given radius and boundary irregularity.
func synthScan(rng *rand.Rand, malignant bool) []float64 {
	cx := 13.5 + rng.Float64()*3 - 1.5
	cy := 13.5 + rng.Float64()*3 - 1.5
	radius := 4.0 + rng.Float64()*1.5
	irreg := 0.4
	if malignant {
		radius = 7.0 + rng.Float64()*2.5
		irreg = 2.6
	}
	// Random boundary perturbation by a few harmonics.
	phase := [3]float64{rng.Float64() * 2 * math.Pi, rng.Float64() * 2 * math.Pi, rng.Float64() * 2 * math.Pi}
	img := make([]float64, size*size)
	for y := 0; y < size; y++ {
		for x := 0; x < size; x++ {
			dx, dy := float64(x)-cx, float64(y)-cy
			r := math.Hypot(dx, dy)
			theta := math.Atan2(dy, dx)
			edge := radius +
				irreg*math.Sin(3*theta+phase[0]) +
				irreg*0.6*math.Sin(5*theta+phase[1]) +
				irreg*0.4*math.Sin(7*theta+phase[2])
			v := 220 / (1 + math.Exp((r-edge)*1.6)) // soft disc
			v += rng.NormFloat64() * 8              // scanner noise
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			img[y*size+x] = math.Round(v)
		}
	}
	return img
}

func dataset(n int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	images := make([][]float64, n)
	labels := make([]int, n)
	for i := range images {
		labels[i] = rng.Intn(2)
		images[i] = synthScan(rng, labels[i] == 1)
	}
	return images, labels
}

func toNN(images [][]float64, labels []int) nn.Dataset {
	ds := nn.Dataset{Labels: labels}
	for _, img := range images {
		t := tensor.New(1, size, size)
		for j, v := range img {
			t.Data[j] = v / 255
		}
		ds.Images = append(ds.Images, t)
	}
	return ds
}

func main() {
	trainImgs, trainLbls := dataset(1200, 1)
	testImgs, testLbls := dataset(200, 2)
	trainDS := toNN(trainImgs, trainLbls)
	testDS := toNN(testImgs, testLbls)

	// Compact CNN: Conv(1→4, 5×5, s2) → SLAF → FC(676→16) → SLAF → FC(16→2).
	rng := rand.New(rand.NewSource(3))
	conv := nn.NewConv2D(rng, 1, 4, 5, 2, 1, size, size)
	flat := conv.OutC * conv.OutH() * conv.OutW()
	model := &nn.Model{Layers: []nn.Layer{
		conv, nn.NewReLU(), nn.NewFlatten(),
		nn.NewDense(rng, flat, 16), nn.NewReLU(),
		nn.NewDense(rng, 16, 2),
	}}
	fmt.Println("training lesion classifier...")
	nn.Train(model, trainDS, nn.TrainConfig{Epochs: 6, BatchSize: 32, MaxLR: 0.05, Momentum: 0.9, Seed: 4})
	rc := nn.DefaultRetrofitConfig()
	rc.Epochs = 2
	slaf := nn.Retrofit(model, trainDS, rc)
	fmt.Printf("plaintext SLAF accuracy: %.1f%%\n", 100*nn.Evaluate(slaf, testDS))

	const logN = 11
	plan, err := henn.Compile(slaf, 1<<(logN-1))
	if err != nil {
		log.Fatal(err)
	}
	params, err := ckks.NewParameters(logN, primes.PaperShape(plan.Depth+1, 30), 60, 1, math.Exp2(30))
	if err != nil {
		log.Fatal(err)
	}
	engine, err := henn.NewRNSEngine(params, plan.Rotations(), 9)
	if err != nil {
		log.Fatal(err)
	}

	names := [2]string{"benign ", "suspect"}
	correct := 0
	n := 4
	fmt.Println("\nencrypted triage (the clinic's scans stay encrypted):")
	for i := 0; i < n; i++ {
		logits, lat := plan.Infer(engine, testImgs[i])
		pred := logits.Argmax()
		if pred == testLbls[i] {
			correct++
		}
		fmt.Printf("  scan %d: true %s  HE verdict %s  (%.2fs)\n",
			i, names[testLbls[i]], names[pred], lat.Seconds())
	}
	fmt.Printf("\nencrypted accuracy: %d/%d\n", correct, n)
}
