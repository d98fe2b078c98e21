// Package bench regenerates every table and figure of the paper's
// evaluation section: model training/caching, engine construction, and one
// runner per experiment (see DESIGN.md §4 for the experiment index).
package bench

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"

	"cnnhe/internal/dataset"
	"cnnhe/internal/henn/ir/opt"
	"cnnhe/internal/nn"
)

// Config collects the experiment knobs. The zero value is not useful; use
// DefaultConfig.
type Config struct {
	// LogN selects the ring degree (12 = default test scale, 14 = paper).
	LogN int
	// Runs is the number of encrypted classifications per latency row.
	Runs int
	// AccImages is the number of encrypted classifications used for the
	// accuracy columns (kept small: encrypted inference is expensive).
	AccImages int
	// TrainN / TestN are dataset sizes.
	TrainN, TestN int
	// Epochs / RetrofitEpochs control training length.
	Epochs, RetrofitEpochs int
	// Seed drives all deterministic randomness.
	Seed int64
	// ModelDir caches trained models between runs ("" = no caching).
	ModelDir string
	// Verbose enables training progress logs.
	Verbose bool
	// Opt configures the graph optimizer for every measured plan
	// (nil = on; see henn/ir/opt).
	Opt *opt.Options
}

// DefaultConfig returns laptop-scale settings (minutes, not hours).
func DefaultConfig() Config {
	return Config{
		LogN: 12, Runs: 3, AccImages: 20,
		TrainN: 6000, TestN: 1000,
		Epochs: 10, RetrofitEpochs: 3,
		Seed: 1, ModelDir: "models",
	}
}

// PaperConfig returns the paper-scale settings (N=2^14, 30 epochs,
// paper-sized datasets). Expect hours of wall time and ~10 GB of memory.
func PaperConfig() Config {
	return Config{
		LogN: 14, Runs: 5, AccImages: 100,
		TrainN: 50000, TestN: 10000,
		Epochs: 30, RetrofitEpochs: 5,
		Seed: 1, ModelDir: "models",
	}
}

// Models bundles the trained artifacts both benchmark families consume.
type Models struct {
	CNN1, CNN2 *nn.Model // SLAF models (HE-ready)
	// Plain accuracies on the test set (the tables' Acc columns).
	TrainAcc1, TestAcc1 float64
	TrainAcc2, TestAcc2 float64
	// Test data in raw pixel form.
	Test dataset.Dataset
	// DataSource describes where the data came from.
	DataSource string
}

// TrainModels trains (or loads cached) CNN1 and CNN2, retrofits SLAFs per
// the paper's recipe, and reports plaintext accuracies.
func TrainModels(cfg Config, logw io.Writer) (*Models, error) {
	train, test, src := dataset.LoadMNIST(cfg.TrainN, cfg.TestN, cfg.Seed)
	out := &Models{Test: test, DataSource: src}
	trainNN := train.ToNN()
	testNN := test.ToNN()

	for _, arch := range []string{"cnn1", "cnn2"} {
		var cached *nn.Model
		path := ""
		if cfg.ModelDir != "" {
			path = filepath.Join(cfg.ModelDir, fmt.Sprintf("%s-slaf-n%d-s%d.gob", arch, cfg.TrainN, cfg.Seed))
			if m, a, err := nn.LoadModel(path); err == nil && a == arch {
				cached = m
				fmt.Fprintf(logw, "loaded cached %s from %s\n", arch, path)
			}
		}
		var slaf *nn.Model
		var trainAcc float64
		if cached != nil {
			slaf = cached
			trainAcc = nn.Evaluate(slaf, trainNN)
		} else {
			rng := rand.New(rand.NewSource(cfg.Seed + 100))
			var m *nn.Model
			if arch == "cnn1" {
				m = nn.NewCNN1(rng)
			} else {
				m = nn.NewCNN2(rng)
			}
			tc := nn.TrainConfig{
				Epochs: cfg.Epochs, BatchSize: 64, MaxLR: 0.08, Momentum: 0.9,
				Seed: cfg.Seed + 200, Verbose: cfg.Verbose, LogEvery: 5,
			}
			fmt.Fprintf(logw, "training %s (%d images, %d epochs, data: %s)...\n", arch, train.Len(), cfg.Epochs, src)
			trainAcc = nn.Train(m, trainNN, tc)
			rc := nn.DefaultRetrofitConfig()
			rc.Epochs = cfg.RetrofitEpochs
			rc.Seed = cfg.Seed + 300
			fmt.Fprintf(logw, "retrofitting SLAF activations (%d epochs)...\n", rc.Epochs)
			slaf = nn.Retrofit(m, trainNN, rc)
			if path != "" {
				if err := os.MkdirAll(cfg.ModelDir, 0o755); err == nil {
					if err := slaf.Save(path, arch); err != nil {
						fmt.Fprintf(logw, "warning: model cache write failed: %v\n", err)
					}
				}
			}
		}
		testAcc := nn.Evaluate(slaf, testNN)
		fmt.Fprintf(logw, "%s: train acc %.3f%%, SLAF test acc %.3f%%\n", arch, 100*trainAcc, 100*testAcc)
		if arch == "cnn1" {
			out.CNN1, out.TrainAcc1, out.TestAcc1 = slaf, trainAcc, testAcc
		} else {
			out.CNN2, out.TrainAcc2, out.TestAcc2 = slaf, trainAcc, testAcc
		}
	}
	return out, nil
}

// TestSlice extracts the first n raw test images and labels.
func (m *Models) TestSlice(n int) ([][]float64, []int) {
	if n > m.Test.Len() {
		n = m.Test.Len()
	}
	images := make([][]float64, n)
	for i := 0; i < n; i++ {
		images[i] = m.Test.Image(i)
	}
	return images, m.Test.Labels[:n]
}
