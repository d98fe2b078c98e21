package bench

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"

	"cnnhe/internal/dataset"
	"cnnhe/internal/henn"
	"cnnhe/internal/nn"
)

// This file is the beyond-the-paper CNN3 benchmark: CIFAR-10 through
// the sharded pipeline. The 3×32×32 input (3072 values) exceeds the
// slot count at the default ring degree, so the image splits across a
// shard grid and the measured plan exercises cross-shard block rows —
// the first workload in this repo the paper's single-ciphertext
// packing cannot represent.

// CNN3Models bundles the CIFAR-10 artifacts the CNN3 table consumes,
// mirroring Models for the MNIST pair.
type CNN3Models struct {
	CNN3 *nn.Model // SLAF degree-4 model (HE-ready)
	// Plain accuracies on the CIFAR-10 train/test sets.
	TrainAcc, TestAcc float64
	// Test data in raw pixel form.
	Test dataset.Dataset
	// DataSource describes where the data came from.
	DataSource string
}

// TrainCNN3 trains (or loads cached) CNN3 on CIFAR-10 and retrofits the
// degree-4 SLAF activations the extra depth requires (Ishiyama et al.,
// arXiv 2009.03727).
func TrainCNN3(cfg Config, logw io.Writer) (*CNN3Models, error) {
	train, test, src := dataset.LoadCIFAR10(cfg.TrainN, cfg.TestN, cfg.Seed)
	out := &CNN3Models{Test: test, DataSource: src}
	trainNN := train.ToNN()
	testNN := test.ToNN()

	var cached *nn.Model
	path := ""
	if cfg.ModelDir != "" {
		path = filepath.Join(cfg.ModelDir, fmt.Sprintf("cnn3-slaf-n%d-s%d.gob", cfg.TrainN, cfg.Seed))
		if m, a, err := nn.LoadModel(path); err == nil && a == "cnn3" {
			cached = m
			fmt.Fprintf(logw, "loaded cached cnn3 from %s\n", path)
		}
	}
	if cached != nil {
		out.CNN3 = cached
		out.TrainAcc = nn.Evaluate(cached, trainNN)
	} else {
		rng := rand.New(rand.NewSource(cfg.Seed + 100))
		m := nn.NewCNN3(rng)
		tc := nn.TrainConfig{
			Epochs: cfg.Epochs, BatchSize: 64, MaxLR: 0.08, Momentum: 0.9,
			Seed: cfg.Seed + 200, Verbose: cfg.Verbose, LogEvery: 5,
		}
		fmt.Fprintf(logw, "training cnn3 (%d images, %d epochs, data: %s)...\n", train.Len(), cfg.Epochs, src)
		out.TrainAcc = nn.Train(m, trainNN, tc)
		rc := nn.DefaultRetrofitConfig()
		rc.Degree = 4
		rc.Epochs = cfg.RetrofitEpochs
		rc.Seed = cfg.Seed + 300
		fmt.Fprintf(logw, "retrofitting degree-4 SLAF activations (%d epochs)...\n", rc.Epochs)
		out.CNN3 = nn.Retrofit(m, trainNN, rc)
		if path != "" {
			if err := os.MkdirAll(cfg.ModelDir, 0o755); err == nil {
				if err := out.CNN3.Save(path, "cnn3"); err != nil {
					fmt.Fprintf(logw, "warning: model cache write failed: %v\n", err)
				}
			}
		}
	}
	out.TestAcc = nn.Evaluate(out.CNN3, testNN)
	fmt.Fprintf(logw, "cnn3: train acc %.3f%%, SLAF test acc %.3f%%\n", 100*out.TrainAcc, 100*out.TestAcc)
	return out, nil
}

// TableCNN3 measures the sharded CIFAR-10 CNN3 pipeline on the RNS
// backend. Encrypted inference at this scale runs tens of seconds per
// image, so latency and accuracy are both measured over cfg.Runs images
// (like the multiprecision baseline rows, not the AccImages sweep).
func TableCNN3(cfg Config, models *CNN3Models, w io.Writer) error {
	sp, err := henn.CompileShardedAuto(models.CNN3, 1<<(cfg.LogN-1))
	if err != nil {
		return err
	}
	sp.Opt = cfg.Opt
	k := 13 // the paper's Table II chain length, as in heVsRNS
	if sp.Depth+1 > k {
		k = sp.Depth + 1
	}
	params, err := rnsParams(cfg, k)
	if err != nil {
		return err
	}
	if err := sp.CheckDepth(params.MaxLevel()); err != nil {
		return err
	}
	n := min(cfg.Runs, models.Test.Len())
	images := make([][]float64, n)
	for i := range images {
		images[i] = models.Test.Image(i)
	}
	labels := models.Test.Labels[:n]

	fmt.Fprintf(w, "\n## Table CNN3: sharded CIFAR-10 CNN3-HE-RNS (logN=%d, chain length %d, %d shards over %v grid, %d encrypted images)\n\n",
		cfg.LogN, k, sp.NumShards(), sp.Input.Grid, n)
	fmt.Fprintf(w, "| Model | Training Acc (%%) | Lat min (s) | Lat max (s) | Lat avg (s) | Acc (%%) |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|\n")

	re, err := henn.NewRNSEngine(params, sp.Rotations(), cfg.Seed+40)
	if err != nil {
		return err
	}
	sp.Infer(re, images[0]) // warm the weight cache untimed
	acc, stats, err := sp.EvaluateEncrypted(re, images, labels, n)
	if err != nil {
		return err
	}
	writeRow(w, HEResult{Model: "CNN3-HE-RNS", Lat: stats, Acc: acc, TrainAcc: models.TrainAcc})
	fmt.Fprintf(w, "\nPlaintext SLAF test accuracy for reference: %.2f%% (%s)\n", 100*models.TestAcc, models.DataSource)
	return nil
}
