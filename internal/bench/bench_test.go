package bench

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"cnnhe/internal/dataset"
	"cnnhe/internal/henn"
	"cnnhe/internal/nn"
	"cnnhe/internal/primes"
)

func TestPaperShapeBits(t *testing.T) {
	cases := []struct {
		k    int
		want []int
	}{
		{1, []int{40}},
		{2, []int{40, 40}},
		{3, []int{40, 26, 40}},
		{13, append(append([]int{40}, repeat26(11)...), 40)},
	}
	for _, c := range cases {
		got := primes.PaperShape(c.k, 26)
		if len(got) != len(c.want) {
			t.Fatalf("k=%d: %v", c.k, got)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("k=%d: %v want %v", c.k, got, c.want)
			}
		}
	}
	// Table II: the k=13 chain must total 366 bits.
	sum := 0
	for _, b := range primes.PaperShape(13, 26) {
		sum += b
	}
	if sum != 366 {
		t.Fatalf("13-chain sums to %d, want 366", sum)
	}
}

func repeat26(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = 26
	}
	return out
}

func TestConfigs(t *testing.T) {
	d := DefaultConfig()
	if d.LogN != 12 || d.Runs <= 0 || d.TrainN <= 0 {
		t.Fatalf("bad default config %+v", d)
	}
	p := PaperConfig()
	if p.LogN != 14 || p.TrainN != 50000 || p.Epochs != 30 {
		t.Fatalf("bad paper config %+v", p)
	}
}

func TestTableII(t *testing.T) {
	var buf bytes.Buffer
	if err := TableII(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"N | 2^14", "log q | 366", "λ | 128", "HE-standard check"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table II output missing %q:\n%s", want, out)
		}
	}
}

func TestTableIFormatting(t *testing.T) {
	var buf bytes.Buffer
	measured := []HEResult{
		{Model: "CNN1-HE-RNS", Lat: henn.LatencyStats{Avg: 2270 * time.Millisecond, N: 3}, Acc: 0.9822},
		{Model: "CNN1-HE", Lat: henn.LatencyStats{Avg: 3560 * time.Millisecond, N: 3}, Acc: math.NaN()},
	}
	TableI(&buf, measured, "synthetic")
	out := buf.String()
	if !strings.Contains(out, "CryptoNets") || !strings.Contains(out, "CNN-HE-SLAF") {
		t.Fatal("literature rows missing")
	}
	if !strings.Contains(out, "CNN1-HE-RNS (this repo)") || !strings.Contains(out, "2.27") {
		t.Fatalf("measured row missing:\n%s", out)
	}
	if !strings.Contains(out, "98.22") {
		t.Fatal("accuracy column missing")
	}
	// NaN accuracy renders as a dash.
	if !strings.Contains(out, "| — |") {
		t.Fatal("NaN accuracy should render as a dash")
	}
}

func TestModelsTestSlice(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TrainN, cfg.TestN = 64, 16
	cfg.Epochs, cfg.RetrofitEpochs = 0, 0
	cfg.ModelDir = ""
	ms, err := TrainModels(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	imgs, labels := ms.TestSlice(5)
	if len(imgs) != 5 || len(labels) != 5 {
		t.Fatal("slice sizes wrong")
	}
	if len(imgs[0]) != 28*28 {
		t.Fatal("image length wrong")
	}
	// Clamp beyond the test set.
	imgs, _ = ms.TestSlice(1000)
	if len(imgs) != 16 {
		t.Fatalf("clamp failed: %d", len(imgs))
	}
}

func TestModelCaching(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.TrainN, cfg.TestN = 64, 16
	cfg.Epochs, cfg.RetrofitEpochs = 1, 0
	cfg.ModelDir = dir
	var log1 bytes.Buffer
	if _, err := TrainModels(cfg, &log1); err != nil {
		t.Fatal(err)
	}
	var log2 bytes.Buffer
	if _, err := TrainModels(cfg, &log2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log2.String(), "loaded cached cnn1") {
		t.Fatalf("second run should hit the cache:\n%s", log2.String())
	}
}

// TestRunsBeyondTestSet: asking for more latency runs than the test set
// holds measures every test image once instead of slicing past the end
// (Table III panicked after key generation, Table CNN3 before it).
func TestRunsBeyondTestSet(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	model := &nn.Model{Layers: []nn.Layer{nn.NewFlatten(), nn.NewDense(rng, 64, 4)}}
	test := dataset.Dataset{C: 1, H: 8, W: 8}
	for i := 0; i < 3; i++ {
		px := make([]byte, test.Dim())
		rng.Read(px)
		test.Pixels = append(test.Pixels, px)
		test.Labels = append(test.Labels, i)
	}
	cfg := DefaultConfig()
	cfg.LogN, cfg.Runs, cfg.AccImages = 10, 1001, 2

	var buf bytes.Buffer
	rows, err := TableIII(cfg, &Models{CNN1: model, Test: test}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Lat.N != 3 || rows[1].Lat.N != 3 {
		t.Fatalf("rows %+v, want two rows over all 3 test images", rows)
	}
	if !strings.Contains(buf.String(), "3 encrypted images") {
		t.Fatalf("Table III header should report the clamped image count:\n%s", buf.String())
	}

	buf.Reset()
	if err := TableCNN3(cfg, &CNN3Models{CNN3: model, Test: test}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "3 encrypted images") {
		t.Fatalf("Table CNN3 header should report the clamped image count:\n%s", buf.String())
	}
}
