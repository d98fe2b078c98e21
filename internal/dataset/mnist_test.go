package dataset

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"cnnhe/internal/nn"
)

func TestSyntheticMNISTDeterministic(t *testing.T) {
	a := SyntheticMNIST(50, 42)
	b := SyntheticMNIST(50, 42)
	for i := range a.Pixels {
		if a.Labels[i] != b.Labels[i] || !bytes.Equal(a.Pixels[i], b.Pixels[i]) {
			t.Fatal("synthetic generation is not deterministic")
		}
	}
	c := SyntheticMNIST(50, 43)
	same := true
	for i := range a.Pixels {
		if !bytes.Equal(a.Pixels[i], c.Pixels[i]) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical datasets")
	}
}

func TestSyntheticMNISTCoversAllClasses(t *testing.T) {
	d := SyntheticMNIST(500, 1)
	counts := make([]int, 10)
	for _, l := range d.Labels {
		counts[l]++
	}
	for digit, c := range counts {
		if c == 0 {
			t.Fatalf("digit %d never generated", digit)
		}
	}
}

func TestSyntheticMNISTPixelRangeAndInk(t *testing.T) {
	d := SyntheticMNIST(100, 2)
	if d.C != 1 || d.H != MNISTRows || d.W != MNISTCols {
		t.Fatalf("shape %dx%dx%d", d.C, d.H, d.W)
	}
	for i := range d.Pixels {
		if len(d.Pixels[i]) != MNISTRows*MNISTCols {
			t.Fatal("wrong image size")
		}
		ink := 0
		for _, p := range d.Pixels[i] {
			if p > 128 {
				ink++
			}
		}
		if ink < 10 {
			t.Fatalf("image %d (label %d) has almost no ink (%d bright pixels)", i, d.Labels[i], ink)
		}
		if ink > MNISTRows*MNISTCols/2 {
			t.Fatalf("image %d is mostly ink (%d bright pixels)", i, ink)
		}
	}
}

func TestMNISTToNNAndImage(t *testing.T) {
	d := SyntheticMNIST(10, 3)
	ds := d.ToNN()
	if ds.Len() != 10 {
		t.Fatal("length mismatch")
	}
	img := ds.Images[0]
	if img.Shape[0] != 1 || img.Shape[1] != MNISTRows || img.Shape[2] != MNISTCols {
		t.Fatalf("shape %v", img.Shape)
	}
	raw := d.Image(0)
	for j := range raw {
		if raw[j] < 0 || raw[j] > 255 {
			t.Fatal("raw pixel out of range")
		}
		if diff := raw[j]/255 - img.Data[j]; diff > 1e-12 || diff < -1e-12 {
			t.Fatal("normalization mismatch between Image and ToNN")
		}
	}
}

func TestMNISTSubset(t *testing.T) {
	d := SyntheticMNIST(20, 4)
	s := d.Subset(5)
	if s.Len() != 5 {
		t.Fatal("subset length")
	}
	if s.Dim() != d.Dim() {
		t.Fatalf("subset dim %d, want %d", s.Dim(), d.Dim())
	}
	if d.Subset(0).Len() != 20 || d.Subset(100).Len() != 20 {
		t.Fatal("subset bounds handling")
	}
}

// writeMNISTIDX creates a tiny valid IDX pair for loader tests.
func writeMNISTIDX(t *testing.T, dir string, gzipped bool) {
	t.Helper()
	n := 3
	var imgBuf bytes.Buffer
	binary.Write(&imgBuf, binary.BigEndian, uint32(0x803))
	binary.Write(&imgBuf, binary.BigEndian, uint32(n))
	binary.Write(&imgBuf, binary.BigEndian, uint32(MNISTRows))
	binary.Write(&imgBuf, binary.BigEndian, uint32(MNISTCols))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		img := make([]byte, MNISTRows*MNISTCols)
		rng.Read(img)
		imgBuf.Write(img)
	}
	var lblBuf bytes.Buffer
	binary.Write(&lblBuf, binary.BigEndian, uint32(0x801))
	binary.Write(&lblBuf, binary.BigEndian, uint32(n))
	lblBuf.Write([]byte{3, 1, 4})

	write := func(name string, data []byte) {
		path := filepath.Join(dir, name)
		if gzipped {
			var gz bytes.Buffer
			w := gzip.NewWriter(&gz)
			w.Write(data)
			w.Close()
			data = gz.Bytes()
			path += ".gz"
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, base := range []string{"train-images-idx3-ubyte", "t10k-images-idx3-ubyte"} {
		write(base, imgBuf.Bytes())
	}
	for _, base := range []string{"train-labels-idx1-ubyte", "t10k-labels-idx1-ubyte"} {
		write(base, lblBuf.Bytes())
	}
}

func TestLoadMNISTIDXPlainAndGzip(t *testing.T) {
	for _, gz := range []bool{false, true} {
		dir := t.TempDir()
		writeMNISTIDX(t, dir, gz)
		train, test, err := LoadMNISTIDX(dir)
		if err != nil {
			t.Fatalf("gz=%v: %v", gz, err)
		}
		if train.Len() != 3 || test.Len() != 3 {
			t.Fatalf("gz=%v: wrong sizes", gz)
		}
		if train.Labels[0] != 3 || train.Labels[2] != 4 {
			t.Fatalf("gz=%v: labels %v", gz, train.Labels)
		}
	}
}

func TestLoadMNISTIDXErrors(t *testing.T) {
	if _, _, err := LoadMNISTIDX(t.TempDir()); err == nil {
		t.Fatal("expected error for empty dir")
	}
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "train-images-idx3-ubyte"), []byte{1, 2, 3}, 0o644)
	if _, _, err := LoadMNISTIDX(dir); err == nil {
		t.Fatal("expected error for truncated file")
	}
}

func TestLoadMNISTFallsBackToSynthetic(t *testing.T) {
	dir := t.TempDir()
	writeMNISTIDX(t, dir, false)
	t.Setenv("MNIST_DIR", dir)
	if _, test, source := LoadMNIST(30, 2, 7); source != "mnist-idx:"+dir || test.Len() != 2 {
		t.Fatalf("MNIST_DIR: source %q, %d test images", source, test.Len())
	}
	t.Setenv("MNIST_DIR", "")
	train, test, source := LoadMNIST(30, 10, 7)
	if source != "synthetic" {
		t.Fatalf("source %q", source)
	}
	if train.Len() != 30 || test.Len() != 10 {
		t.Fatal("wrong sizes")
	}
}

func TestSyntheticMNISTIsLearnable(t *testing.T) {
	// A small dense model must learn the synthetic digits well above
	// chance in a few epochs — the property that makes the substitution
	// meaningful.
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	train := SyntheticMNIST(1500, 11).ToNN()
	test := SyntheticMNIST(300, 12).ToNN()
	rng := rand.New(rand.NewSource(5))
	m := &nn.Model{Layers: []nn.Layer{
		nn.NewFlatten(),
		nn.NewDense(rng, MNISTRows*MNISTCols, 64),
		nn.NewReLU(),
		nn.NewDense(rng, 64, 10),
	}}
	nn.Train(m, train, nn.TrainConfig{Epochs: 8, BatchSize: 32, MaxLR: 0.05, Momentum: 0.9, Seed: 1})
	acc := nn.Evaluate(m, test)
	if acc < 0.8 {
		t.Fatalf("synthetic digits should be learnable: accuracy %.3f", acc)
	}
}
