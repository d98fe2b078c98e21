package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"cnnhe/internal/nn"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFileMatchesProgram holds BENCHMARK.json to the tables
// the program prints from, and to the contract's limits.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	f := readBenchmarkFile(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(f.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(f.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(f.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", f.RunSeconds)
	}

	seen := map[string]bool{}
	unique := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %s", n, name)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	cfgs := workloadConfigs()
	if len(cfgs) != len(f.Workloads) {
		t.Fatalf("program has %d workloads, BENCHMARK.json %d", len(cfgs), len(f.Workloads))
	}
	for i, w := range f.Workloads {
		unique(w.Name)
		if w.Name != cfgs[i].Name || w.Why != cfgs[i].Why {
			t.Errorf("workload %d: file has %q (%q), program %q (%q)", i, w.Name, w.Why, cfgs[i].Name, cfgs[i].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	var e2e, layer []metricDef
	hasSetup := false
	for _, m := range f.EndToEnd {
		unique(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better, m.Bound})
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range f.PerLayer {
		unique(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		layer = append(layer, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEndDefs) {
		t.Errorf("end_to_end differs from endToEndDefs:\nfile    %v\nprogram %v", e2e, endToEndDefs)
	}
	if !reflect.DeepEqual(layer, perLayerDefs) {
		t.Errorf("per_layer differs from perLayerDefs:\nfile    %v\nprogram %v", layer, perLayerDefs)
	}
}

// tinyConfigs are the four routes at TinyParameters scale (N = 2^10,
// four levels): same code paths as the real workloads, seconds instead
// of minutes.
func tinyConfigs() []config {
	model := func(string) (*nn.Model, error) { return tinyModel(61), nil }
	// A dense layer wider than the 512 slots, so the input splits into
	// three shards like CNN3's does at full scale.
	wide := func(string) (*nn.Model, error) {
		rng := rand.New(rand.NewSource(41))
		return &nn.Model{Layers: []nn.Layer{nn.NewDense(rng, 1200, 7)}}, nil
	}
	images := func(dim int) func(n int, seed int64) [][]float64 {
		return func(n int, seed int64) [][]float64 {
			out := make([][]float64, n)
			for i := range out {
				out[i] = randomPixels(dim, seed*100+int64(i))
			}
			return out
		}
	}
	base := config{LogN: 10, Bits: tinyBits, SpecialBits: 60, Scale: math.Exp2(30), Clients: 1, SetupReps: 2,
		LoadModel: model, Shape: []int{1, 8, 8}, Images: images(64)}
	plan, sharded, served, keyed := base, base, base, base
	plan.Name, plan.Route = "cnn1_single", routePlan
	sharded.Name, sharded.Route = "cnn3_sharded", routeSharded
	sharded.LoadModel, sharded.Shape, sharded.Images = wide, []int{1200}, images(1200)
	served.Name, served.Route, served.Batch, served.Clients = "serve_batched", routeServe, 2, 4
	keyed.Name, keyed.Route, keyed.KeySets = "keyed_encrypted", routeKeyed, 2
	return []config{plan, sharded, served, keyed}
}

// TestSmokeEveryWorkload runs each route once untraced and once traced
// and checks that every metric BENCHMARK.json names comes out exactly
// once with its unit (measure fails otherwise), that every answer
// passed the oracle, and that the trace file loads.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four encrypted workloads; skipped with -short")
	}
	for _, cfg := range tinyConfigs() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			out := t.TempDir()
			for _, traced := range []bool{false, true} {
				rep, err := measure(context.Background(), &cfg, "", out, 3, 1, traced, io.Discard)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if rep.Timed.Failed != 0 || rep.Warmup.Failed != 0 || rep.Timed.Sent == 0 {
					t.Errorf("traced=%v: warm-up %+v, timed %+v", traced, rep.Warmup, rep.Timed)
				}
				if cfg.Route == routeServe && rep.Timed.Sent%cfg.Batch != 0 {
					t.Errorf("traced=%v: %d requests sent, not a multiple of the batch capacity", traced, rep.Timed.Sent)
				}
			}
			raw, err := os.ReadFile(filepath.Join(out, "trace-"+cfg.Name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tr struct {
				TraceEvents []chromeEvent `json:"traceEvents"`
			}
			if err := json.Unmarshal(raw, &tr); err != nil {
				t.Fatalf("trace does not load: %v", err)
			}
			engine := 0
			for _, ev := range tr.TraceEvents {
				if ev.Cat == "engine" {
					engine++
				}
			}
			if engine == 0 {
				t.Error("trace holds no engine spans")
			}
		})
	}
}
