// Command hebench regenerates the paper's evaluation tables and figures
// as markdown (see DESIGN.md §4 for the experiment index). Latency is
// recorded and gated by the benchmark/ harness (BENCHMARK.json), not here.
//
// Usage:
//
//	hebench -table all                # Tables I–VI + Fig 5 + ablation
//	hebench -table 3 -runs 5          # just Table III
//	hebench -table cnn3               # sharded CIFAR-10 CNN3 (not in "all"; slow)
//	hebench -paper                    # paper-scale settings (N=2^14, slow)
//	hebench -out EXPERIMENTS.generated.md
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"strings"

	"cnnhe/internal/bench"
	"cnnhe/internal/henn/ir/opt"
	"cnnhe/internal/ring"
	"cnnhe/internal/telemetry"
)

// parseLevel maps a -log-level flag value to a slog level.
func parseLevel(s string) slog.Level {
	switch s {
	case "debug":
		return slog.LevelDebug
	case "warn":
		return slog.LevelWarn
	case "error":
		return slog.LevelError
	}
	return slog.LevelInfo
}

func main() {
	var (
		table    = flag.String("table", "all", "which experiment: 1,2,3,4,5,6,fig5,ablation,cnn3 or all (cnn3 is opt-in: beyond-paper scale)")
		logN     = flag.Int("logn", 0, "override ring degree exponent")
		runs     = flag.Int("runs", 0, "override latency runs per row")
		accImgs  = flag.Int("images", 0, "override encrypted-accuracy image count")
		trainN   = flag.Int("train", 0, "override training set size")
		epochs   = flag.Int("epochs", 0, "override training epochs")
		paper    = flag.Bool("paper", false, "paper-scale settings (N=2^14, 30 epochs; hours)")
		outPath  = flag.String("out", "", "also write the report to this file")
		models   = flag.String("models", "models", "model cache directory")
		seed     = flag.Int64("seed", 1, "random seed")
		optFlag  = flag.String("opt", "on", "graph optimizer: on or off")
		telAddr  = flag.String("telemetry-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address while benchmarking (empty = off)")
		logLevel = flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
		ringPar  = flag.Bool("ring-parallel", ring.ParallelDefault(), "limb/slab-parallel ring kernels (default: on when GOMAXPROCS > 1)")
	)
	flag.Parse()

	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr,
		&slog.HandlerOptions{Level: parseLevel(*logLevel)})))
	ring.SetParallelDefault(*ringPar)
	slog.Info("ring kernels", "ring_parallel", *ringPar, "gomaxprocs", runtime.GOMAXPROCS(0))
	fatal := func(msg string, args ...any) {
		slog.Error(msg, args...)
		os.Exit(1)
	}

	if *telAddr != "" {
		srv, err := telemetry.Serve(*telAddr, nil)
		if err != nil {
			fatal("telemetry server failed", "err", err)
		}
		defer srv.Close()
		slog.Info("telemetry listening", "url", "http://"+srv.Addr)
	}

	cfg := bench.DefaultConfig()
	if *paper {
		cfg = bench.PaperConfig()
	}
	cfg.Seed = *seed
	cfg.ModelDir = *models
	cfg.Verbose = true
	optOpts, err := opt.ParseFlag(*optFlag)
	if err != nil {
		fatal("bad -opt flag", "opt", *optFlag, "err", err)
	}
	cfg.Opt = optOpts
	if *logN > 0 {
		cfg.LogN = *logN
	}
	if *runs > 0 {
		cfg.Runs = *runs
	}
	if *accImgs > 0 {
		cfg.AccImages = *accImgs
	}
	if *trainN > 0 {
		cfg.TrainN = *trainN
	}
	if *epochs > 0 {
		cfg.Epochs = *epochs
	}

	var w io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatal("creating report file failed", "path", *outPath, "err", err)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	want := map[string]bool{}
	for _, t := range strings.Split(*table, ",") {
		want[strings.TrimSpace(t)] = true
	}
	all := want["all"]
	needModels := all || want["1"] || want["3"] || want["4"] || want["5"] || want["6"] || want["fig5"]

	var ms *bench.Models
	if needModels {
		var err error
		ms, err = bench.TrainModels(cfg, os.Stderr)
		if err != nil {
			fatal("training models failed", "err", err)
		}
	}
	// The sharded CIFAR-10 workload is opt-in ("-table cnn3"): its
	// encrypted runs are far slower than the paper tables and it is not
	// part of the paper's evaluation section.
	var m3 *bench.CNN3Models
	if want["cnn3"] {
		var err error
		m3, err = bench.TrainCNN3(cfg, os.Stderr)
		if err != nil {
			fatal("training cnn3 failed", "err", err)
		}
	}

	var measured []bench.HEResult
	run := func(name string, f func() error) {
		fmt.Fprintf(os.Stderr, "--- running %s ---\n", name)
		if err := f(); err != nil {
			fatal("experiment failed", "table", name, "err", err)
		}
	}

	if all || want["2"] {
		run("Table II", func() error { return bench.TableII(w) })
	}
	if all || want["3"] {
		run("Table III", func() error {
			rows, err := bench.TableIII(cfg, ms, w)
			measured = append(measured, rows...)
			return err
		})
	}
	if all || want["4"] {
		run("Table IV", func() error { return bench.TableIV(cfg, ms, w) })
	}
	if all || want["5"] {
		run("Table V", func() error {
			rows, err := bench.TableV(cfg, ms, w)
			measured = append(measured, rows...)
			return err
		})
	}
	if all || want["6"] {
		run("Table VI", func() error { return bench.TableVI(cfg, ms, w) })
	}
	if all || want["fig5"] {
		run("Figure 5", func() error { return bench.Fig5(cfg, ms, w) })
	}
	if all || want["ablation"] {
		run("limb-width ablation", func() error { return bench.LimbWidthAblation(cfg, w) })
	}
	if want["cnn3"] {
		run("Table CNN3 (sharded CIFAR-10)", func() error { return bench.TableCNN3(cfg, m3, w) })
	}
	if all || want["1"] {
		bench.TableI(w, measured, ms.DataSource)
	}
}
