// Command hebench regenerates the paper's evaluation tables and figures
// (see DESIGN.md §4 for the experiment index).
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
	"time"

	"cnnhe/internal/bench"
	"cnnhe/internal/henn/ir/opt"
	"cnnhe/internal/nn"
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
		jsonOut  = flag.String("json", "", "machine-readable report path (default BENCH_<timestamp>.json; \"none\" disables)")
		models   = flag.String("models", "models", "model cache directory")
		seed     = flag.Int64("seed", 1, "random seed")
		optFlag  = flag.String("opt", "on", "graph optimizer: on, off, exact, or a comma-separated pass list")
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

	// Metric collection is always on in hebench: the per-op counters feed
	// the JSON report's op_breakdown section (atomic increments, noise-
	// level next to the NTTs being measured).
	telemetry.SetEnabled(true)
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
	var jsonRows []bench.JSONRow
	opBreakdown := map[string][]bench.JSONOpKind{}
	// run executes one table, diffing the telemetry registry around it so
	// the JSON report carries a per-op-kind executor profile per table
	// (key matches JSONRow.Table).
	run := func(key, name string, f func() error) {
		fmt.Fprintf(os.Stderr, "--- running %s ---\n", name)
		before := telemetry.Default().Snapshot()
		if err := f(); err != nil {
			fatal("experiment failed", "table", name, "err", err)
		}
		diff := telemetry.Default().Snapshot().Sub(before)
		if ops := bench.OpBreakdownFromDiff(diff); ops != nil {
			opBreakdown[key] = ops
		}
	}

	if all || want["2"] {
		run("II", "Table II", func() error { return bench.TableII(w) })
	}
	if all || want["3"] {
		run("III", "Table III", func() error {
			rows, err := bench.TableIII(cfg, ms, w)
			measured = append(measured, rows...)
			jsonRows = append(jsonRows, bench.JSONRows("III", cfg.LogN, rows)...)
			return err
		})
	}
	if all || want["4"] {
		run("IV", "Table IV", func() error {
			rows, err := bench.TableIV(cfg, ms, w)
			jsonRows = append(jsonRows, bench.JSONRows("IV", cfg.LogN, rows)...)
			return err
		})
	}
	if all || want["5"] {
		run("V", "Table V", func() error {
			rows, err := bench.TableV(cfg, ms, w)
			measured = append(measured, rows...)
			jsonRows = append(jsonRows, bench.JSONRows("V", cfg.LogN, rows)...)
			return err
		})
	}
	if all || want["6"] {
		run("VI", "Table VI", func() error {
			rows, err := bench.TableVI(cfg, ms, w)
			jsonRows = append(jsonRows, bench.JSONRows("VI", cfg.LogN, rows)...)
			return err
		})
	}
	if all || want["fig5"] {
		run("fig5", "Figure 5", func() error { return bench.Fig5(cfg, ms, w) })
	}
	if all || want["ablation"] {
		run("ablation", "limb-width ablation", func() error { return bench.LimbWidthAblation(cfg, w) })
	}
	if want["cnn3"] {
		run("CNN3", "Table CNN3 (sharded CIFAR-10)", func() error {
			rows, err := bench.TableCNN3(cfg, m3, w)
			jsonRows = append(jsonRows, bench.JSONRows("CNN3", cfg.LogN, rows)...)
			return err
		})
	}
	if all || want["1"] {
		bench.TableI(w, measured, ms.DataSource)
	}

	if *jsonOut != "none" && len(jsonRows) > 0 {
		now := time.Now()
		path := *jsonOut
		if path == "" {
			path = "BENCH_" + now.Format("20060102T150405") + ".json"
		}
		graphModels := map[string]*nn.Model{}
		if ms != nil {
			graphModels["CNN1"], graphModels["CNN2"] = ms.CNN1, ms.CNN2
		}
		if m3 != nil {
			graphModels["CNN3"] = m3.CNN3
		}
		graphs, err := bench.GraphSizes(cfg, graphModels)
		if err != nil {
			fatal("collecting graph sizes failed", "err", err)
		}
		if err := bench.WriteJSON(path, cfg, now, jsonRows, opBreakdown, graphs); err != nil {
			fatal("writing json report failed", "path", path, "err", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d rows)\n", path, len(jsonRows))
	}
}
