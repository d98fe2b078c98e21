package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metric is one measured value with its unit, as printed.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is a set of named values; set refuses a second value for a
// name so every metric is emitted exactly once.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) {
	if _, dup := m[name]; dup {
		panic("benchmark: metric " + name + " set twice")
	}
	m[name] = metric{Value: v, Unit: unit}
}

// metricDef is one row of BENCHMARK.json. Bound is the share of the
// parent's median an end-to-end metric may worsen by (0 for per-layer).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEndDefs are the gated metrics, emitted with --trace 0 on every
// workload. README.md gives their definitions, why three metrics the
// issue listed are per-layer instead, and why the four timings carry the
// widest bound the contract allows (this machine's speed drifts by ±10 %
// over minutes; ten runs of one commit spread by up to 11.5 %).
var endToEndDefs = []metricDef{
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"images_per_s", "1/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"cpu_s_per_image", "s", "lower", 0.25},
	{"alloc_mb_per_image", "MB", "lower", 0.02},
	{"logit_precision_bits", "bits", "higher", 0.15},
}

// perLayerDefs are emitted with --trace 1 on every workload.
var perLayerDefs = buildPerLayerDefs()

func buildPerLayerDefs() []metricDef {
	lower := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	higher := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	defs := []metricDef{
		lower("ring.ntt_us", "us"), lower("ring.intt_us", "us"), lower("ring.mul_coeffs_us", "us"),
		lower("ring.mul_coeffs_add_us", "us"), lower("ring.automorphism_us", "us"),
		lower("ring.divide_exact_us", "us"), lower("ring.extend_limb_us", "us"),
		higher("ring.parallel_speedup", "ratio"),

		lower("ckks.encode_us", "us"), lower("ckks.encrypt_us", "us"), lower("ckks.decrypt_decode_us", "us"),
		lower("ckks.mul_plain_us", "us"), lower("ckks.mul_relin_us", "us"), lower("ckks.rescale_us", "us"),
		lower("ckks.rotate_us", "us"), lower("ckks.rotate_hoisted8_us", "us"), lower("ckks.rotkey_gen_ms", "ms"),
		lower("ckks.ct_marshal_us", "us"), lower("ckks.ct_unmarshal_us", "us"), lower("ckks.ct_bytes", "B"),
	}
	for _, k := range evalKinds {
		defs = append(defs, lower("engine."+kindNames[k]+".calls", "count"), lower("engine."+kindNames[k]+".busy_pct", "%"))
	}
	return append(defs,
		lower("engine.rotate.outputs", "count"),

		lower("exec.run_ms", "ms"), lower("exec.self_ms", "ms"),
		lower("exec.prepare_ms", "ms"), lower("exec.prepared_plaintexts", "count"),

		lower("nn.load_model_ms", "ms"), lower("henn.compile_ms", "ms"), lower("henn.lower_ms", "ms"),
		lower("opt.optimize_ms", "ms"), lower("opt.engine_calls_before", "count"),
		lower("opt.engine_calls_after", "count"), lower("opt.rotate_calls_after", "count"),
		lower("henn.keygen_ms", "ms"), lower("henn.warm_ms", "ms"),

		lower("request.latency_ms", "ms"), lower("request.encrypt_ms", "ms"),
		lower("request.decrypt_ms", "ms"), lower("request.overhead_ms", "ms"),

		higher("serve.batch_fill", "ratio"), lower("serve.batches", "count"), lower("serve.rejected", "ratio"),

		lower("wire.kb_per_request", "kB"), lower("wire.upload_kb", "kB"), lower("wire.download_kb", "kB"),
		lower("keys.bundle_mb", "MB"),

		lower("proc.peak_rss_mb", "MB"), lower("proc.heap_inuse_mb", "MB"),
		lower("proc.gc_cycles_per_image", "count"), lower("proc.gc_pause_ms_per_image", "ms"),
		lower("proc.user_cpu_s", "s"), lower("proc.sys_cpu_s", "s"),

		lower("oracle.fail_rate", "ratio"),
		lower("residual.unattributed_pct", "%"), lower("trace.overhead_pct", "%"),
	)
}

// checkAgainst verifies m holds exactly the metrics of defs with their
// units, so the printed result and BENCHMARK.json cannot drift apart.
func (m metrics) checkAgainst(defs []metricDef) error {
	for _, d := range defs {
		got, ok := m[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if got.Unit != d.Unit {
			return fmt.Errorf("metric %s has unit %q, BENCHMARK.json says %q", d.Name, got.Unit, d.Unit)
		}
		if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, got.Value)
		}
	}
	if len(m) != len(defs) {
		return fmt.Errorf("%d metrics measured, %d defined", len(m), len(defs))
	}
	return nil
}

// median returns the middle of ds (mean of the two middle values for an
// even count), so a run of few requests still moves smoothly.
func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// latencies returns the client-observed latencies of the succeeded
// requests and the phase tally.
func latencies(rs []result) (ok []time.Duration, t tally) {
	for i := range rs {
		t.add(&rs[i])
		if rs[i].Err == nil {
			ok = append(ok, rs[i].Latency)
		}
	}
	return ok, t
}

// tail returns the highest percentile with at least ten samples beyond
// it (nearest rank), or (0, 0) when the run is too short to have one
// above the median.
func tail(ds []time.Duration) (pct float64, at time.Duration) {
	n := len(ds)
	if n < 21 {
		return 0, 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return math.Floor(100 * float64(n-10) / float64(n)), s[n-11]
}
