package henn

import (
	"sync"

	"cnnhe/internal/henn/ir/opt"
	"cnnhe/internal/telemetry"
)

// inferTelSet bundles the inference-level instruments. Registered once,
// on the first inference that finds telemetry enabled.
type inferTelSet struct {
	inflight    *telemetry.Gauge
	infers      *telemetry.Counter
	cacheHits   *telemetry.Counter
	cacheMisses *telemetry.Counter
}

var (
	inferTelOnce sync.Once
	inferTelVal  *inferTelSet
)

// inferTel returns the instrument set, or nil when telemetry is
// disabled (the hot-path cost of the off state is this one flag load).
func inferTel() *inferTelSet {
	if !telemetry.Enabled() {
		return nil
	}
	inferTelOnce.Do(func() {
		r := telemetry.Default()
		inferTelVal = &inferTelSet{
			inflight: r.Gauge("cnnhe_infer_inflight",
				"encrypted inferences currently executing"),
			infers: r.Counter("cnnhe_infer_total",
				"encrypted inferences started"),
			cacheHits: r.Counter("cnnhe_prepare_cache_hits_total",
				"plan preparations served from the per-engine prepared-graph cache"),
			cacheMisses: r.Counter("cnnhe_prepare_cache_misses_total",
				"plan preparations that lowered and encoded a fresh graph"),
		}
	})
	return inferTelVal
}

// telInferStart counts one inference and raises the in-flight gauge;
// the returned func lowers it again (always non-nil).
func telInferStart() func() {
	t := inferTel()
	if t == nil {
		return func() {}
	}
	t.infers.Inc()
	t.inflight.Add(1)
	return func() { t.inflight.Add(-1) }
}

// telPrepare counts one prepared-graph cache lookup.
func telPrepare(hit bool) {
	t := inferTel()
	if t == nil {
		return
	}
	if hit {
		t.cacheHits.Inc()
	} else {
		t.cacheMisses.Inc()
	}
}

// optTelSet bundles the graph-optimizer instruments (cnnhe_opt_*).
// Registered once, on the first optimizer run with telemetry enabled.
type optTelSet struct {
	runs        *telemetry.Counter
	opsBefore   *telemetry.Counter
	opsAfter    *telemetry.Counter
	callsBefore *telemetry.Counter
	callsAfter  *telemetry.Counter
}

var (
	optTelOnce sync.Once
	optTelVal  *optTelSet
)

func optTel() *optTelSet {
	if !telemetry.Enabled() {
		return nil
	}
	optTelOnce.Do(func() {
		r := telemetry.Default()
		optTelVal = &optTelSet{
			runs: r.Counter("cnnhe_opt_runs_total",
				"graph optimizer runs"),
			opsBefore: r.Counter("cnnhe_opt_ops_before_total",
				"graph ops entering the optimizer"),
			opsAfter: r.Counter("cnnhe_opt_ops_after_total",
				"graph ops leaving the optimizer"),
			callsBefore: r.Counter("cnnhe_opt_engine_calls_before_total",
				"engine calls per run before optimization"),
			callsAfter: r.Counter("cnnhe_opt_engine_calls_after_total",
				"engine calls per run after optimization"),
		}
	})
	return optTelVal
}

// telOptimize records one optimizer outcome.
func telOptimize(res *opt.Result) {
	t := optTel()
	if t == nil || res == nil {
		return
	}
	t.runs.Inc()
	t.opsBefore.Add(int64(res.Before.Ops))
	t.opsAfter.Add(int64(res.After.Ops))
	t.callsBefore.Add(int64(res.Before.EngineCalls))
	t.callsAfter.Add(int64(res.After.EngineCalls))
}
