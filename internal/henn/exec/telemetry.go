package exec

import (
	"context"
	"sync"
	"time"

	"cnnhe/internal/henn/ir"
	"cnnhe/internal/telemetry"
)

// execMetrics bundles the process-global executor instruments. They are
// registered once, on the first run that finds telemetry enabled, so a
// process that never enables telemetry never touches the registry.
type execMetrics struct {
	runs      *telemetry.Counter
	opsByKind [ir.OpRecombine + 1]*telemetry.Counter
	durByKind [ir.OpRecombine + 1]*telemetry.Histogram
	queueWait *telemetry.Histogram

	hoistGroups    *telemetry.Counter
	hoistRotations *telemetry.Counter
	hoistSaved     *telemetry.Counter
}

var (
	execMetricsOnce sync.Once
	execMetricsVal  *execMetrics
)

func globalExecMetrics() *execMetrics {
	execMetricsOnce.Do(func() {
		r := telemetry.Default()
		m := &execMetrics{
			runs: r.Counter("cnnhe_exec_runs_total",
				"op-graph executor runs started"),
			queueWait: r.Histogram("cnnhe_exec_queue_wait_seconds",
				"time tasks spent runnable before a worker picked them up", nil),
			hoistGroups: r.Counter("cnnhe_exec_hoist_groups_total",
				"hoisted rotation groups executed as one RotateMany"),
			hoistRotations: r.Counter("cnnhe_exec_hoist_rotations_total",
				"rotations served by hoisted RotateMany calls"),
			hoistSaved: r.Counter("cnnhe_exec_hoist_saved_keyswitch_total",
				"key-switch decompositions avoided by hoisting (group size − 1 each)"),
		}
		for k := ir.OpEncrypt; k <= ir.OpRecombine; k++ {
			m.opsByKind[k] = r.Counter("cnnhe_exec_ops_total",
				"executed HE ops by kind", telemetry.L("kind", k.String()))
			m.durByKind[k] = r.Histogram("cnnhe_exec_op_seconds",
				"engine-call latency by op kind", nil, telemetry.L("kind", k.String()))
		}
		execMetricsVal = m
	})
	return execMetricsVal
}

// runTel is the per-run telemetry context. A nil *runTel means telemetry
// is fully off for the run, so every instrumentation site reduces to one
// nil check on the hot path.
type runTel struct {
	rec *telemetry.RunRecorder // nil unless the caller attached one
	m   *execMetrics           // nil unless telemetry.Enabled()

	readyAt []time.Time // per task: when it became runnable
}

// newRunTel resolves the run's telemetry context from ctx and the global
// enabled flag. Returns nil when both tracing and metrics are off.
func newRunTel(ctx context.Context, tasks int) *runTel {
	rec := telemetry.RecorderFrom(ctx)
	var m *execMetrics
	if telemetry.Enabled() {
		m = globalExecMetrics()
	}
	if rec == nil && m == nil {
		return nil
	}
	return &runTel{rec: rec, m: m, readyAt: make([]time.Time, tasks)}
}

// queuedAt returns the task's runnable instant.
func (t *runTel) queuedAt(task int) time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.readyAt[task]
}

// tracing reports whether span recording is on for this run — the gate
// for observing per-op ciphertext attributes (level/scale/noise), which
// cost engine calls the metrics-only path must not pay.
func (t *runTel) tracing() bool { return t != nil && t.rec != nil }

// heAttr carries the observed output-ciphertext attributes of one op.
// The zero value (Scale 0) means "unobserved".
type heAttr struct {
	Level int
	Scale float64
	Noise float64
}

// opExecuted records one engine call covering n logical ops: a span on
// the run recorder, and kind-labelled global metrics. n > 1 is a hoist
// group (n rotations, savedKS shared decompositions) or a recombine with
// the n−1 plaintext products it absorbed.
func (t *runTel) opExecuted(kind ir.Kind, stage string, worker int, queued, start, end time.Time, n, savedKS int, he heAttr) {
	if t == nil {
		return
	}
	if t.rec != nil {
		t.rec.Record(telemetry.OpSpan{
			Kind:           kind.String(),
			Stage:          stage,
			Worker:         worker,
			Queued:         queued,
			Start:          start,
			End:            end,
			Ops:            n,
			SavedKeySwitch: savedKS,
			Level:          he.Level,
			Scale:          he.Scale,
			NoiseBits:      he.Noise,
		})
	}
	if t.m != nil {
		if kind == ir.OpRecombine {
			t.m.opsByKind[ir.OpRecombine].Inc()
			t.m.opsByKind[ir.OpMulPlain].Add(int64(n - 1))
		} else {
			t.m.opsByKind[kind].Add(int64(n))
		}
		t.m.durByKind[kind].Observe(end.Sub(start).Seconds())
		if !queued.IsZero() && start.After(queued) {
			t.m.queueWait.Observe(start.Sub(queued).Seconds())
		}
		if kind == ir.OpRotate && n > 1 {
			t.m.hoistGroups.Inc()
			t.m.hoistRotations.Add(int64(n))
			t.m.hoistSaved.Add(int64(savedKS))
		}
	}
}

// runStarted counts the run and returns t unchanged (for chaining).
func (t *runTel) runStarted() *runTel {
	if t != nil && t.m != nil {
		t.m.runs.Inc()
	}
	return t
}

// phase records one coarse pipeline phase span on the recorder.
func (t *runTel) phase(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.rec.RecordPhase(name, start, end)
}
