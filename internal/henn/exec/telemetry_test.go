package exec

import (
	"context"
	"testing"

	"cnnhe/internal/henn/ir"
	"cnnhe/internal/telemetry"
)

// expected per-kind logical-op counts for one run of testGraph.
var testGraphKinds = map[string]int64{
	"Encrypt":  1,
	"Rotate":   2, // hoisted pair, one RotateMany call
	"Add":      1,
	"MulPlain": 1,
	"AddPlain": 1,
	"MulRelin": 1,
	"Rescale":  1,
}

func runTraced(t *testing.T, workers int) *telemetry.RunRecorder {
	t.Helper()
	p, err := Prepare(&fakeEngine{}, testGraph())
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.NewRunRecorder()
	ctx := telemetry.WithRecorder(context.Background(), rec)
	if _, err := p.runWorkers(ctx, [][]float64{{1, 2, 3, 4}}, workers); err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestTraceCoversEveryOp asserts the recorder sees one logical op per
// graph op, on one worker and on four, with the hoist group collapsed
// into a single RotateMany span, and every eval span stamped with the
// instant its task became ready.
func TestTraceCoversEveryOp(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"sequential", 1},
		{"parallel", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := runTraced(t, tc.workers)
			g := testGraph()
			if got := rec.OpCount(); got != len(g.Ops) {
				t.Fatalf("recorded %d logical ops, graph has %d", got, len(g.Ops))
			}
			byKind := rec.ByKind()
			for kind, want := range testGraphKinds {
				if got := byKind[kind].Count; got != want {
					t.Errorf("kind %s: %d ops recorded, want %d", kind, got, want)
				}
			}
			rot := byKind["Rotate"]
			if rot.Calls != 1 {
				t.Errorf("hoisted rotations took %d engine calls, want 1", rot.Calls)
			}
			var hoistSpan bool
			for _, sp := range rec.Spans() {
				if sp.Kind == "Rotate" && sp.Ops == 2 {
					hoistSpan = true
					if sp.SavedKeySwitch != 1 {
						t.Errorf("hoist span saved %d key-switches, want 1", sp.SavedKeySwitch)
					}
				}
				if sp.Stage == "" {
					t.Errorf("span %s has no stage", sp.Kind)
				}
				if sp.End.Before(sp.Start) {
					t.Errorf("span %s ends before it starts", sp.Kind)
				}
			}
			if !hoistSpan {
				t.Error("no hoist-group span recorded")
			}
			phases := rec.Phases()
			if len(phases) != 2 || phases[0].Name != "encrypt" || phases[1].Name != "eval" {
				t.Fatalf("phases %+v, want encrypt + eval", phases)
			}
			for _, sp := range rec.Spans() {
				if sp.Kind != "Encrypt" && sp.Queued.IsZero() {
					t.Errorf("%s span has no queued instant", sp.Kind)
				}
			}
		})
	}
}

// TestGlobalMetricsWhenEnabled runs the graph with the registry enabled
// and checks the per-kind counters and hoist counters via snapshot diff.
func TestGlobalMetricsWhenEnabled(t *testing.T) {
	telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(false)
	before := telemetry.Default().Snapshot()

	p, err := Prepare(&fakeEngine{}, testGraph())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(context.Background(), [][]float64{{1, 2, 3, 4}}); err != nil {
		t.Fatal(err)
	}

	diff := telemetry.Default().Snapshot().Sub(before)
	ops, ok := diff.Family("cnnhe_exec_ops_total")
	if !ok {
		t.Fatal("cnnhe_exec_ops_total not registered")
	}
	got := map[string]int64{}
	for _, s := range ops.Series {
		got[s.Label("kind")] = int64(s.Value)
	}
	for kind, want := range testGraphKinds {
		if got[kind] != want {
			t.Errorf("ops_total{kind=%q} = %d, want %d", kind, got[kind], want)
		}
	}
	check := func(name string, want float64) {
		t.Helper()
		f, ok := diff.Family(name)
		if !ok || len(f.Series) != 1 {
			t.Fatalf("%s missing from snapshot", name)
		}
		if f.Series[0].Value != want {
			t.Errorf("%s = %v, want %v", name, f.Series[0].Value, want)
		}
	}
	check("cnnhe_exec_runs_total", 1)
	check("cnnhe_exec_hoist_groups_total", 1)
	check("cnnhe_exec_hoist_rotations_total", 2)
	check("cnnhe_exec_hoist_saved_keyswitch_total", 1)

	dur, ok := diff.Family("cnnhe_exec_op_seconds")
	if !ok {
		t.Fatal("cnnhe_exec_op_seconds not registered")
	}
	var calls int64
	for _, s := range dur.Series {
		calls += s.Count
	}
	// 7 engine calls with the hoist pair collapsed, plus the encrypt.
	if calls != 7 {
		t.Errorf("op_seconds observed %d engine calls, want 7", calls)
	}
}

// TestDisabledRunRecordsNothing pins the off state: no recorder in ctx
// and the global flag off must leave the registry untouched.
func TestDisabledRunRecordsNothing(t *testing.T) {
	if telemetry.Enabled() {
		t.Skip("telemetry enabled by another test")
	}
	before := telemetry.Default().Snapshot()
	p, err := Prepare(&fakeEngine{}, testGraph())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(context.Background(), [][]float64{{1, 2, 3, 4}}); err != nil {
		t.Fatal(err)
	}
	diff := telemetry.Default().Snapshot().Sub(before)
	if f, ok := diff.Family("cnnhe_exec_runs_total"); ok && len(f.Series) > 0 && f.Series[0].Value != 0 {
		t.Fatal("disabled run incremented the runs counter")
	}
}

func benchGraph(b *testing.B) *Prepared {
	b.Helper()
	p, err := Prepare(&fakeEngine{quiet: true}, testGraph())
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkRunEncrypted quantifies executor telemetry overhead. The
// "disabled" case is the production default (no recorder, flag off): its
// per-op cost over an uninstrumented build is one nil pointer check.
// Compare against "metrics" / "traced" to see the enabled cost.
func BenchmarkRunEncrypted(b *testing.B) {
	in := [][]float64{{1, 2, 3, 4}}
	run := func(b *testing.B, mkCtx func() context.Context) {
		p := benchGraph(b)
		cts, _, _, err := p.EncryptInputs(context.Background(), in)
		if err != nil {
			b.Fatal(err)
		}
		var out ir.Ct
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := p.RunEncrypted(mkCtx(), cts, Options{})
			if err != nil {
				b.Fatal(err)
			}
			out = res.Out
		}
		_ = out
	}
	b.Run("disabled", func(b *testing.B) {
		telemetry.SetEnabled(false)
		run(b, context.Background)
	})
	b.Run("metrics", func(b *testing.B) {
		telemetry.SetEnabled(true)
		defer telemetry.SetEnabled(false)
		run(b, context.Background)
	})
	b.Run("traced", func(b *testing.B) {
		telemetry.SetEnabled(false)
		run(b, func() context.Context {
			return telemetry.WithRecorder(context.Background(), telemetry.NewRunRecorder())
		})
	})
}
