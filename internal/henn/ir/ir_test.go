package ir

import (
	"strings"
	"testing"
)

// smallGraph builds a valid two-stage graph: encrypt → hoisted rotations →
// mulplain → add → rescale.
func smallGraph() *Graph {
	g := &Graph{
		Slots:  8,
		Inputs: 1,
		Stages: []StageInfo{
			{Name: "encrypt", Out: 0, Record: false},
			{Name: "stage 0 (linear)", Out: 5, Record: true},
		},
		Hoists: [][]int{{1, 2}},
	}
	g.Ops = []Op{
		{ID: 0, Kind: OpEncrypt, InputIdx: 0, Stage: 0, Level: 3, Scale: 1 << 20},
		{ID: 1, Kind: OpRotate, Args: []int{0}, K: 1, Hoist: 0, Stage: 1, Level: 3, Scale: 1 << 20},
		{ID: 2, Kind: OpRotate, Args: []int{0}, K: 2, Hoist: 0, Stage: 1, Level: 3, Scale: 1 << 20},
		{ID: 3, Kind: OpMulPlain, Args: []int{1}, Plain: []float64{1, 2}, PtScale: 1 << 20, Stage: 1, Level: 3, Scale: 1 << 40},
		{ID: 4, Kind: OpMulPlain, Args: []int{2}, Plain: []float64{3, 4}, PtScale: 1 << 20, Stage: 1, Level: 3, Scale: 1 << 40},
		{ID: 5, Kind: OpAdd, Args: []int{3, 4}, Stage: 1, Level: 3, Scale: 1 << 40},
	}
	g.Output = 5
	return g
}

func TestValidateAccepts(t *testing.T) {
	if err := smallGraph().Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
}

// TestValidateDropLevel: a drop of one level or more is valid; a drop of
// 0 is the identity, which an engine may answer with its operand, so a
// graph holding one is rejected (see TestValidateRejects).
func TestValidateDropLevel(t *testing.T) {
	g := smallGraph()
	g.Ops[5] = Op{ID: 5, Kind: OpDropLevel, Args: []int{3}, Drop: 1, Stage: 1, Level: 2, Scale: 1 << 40}
	if err := g.Validate(); err != nil {
		t.Fatalf("drop of one level rejected: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Graph)
		want   string
	}{
		{"forward-arg", func(g *Graph) { g.Ops[3].Args = []int{5} }, "topological"},
		{"bad-output", func(g *Graph) { g.Output = 99 }, "output"},
		{"zero-rotation", func(g *Graph) { g.Ops[1].K = 0 }, "rotates by 0"},
		{"zero-drop", func(g *Graph) {
			g.Ops[5] = Op{ID: 5, Kind: OpDropLevel, Args: []int{3}, Stage: 1, Level: 3, Scale: 1 << 40}
		}, "drops 0 levels"},
		{"negative-drop", func(g *Graph) {
			g.Ops[5] = Op{ID: 5, Kind: OpDropLevel, Args: []int{3}, Drop: -1, Stage: 1, Level: 4, Scale: 1 << 40}
		}, "drops -1 levels"},
		{"repeated-hoisted-k", func(g *Graph) { g.Ops[2].K = 1 }, "rotates by 1 twice"},
		{"bad-scale", func(g *Graph) { g.Ops[5].Scale = 0 }, "scale"},
		{"negative-level", func(g *Graph) { g.Ops[5].Level = -1 }, "level"},
		{"bad-stage", func(g *Graph) { g.Ops[5].Stage = 7 }, "stage"},
		{"mixed-hoist", func(g *Graph) { g.Ops[2].Args = []int{1} }, "hoist"},
		{"add-arity", func(g *Graph) { g.Ops[5].Args = []int{3} }, "args"},
		{"mulplain-no-operand", func(g *Graph) { g.Ops[3].Plain = nil }, "operand"},
		{"bad-input-idx", func(g *Graph) { g.Ops[0].InputIdx = 2 }, "input"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := smallGraph()
			tc.mutate(g)
			err := g.Validate()
			if err == nil {
				t.Fatalf("mutation %s not rejected", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("mutation %s rejected with %q, want substring %q", tc.name, err, tc.want)
			}
		})
	}
}

func TestValidateRecombineWeights(t *testing.T) {
	g := smallGraph()
	g.Ops = append(g.Ops, Op{
		ID: 6, Kind: OpRecombine, Args: []int{5, 4}, Weights: []int64{1, 3},
		Stage: 1, Level: 3, Scale: 1 << 40,
	})
	g.Output = 6
	if err := g.Validate(); err != nil {
		t.Fatalf("recombine rejected: %v", err)
	}
	g.Ops[6].Weights = []int64{2, 3}
	if err := g.Validate(); err == nil {
		t.Fatal("recombine with weight[0] != 1 accepted")
	}
	g.Ops[6].Weights = []int64{1}
	if err := g.Validate(); err == nil {
		t.Fatal("recombine weight/arg mismatch accepted")
	}
}

func TestStats(t *testing.T) {
	s := smallGraph().Stats()
	if s.Ops != 6 || s.ByKind[OpRotate] != 2 || s.ByKind[OpMulPlain] != 2 || s.Hoists != 1 || s.Plains != 2 {
		t.Fatalf("unexpected stats: %+v", s)
	}
	if s.MinLevel != 3 {
		t.Fatalf("min level %d, want 3", s.MinLevel)
	}
	// 6 ops, but the 2-member hoist group is one RotateMany call.
	if s.EngineCalls != 5 {
		t.Fatalf("engine calls %d, want 5", s.EngineCalls)
	}
	if s.RotateCalls() != 1 {
		t.Fatalf("rotate calls %d, want 1", s.RotateCalls())
	}
	if str := s.String(); !strings.Contains(str, "6 ops") || !strings.Contains(str, "1 hoist") {
		t.Fatalf("stats string %q", str)
	}
}

// TestStatsEmptyGraph pins the empty-graph MinLevel behavior: 0, not the
// 1<<30 sentinel the minimum scan starts from.
func TestStatsEmptyGraph(t *testing.T) {
	s := (&Graph{}).Stats()
	if s.MinLevel != 0 {
		t.Fatalf("empty graph min level %d, want 0", s.MinLevel)
	}
	if s.Ops != 0 || s.EngineCalls != 0 {
		t.Fatalf("empty graph stats: %+v", s)
	}
	if strings.Contains(s.String(), "1073741824") {
		t.Fatalf("sentinel leaked into stats string: %q", s)
	}
}

// TestValidateHoistGroupEdgeCases covers the shapes optimizer rewrites
// can produce: a group emptied by DCE must be rejected (the builder
// compacts groups away instead of leaving empty ones), a group whose
// member list disagrees with the op's Hoist tag after a CSE merge must
// be rejected, and out-of-order group IDs (relative to op order) are
// structurally fine.
func TestValidateHoistGroupEdgeCases(t *testing.T) {
	t.Run("empty-group-after-dce", func(t *testing.T) {
		g := smallGraph()
		g.Hoists = append(g.Hoists, nil)
		err := g.Validate()
		if err == nil || !strings.Contains(err.Error(), "empty hoist group") {
			t.Fatalf("empty hoist group accepted (err=%v)", err)
		}
	})
	t.Run("cse-merged-member", func(t *testing.T) {
		// A CSE merge that drops op 2 but leaves it listed in the group:
		// the member no longer tags the group.
		g := smallGraph()
		g.Ops[2].Hoist = -1
		err := g.Validate()
		if err == nil || !strings.Contains(err.Error(), "not its rotation") {
			t.Fatalf("stale hoist member accepted (err=%v)", err)
		}
	})
	t.Run("member-out-of-range", func(t *testing.T) {
		g := smallGraph()
		g.Hoists[0] = []int{1, 99}
		err := g.Validate()
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("out-of-range member accepted (err=%v)", err)
		}
	})
	t.Run("out-of-order-group-ids", func(t *testing.T) {
		// Group 1's rotations precede group 0's in op order — legal: group
		// IDs are labels, not a schedule.
		g := &Graph{
			Slots:  8,
			Inputs: 1,
			Stages: []StageInfo{{Name: "s", Out: 5, Record: true}},
			Hoists: [][]int{{3, 4}, {1, 2}},
		}
		g.Ops = []Op{
			{ID: 0, Kind: OpEncrypt, InputIdx: 0, Hoist: -1, Level: 3, Scale: 1 << 20},
			{ID: 1, Kind: OpRotate, Args: []int{0}, K: 1, Hoist: 1, Level: 3, Scale: 1 << 20},
			{ID: 2, Kind: OpRotate, Args: []int{0}, K: 2, Hoist: 1, Level: 3, Scale: 1 << 20},
			{ID: 3, Kind: OpRotate, Args: []int{0}, K: 3, Hoist: 0, Level: 3, Scale: 1 << 20},
			{ID: 4, Kind: OpRotate, Args: []int{0}, K: 4, Hoist: 0, Level: 3, Scale: 1 << 20},
			{ID: 5, Kind: OpAdd, Args: []int{1, 3}, Hoist: -1, Level: 3, Scale: 1 << 20},
		}
		g.Output = 5
		if err := g.Validate(); err != nil {
			t.Fatalf("out-of-order hoist IDs rejected: %v", err)
		}
	})
}

func TestKindString(t *testing.T) {
	for k := OpEncrypt; k <= OpRecombine; k++ {
		if strings.HasPrefix(k.String(), "ir.Kind(") {
			t.Fatalf("kind %d has no name", int(k))
		}
	}
	if Kind(99).String() != "ir.Kind(99)" {
		t.Fatalf("unknown kind string: %s", Kind(99))
	}
}
