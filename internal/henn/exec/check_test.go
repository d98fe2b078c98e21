package exec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"cnnhe/internal/henn/ir"
)

// skewing moves the nth result of one engine call off the graph: one
// level down, or to twice its scale. A skewed RotateMany moves the
// rotation by its last amount. unfused makes the executor treat the
// engine as one without a fused recombine (see fuser).
type skewing struct {
	fusedFake
	call    string
	nth     int32 // 1-based
	level   bool
	unfused bool
	seen    *atomic.Int32
}

func (e skewing) Fuses() bool { return !e.unfused }

func (e skewing) move(call string, ct ir.Ct) ir.Ct {
	if call != e.call || e.seen.Add(1) != e.nth {
		return ct
	}
	c := ct.(*fakeCt)
	if e.level {
		c.level--
	} else {
		c.scale *= 2
	}
	return c
}

func (e skewing) MulPlainPt(ct ir.Ct, pt ir.Pt) ir.Ct {
	return e.move("MulPlainPt", e.fusedFake.MulPlainPt(ct, pt))
}

func (e skewing) Rescale(ct ir.Ct) ir.Ct { return e.move("Rescale", e.fusedFake.Rescale(ct)) }

func (e skewing) RotateMany(ct ir.Ct, ks []int) map[int]ir.Ct {
	outs := e.fusedFake.RotateMany(ct, ks)
	last := ks[len(ks)-1]
	outs[last] = e.move("RotateMany", outs[last])
	return outs
}

func (e skewing) PlainRecombine(args []ir.Ct, pts []ir.Pt, weights []int64) ir.Ct {
	return e.move("PlainRecombine", e.fusedFake.PlainRecombine(args, pts, weights))
}

// TestResultCheckedAgainstGraph: with no guard, an engine result at
// another level than the graph derives for its op fails the run with
// ir.ErrLevelExhausted, at another scale with ir.ErrScaleDrift. The error
// names the op's id and kind after its stage, which the Result's
// FailedStage names too — for a single op, a hoist-group member, a fused
// recombine, and a product the executor evaluates for an engine that
// does not fuse.
func TestResultCheckedAgainstGraph(t *testing.T) {
	const mix, linear = "stage 0 (mix)", "stage 0 (linear)"
	for _, tc := range []struct {
		name    string
		graph   func() *ir.Graph
		call    string
		nth     int32
		unfused bool
		op      string
		stage   string
	}{
		{"single op", testGraph, "MulPlainPt", 1, false, "op 4 (MulPlain)", mix},
		{"rescale", testGraph, "Rescale", 1, false, "op 7 (Rescale)", mix},
		{"hoist member", testGraph, "RotateMany", 1, false, "op 2 (Rotate)", mix},
		{"fused recombine", fusedGraph, "PlainRecombine", 1, false, "op 8 (Recombine)", linear},
		// The first MulPlainPt is the weight-2 product, an op of its own;
		// the second is the recombine's first absorbed product.
		{"unfused product", fusedGraph, "MulPlainPt", 2, true, "op 4 (MulPlain)", linear},
	} {
		for _, level := range []bool{false, true} {
			want := ir.ErrScaleDrift
			if level {
				want = ir.ErrLevelExhausted
			}
			t.Run(fmt.Sprintf("%s/%v", tc.name, want), func(t *testing.T) {
				e := skewing{fusedFake: fusedFake{&fakeEngine{}}, call: tc.call, nth: tc.nth,
					level: level, unfused: tc.unfused, seen: new(atomic.Int32)}
				p, err := Prepare(e, tc.graph())
				if err != nil {
					t.Fatal(err)
				}
				res, err := p.Run(context.Background(), [][]float64{{1, 2, 3, 4}})
				if !errors.Is(err, want) {
					t.Fatalf("got %v, want %v", err, want)
				}
				if !strings.HasPrefix(err.Error(), "henn: "+tc.stage+": ") || !strings.Contains(err.Error(), tc.op) {
					t.Fatalf("error %q does not name %s after stage %q", err, tc.op, tc.stage)
				}
				if res.FailedStage != tc.stage {
					t.Fatalf("FailedStage %q, want %q", res.FailedStage, tc.stage)
				}
			})
		}
	}
}
