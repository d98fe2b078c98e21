package guard_test

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"cnnhe/internal/guard"
	"cnnhe/internal/henn"
	"cnnhe/internal/henn/exec"
	"cnnhe/internal/henn/ir"
	"cnnhe/internal/henn/shard"
	"cnnhe/internal/nn"
)

// wideModel is tinyModel with a 9-channel, stride-1 convolution, so its
// 576 activations span two 512-slot ciphertexts: the activation stage
// runs on two shards, each as soon as its row of the convolution is done.
func wideModel(seed int64) *nn.Model {
	rng := rand.New(rand.NewSource(seed))
	conv := nn.NewConv2D(rng, 1, 9, 3, 1, 1, 8, 8)
	m := &nn.Model{Layers: []nn.Layer{
		conv,
		nn.NewReLU(),
		nn.NewFlatten(),
		nn.NewDense(rng, conv.OutC*conv.OutH()*conv.OutW(), 4),
	}}
	hm := m.ReplaceReLUWithSLAF(3, 1)
	for _, l := range hm.Layers {
		if s, ok := l.(*nn.SLAF); ok {
			s.FitReLU(3)
		}
	}
	return hm
}

// crossStageFault makes the first MulRelin — the activation stage's
// first op — panic while another worker is inside the Rescale that ends
// a different row of the convolution stage. The first Rescale (ending
// the row the MulRelin reads) passes; the second at its level (the
// activation stage's own Rescales run a level lower) waits for the
// MulRelin to arrive, and the MulRelin waits for it, so the two ops of
// two stages are in flight at once when the panic fires.
type crossStageFault struct {
	*henn.RNSEngine

	mu         sync.Mutex
	rowLevel   int // input level of the convolution rows' Rescales
	rows       int // Rescales at rowLevel so far
	mulRelins  int
	mulIn      chan struct{} // closed when the failing MulRelin arrives
	rowIn      chan struct{} // closed when the held Rescale arrives
	overlapped bool          // the MulRelin saw the held Rescale arrive
}

func (e *crossStageFault) Unwrap() henn.Engine { return e.RNSEngine }

// reset arms the fault for the next run.
func (e *crossStageFault) reset() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rows, e.mulRelins, e.overlapped = 0, 0, false
	e.mulIn, e.rowIn = make(chan struct{}), make(chan struct{})
}

func wait(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	case <-time.After(10 * time.Second):
		return false
	}
}

func (e *crossStageFault) Rescale(ct henn.Ct) henn.Ct {
	level := e.RNSEngine.Level(ct)
	e.mu.Lock()
	if e.rows == 0 {
		e.rowLevel = level
	}
	if level == e.rowLevel {
		e.rows++
	}
	hold := e.rows == 2 && level == e.rowLevel
	mulIn, rowIn := e.mulIn, e.rowIn
	e.mu.Unlock()
	if hold {
		close(rowIn)
		wait(mulIn)
	}
	return e.RNSEngine.Rescale(ct)
}

func (e *crossStageFault) MulRelin(a, b henn.Ct) henn.Ct {
	e.mu.Lock()
	e.mulRelins++
	first := e.mulRelins == 1
	mulIn, rowIn := e.mulIn, e.rowIn
	e.mu.Unlock()
	if !first {
		return e.RNSEngine.MulRelin(a, b)
	}
	close(mulIn)
	overlapped := wait(rowIn)
	e.mu.Lock()
	e.overlapped = overlapped
	e.mu.Unlock()
	panic("injected MulRelin failure")
}

// TestMultiInputFailureAttribution: on a four-input plan (four executor
// workers) a guarded op that fails while another worker runs an op of
// another stage is attributed to its own stage — in Report.FailedStage
// and in the error text — and classifies as exec.ErrEnginePanic at the
// MulRelin op. One guard serves every repetition: a failed run leaves
// nothing behind for the next.
func TestMultiInputFailureAttribution(t *testing.T) {
	plan, err := henn.CompileSharded(wideModel(15), 512, shard.Grid{Gy: 2, Gx: 2})
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumShards() != 4 {
		t.Fatalf("%d input shards, want 4", plan.NumShards())
	}
	fault := &crossStageFault{RNSEngine: rnsEngine(t, plan, 31)}
	g := guard.New(fault, guard.DefaultConfig())
	prep, _, err := plan.Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	gr := prep.Graph()
	want := ""
	for _, op := range gr.Ops {
		if op.Kind == ir.OpMulRelin {
			want = gr.Stages[op.Stage].Name
			break
		}
	}
	if !strings.HasPrefix(want, "stage 1 (act") {
		t.Fatalf("first MulRelin in stage %q, want the activation stage", want)
	}
	img := testImage(5, plan.InputDim)
	for i := 0; i < 20; i++ {
		fault.reset()
		_, rep, err := plan.InferCtx(context.Background(), g, img)
		if err == nil {
			t.Fatalf("run %d: the injected failure was absorbed", i)
		}
		fault.mu.Lock()
		overlapped := fault.overlapped
		fault.mu.Unlock()
		if !overlapped {
			t.Fatalf("run %d: no convolution Rescale ran alongside the failing MulRelin", i)
		}
		if rep.FailedStage != want {
			t.Fatalf("run %d: FailedStage %q, want %q", i, rep.FailedStage, want)
		}
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("run %d: error %q does not name stage %q", i, err, want)
		}
		if !errors.Is(err, exec.ErrEnginePanic) || !strings.Contains(err.Error(), want+": op ") ||
			!strings.Contains(err.Error(), " (MulRelin): ") {
			t.Fatalf("run %d: error %v, want exec.ErrEnginePanic at a MulRelin op of %q", i, err, want)
		}
	}
}
