package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// OpSpan is one recorded unit of executor work: a single HE op, a whole
// hoisted rotation group executed as one RotateMany call, or a recombine
// executed together with the plaintext products it absorbs.
type OpSpan struct {
	// Kind is the op kind ("Rotate", "MulPlain", …, or "Encrypt"). A
	// hoisted group records kind "Rotate" with Ops > 1, a fused
	// recombine kind "Recombine" with Ops = 1 + absorbed products.
	Kind string
	// Stage is the pipeline stage the op belongs to.
	Stage string
	// Worker identifies the executing worker (0 for the calling
	// goroutine and the encrypt prologue).
	Worker int
	// Queued is when the op's task became runnable (zero for the
	// encrypt prologue, which is not scheduled).
	Queued time.Time
	// Start and End bound the engine call.
	Start time.Time
	End   time.Time
	// Ops is the number of logical ops this span covers (hoist group
	// size, or a recombine plus its absorbed products; 1 otherwise).
	Ops int
	// SavedKeySwitch counts the key-switch decompositions a hoisted
	// RotateMany avoided versus standalone rotations (group size − 1).
	SavedKeySwitch int
	// Level, Scale, and NoiseBits describe the op's output ciphertext
	// when the executor could observe it (guard-wrapped engines under an
	// active recorder): remaining modulus level, plaintext scale, and the
	// guard's noise-budget estimate in bits. A zero Scale marks the
	// triple as unobserved (every real CKKS ciphertext has Scale ≥ 1).
	Level     int
	Scale     float64
	NoiseBits float64
}

// HasHE reports whether the span carries observed ciphertext
// attributes (level / scale / noise budget).
func (s OpSpan) HasHE() bool { return s.Scale > 0 }

// Wait returns the queue wait (zero when the span was never queued).
func (s OpSpan) Wait() time.Duration {
	if s.Queued.IsZero() || s.Queued.After(s.Start) {
		return 0
	}
	return s.Start.Sub(s.Queued)
}

// Phase is one coarse pipeline phase span (encrypt / eval / decrypt).
type Phase struct {
	Name  string
	Start time.Time
	End   time.Time
}

// KindStat aggregates spans per op kind.
type KindStat struct {
	// Count is the number of logical ops (hoisted rotations count
	// individually).
	Count int64
	// Calls is the number of engine calls (a hoist group is one call).
	Calls int64
	// Total is the summed execution time of the calls.
	Total time.Duration
}

// RunRecorder collects the spans of one (or more) executor runs. Attach
// it to a context with WithRecorder and pass that context to InferCtx /
// Run; the executor records one span per executed op. All methods are
// nil-safe and safe for concurrent use.
type RunRecorder struct {
	mu      sync.Mutex
	spans   []OpSpan
	phases  []Phase
	traceID string
	reqID   string
}

// SetTrace attaches the distributed-trace identity the recording
// belongs to; it is echoed into the Chrome trace metadata so an
// exported span tree can be joined back to client logs.
func (r *RunRecorder) SetTrace(traceID, requestID string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.traceID, r.reqID = traceID, requestID
	r.mu.Unlock()
}

// TraceID returns the trace ID set by SetTrace ("" when unset).
func (r *RunRecorder) TraceID() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.traceID
}

// RequestID returns the request ID set by SetTrace ("" when unset).
func (r *RunRecorder) RequestID() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.reqID
}

// NewRunRecorder returns an empty recorder.
func NewRunRecorder() *RunRecorder { return &RunRecorder{} }

// Record appends one op span.
func (r *RunRecorder) Record(sp OpSpan) {
	if r == nil {
		return
	}
	if sp.Ops <= 0 {
		sp.Ops = 1
	}
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}

// RecordPhase appends one coarse phase span.
func (r *RunRecorder) RecordPhase(name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.phases = append(r.phases, Phase{Name: name, Start: start, End: end})
	r.mu.Unlock()
}

// Spans returns a copy of the recorded op spans, ordered by start time.
func (r *RunRecorder) Spans() []OpSpan {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]OpSpan(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// Phases returns a copy of the recorded phase spans in record order.
func (r *RunRecorder) Phases() []Phase {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Phase(nil), r.phases...)
}

// OpCount returns the number of logical ops recorded (hoisted rotations
// count individually).
func (r *RunRecorder) OpCount() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, sp := range r.spans {
		n += sp.Ops
	}
	return n
}

// ByKind aggregates the recorded spans per op kind.
func (r *RunRecorder) ByKind() map[string]KindStat {
	out := map[string]KindStat{}
	for _, sp := range r.Spans() {
		st := out[sp.Kind]
		st.Count += int64(sp.Ops)
		st.Calls++
		st.Total += sp.End.Sub(sp.Start)
		out[sp.Kind] = st
	}
	return out
}

// ----- context plumbing -----

type recorderKey struct{}

// WithRecorder returns a context carrying rec; the executor records into
// it. A nil rec returns ctx unchanged.
func WithRecorder(ctx context.Context, rec *RunRecorder) context.Context {
	if rec == nil {
		return ctx
	}
	return context.WithValue(ctx, recorderKey{}, rec)
}

// RecorderFrom extracts the recorder attached by WithRecorder (nil when
// absent).
func RecorderFrom(ctx context.Context) *RunRecorder {
	if ctx == nil {
		return nil
	}
	rec, _ := ctx.Value(recorderKey{}).(*RunRecorder)
	return rec
}

// ----- Chrome trace-event export -----

// chromeEvent is one trace event in the Chrome trace-event JSON format
// (the "X" complete-event and "M" metadata-event subset), loadable in
// chrome://tracing and https://ui.perfetto.dev.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds from trace start
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level trace envelope.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// phaseTID is the synthetic "thread" row that carries pipeline phase
// spans (encrypt / eval / decrypt) above the worker rows.
const phaseTID = 999

// ChromeTrace serialises the recording as Chrome trace-event JSON.
// Timestamps are microseconds relative to the earliest recorded instant,
// op spans land on one row per worker (queue wait rendered as a separate
// dimmed span immediately before the op), and pipeline phases form their
// own row.
func (r *RunRecorder) ChromeTrace() ([]byte, error) {
	if r == nil {
		return nil, fmt.Errorf("telemetry: nil recorder")
	}
	spans := r.Spans()
	phases := r.Phases()

	var base time.Time
	for _, sp := range spans {
		t := sp.Start
		if !sp.Queued.IsZero() && sp.Queued.Before(t) {
			t = sp.Queued
		}
		if base.IsZero() || t.Before(base) {
			base = t
		}
	}
	for _, p := range phases {
		if base.IsZero() || p.Start.Before(base) {
			base = p.Start
		}
	}
	us := func(t time.Time) float64 { return float64(t.Sub(base)) / float64(time.Microsecond) }

	tr := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{
		{Name: "process_name", Ph: "M", PID: 1, Args: map[string]any{"name": "cnnhe"}},
		{Name: "thread_name", Ph: "M", PID: 1, TID: phaseTID, Args: map[string]any{"name": "pipeline"}},
	}}
	if traceID := r.TraceID(); traceID != "" {
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: "trace_context", Ph: "M", PID: 1,
			Args: map[string]any{"trace_id": traceID, "request_id": r.RequestID()},
		})
	}
	workers := map[int]bool{}
	for _, sp := range spans {
		if !workers[sp.Worker] {
			workers[sp.Worker] = true
			tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
				Name: "thread_name", Ph: "M", PID: 1, TID: sp.Worker,
				Args: map[string]any{"name": fmt.Sprintf("worker %d", sp.Worker)},
			})
		}
		if w := sp.Wait(); w > 0 {
			tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
				Name: "queue-wait", Cat: "wait", Ph: "X",
				TS: us(sp.Queued), Dur: float64(w) / float64(time.Microsecond),
				PID: 1, TID: sp.Worker,
				Args: map[string]any{"for": sp.Kind},
			})
		}
		name := sp.Kind
		args := map[string]any{"stage": sp.Stage, "ops": sp.Ops}
		if sp.Ops > 1 {
			name = fmt.Sprintf("%s×%d", sp.Kind, sp.Ops)
		}
		if sp.SavedKeySwitch > 0 {
			args["saved_keyswitch"] = sp.SavedKeySwitch
		}
		if sp.HasHE() {
			args["level"] = sp.Level
			args["scale"] = sp.Scale
			if !math.IsNaN(sp.NoiseBits) {
				args["noise_bits"] = sp.NoiseBits
			}
		}
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: name, Cat: "op", Ph: "X",
			TS: us(sp.Start), Dur: float64(sp.End.Sub(sp.Start)) / float64(time.Microsecond),
			PID: 1, TID: sp.Worker, Args: args,
		})
	}
	for _, p := range phases {
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: p.Name, Cat: "phase", Ph: "X",
			TS: us(p.Start), Dur: float64(p.End.Sub(p.Start)) / float64(time.Microsecond),
			PID: 1, TID: phaseTID,
		})
	}
	return json.MarshalIndent(tr, "", " ")
}

// WriteChromeTrace writes the Chrome trace-event JSON to w.
func (r *RunRecorder) WriteChromeTrace(w io.Writer) error {
	data, err := r.ChromeTrace()
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// WriteChromeTraceFile writes the Chrome trace-event JSON to path.
func (r *RunRecorder) WriteChromeTraceFile(path string) error {
	data, err := r.ChromeTrace()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
