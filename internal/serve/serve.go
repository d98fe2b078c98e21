// Package serve turns concurrent single-image classification requests
// into packed batched encrypted evaluations.
//
// The paper's SIMD packing (Table I) amortizes one homomorphic
// evaluation over B images, but only if B images are actually packed
// together. An online service receives requests one at a time, so the
// server aggregates them: requests enter a bounded queue, a batcher
// drains the queue into micro-batches, and each batch runs through the
// shared prepared op graph (BatchPlan.InferBatchCtx) as a single
// ciphertext evaluation. A batch is flushed as soon as it is full
// (BatchPlan.Batch images) or the oldest member has waited Config.MaxWait
// — latency is bounded by MaxWait plus one batch evaluation, while
// throughput approaches B images per evaluation under load.
//
// Overload is handled by backpressure, not buffering: when the queue is
// full, Submit fails immediately (the HTTP layer maps this to
// 429 + Retry-After) instead of letting latency grow without bound.
// Shutdown stops intake, drains every queued request through final
// batches, and returns when the last response has been delivered.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"cnnhe/internal/henn"
	"cnnhe/internal/telemetry"
)

// Submission failure classes, matched with errors.Is.
var (
	// ErrQueueFull: the adaptive admission limit (or the hard queue
	// bound behind it) is at capacity — the caller should back off and
	// retry after the hinted interval.
	ErrQueueFull = errors.New("serve: request queue full")
	// ErrShuttingDown: the server no longer accepts requests.
	ErrShuttingDown = errors.New("serve: shutting down")
	// ErrDeadlineUnmeetable: the live latency model says the request
	// cannot complete before its deadline, so it is shed at admission
	// instead of burning an evaluation whose result nobody will read.
	ErrDeadlineUnmeetable = errors.New("serve: deadline unmeetable at current load")
)

// Config assembles a Server.
type Config struct {
	// Batch is the compiled batched plan; its Batch field is the
	// micro-batch capacity.
	Batch *henn.BatchPlan
	// Engine evaluates batches. Wrap it with guard.New for classified
	// failures; a guard's latched error is cleared between batches via
	// its Reset method, so one failed batch does not poison the next.
	Engine henn.Engine
	// MaxWait bounds how long the oldest queued request waits for the
	// batch to fill before a partial batch is flushed. Default 10ms.
	MaxWait time.Duration
	// QueueSize is the hard ceiling on outstanding requests and the
	// upper bound of the adaptive admission limit. Default 4× the batch
	// capacity.
	QueueSize int
	// RequestTimeout caps each request's end-to-end time (queue wait +
	// evaluation) via its context. 0 disables the per-request deadline
	// (the client's own context still applies).
	RequestTimeout time.Duration
	// RetryAfter is the backoff hint returned with rejections before
	// any batch latency has been observed; once batches flow, the hint
	// is computed from live queue depth instead. Default 1s.
	RetryAfter time.Duration
	// TargetLatency is the batch-latency SLO driving adaptive
	// admission: batches slower than this halve the admitted
	// concurrency, faster ones grow it by one. Default RequestTimeout/2
	// when a request timeout is set, else 2s.
	TargetLatency time.Duration
}

// result is the fan-out payload delivered to one waiting request.
type result struct {
	logits    henn.Logits
	batchSize int
	eval      time.Duration
	top       []telemetry.OpTime // batch per-op-kind attribution (traced batches)
	err       error
}

// request is one queued classification.
type request struct {
	image []float64
	ctx   context.Context
	resp  chan result // buffered(1): the batcher never blocks on delivery
	enq   time.Time
	// tc is the request's trace context (zero for direct Submit callers
	// that never passed through HTTP); qwait is stamped by the batcher
	// when the request is packed into a batch.
	tc    telemetry.TraceContext
	qwait time.Duration
}

// resetter is implemented by guard.GuardedEngine: a tripped guard
// latches its first error, and the latch must be cleared at the batch
// boundary before the engine is reused.
type resetter interface{ Reset() error }

// runContextSetter is implemented by guard.GuardedEngine: binding the
// batch context lets a guard abort log the trace ID of the batch that
// tripped it.
type runContextSetter interface{ SetRunContext(context.Context) }

// Server is the micro-batching inference engine front end. Create with
// New, submit via Submit (or the HTTP Handler), stop with Shutdown.
type Server struct {
	cfg    Config
	queue  chan *request
	done   chan struct{} // closed when the batcher has drained and exited
	tel    *telSet
	adm    *admission
	flight *telemetry.FlightRecorder

	mu     sync.Mutex
	closed bool
}

// New validates cfg, applies defaults, pre-lowers the plan for the
// engine (so the first request does not pay graph encoding inside its
// deadline), and starts the batcher.
func New(cfg Config) (*Server, error) {
	s, err := newServer(cfg)
	if err != nil {
		return nil, err
	}
	go s.run()
	return s, nil
}

// newServer builds the Server without starting the batcher (tests use
// this to exercise queue behaviour deterministically).
func newServer(cfg Config) (*Server, error) {
	if cfg.Batch == nil || cfg.Batch.Plan == nil {
		return nil, fmt.Errorf("serve: nil batch plan")
	}
	if cfg.Engine == nil {
		return nil, fmt.Errorf("serve: nil engine")
	}
	if cfg.MaxWait <= 0 {
		cfg.MaxWait = 10 * time.Millisecond
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 4 * cfg.Batch.Batch
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.TargetLatency <= 0 {
		if cfg.RequestTimeout > 0 {
			cfg.TargetLatency = cfg.RequestTimeout / 2
		} else {
			cfg.TargetLatency = 2 * time.Second
		}
	}
	if err := cfg.Batch.Plan.Warm(cfg.Engine); err != nil {
		return nil, fmt.Errorf("serve: warming plan: %w", err)
	}
	return &Server{
		cfg:    cfg,
		queue:  make(chan *request, cfg.QueueSize),
		done:   make(chan struct{}),
		tel:    serveTel(),
		adm:    newAdmission(cfg.QueueSize, cfg.Batch.Batch, cfg.TargetLatency),
		flight: telemetry.Flight(),
	}, nil
}

// BatchCapacity returns the micro-batch size limit.
func (s *Server) BatchCapacity() int { return s.cfg.Batch.Batch }

// InputDim returns the expected image length.
func (s *Server) InputDim() int { return s.cfg.Batch.Plan.InputDim }

// BatchInfo describes the micro-batch that served a request.
type BatchInfo struct {
	// Size is how many requests shared the encrypted evaluation.
	Size int
	// Eval is the server-side homomorphic evaluation time of the whole
	// batch, amortized across Size requests.
	Eval time.Duration
}

// Submit enqueues one image for classification and blocks until its
// batch has been evaluated, ctx is done, or the queue rejects it. The
// image must have length InputDim; ctx governs the request end to end
// (queue wait and evaluation both count against it).
func (s *Server) Submit(ctx context.Context, image []float64) (henn.Logits, BatchInfo, error) {
	r, err := s.enqueue(ctx, image)
	if err != nil {
		return nil, BatchInfo{}, err
	}
	select {
	case res := <-r.resp:
		return res.logits, BatchInfo{Size: res.batchSize, Eval: res.eval}, res.err
	case <-ctx.Done():
		// The batcher may still evaluate the request; resp is buffered,
		// so the late result is dropped without blocking anyone.
		s.tel.request("timeout", time.Since(r.enq))
		return nil, BatchInfo{}, fmt.Errorf("serve: request abandoned: %w", ctx.Err())
	}
}

// enqueue validates, admits, and queues a request without waiting for a
// result. Admission happens before the queue: the AIMD limit and the
// deadline-feasibility check both reject here, so overload never costs
// a queue slot.
func (s *Server) enqueue(ctx context.Context, image []float64) (*request, error) {
	if len(image) != s.InputDim() {
		return nil, fmt.Errorf("%w: image length %d, plan input dim %d",
			henn.ErrBadInput, len(image), s.InputDim())
	}
	now := time.Now()
	tc, _ := telemetry.TraceContextFrom(ctx)
	deadline, hasDeadline := ctx.Deadline()
	if err := s.adm.admit(now, deadline, hasDeadline); err != nil {
		var outcome string
		switch {
		case errors.Is(err, ErrDeadlineUnmeetable):
			outcome = "shed"
		default:
			outcome = "rejected"
		}
		s.tel.request(outcome, 0)
		s.tel.admission(s.adm)
		s.flightReject(tc, outcome, err)
		return nil, err
	}
	r := &request{image: image, ctx: ctx, resp: make(chan result, 1), enq: now, tc: tc}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.adm.release()
		s.tel.request("shutdown", 0)
		s.flightReject(tc, "shutdown", ErrShuttingDown)
		return nil, ErrShuttingDown
	}
	select {
	case s.queue <- r:
		s.tel.enqueued()
		return r, nil
	default:
		// The admission limit never exceeds the channel capacity, so
		// this is a backstop, not a steady-state path.
		s.adm.release()
		s.tel.request("rejected", 0)
		s.flightReject(tc, "rejected", ErrQueueFull)
		return nil, ErrQueueFull
	}
}

// finish delivers one admitted request's terminal result and returns
// its admission slot. Every admitted request reaches exactly one finish
// call — that is the no-silent-drop invariant the soak suite asserts.
// The request is counted and filed with the flight recorder before its
// result is delivered, so a caller that has its response can already
// find it in /metrics and /debug/requests.
func (s *Server) finish(r *request, res result, outcome string) {
	total := time.Since(r.enq)
	s.tel.request(outcome, total)
	s.flightRecord(r, res, outcome, total)
	s.adm.release()
	r.resp <- res
}

// run is the batcher: it blocks for the first request, then fills the
// batch from the queue until it is full, MaxWait elapses, or intake is
// closed, and evaluates. On a closed queue it keeps forming batches from
// the buffered remainder — that is the drain — and exits when empty.
func (s *Server) run() {
	defer close(s.done)
	for {
		r, ok := <-s.queue
		if !ok {
			return
		}
		s.tel.dequeued()
		batch := append(make([]*request, 0, s.cfg.Batch.Batch), r)
		timer := time.NewTimer(s.cfg.MaxWait)
	fill:
		for len(batch) < s.cfg.Batch.Batch {
			select {
			case r2, ok := <-s.queue:
				if !ok {
					break fill
				}
				s.tel.dequeued()
				batch = append(batch, r2)
			case <-timer.C:
				break fill
			}
		}
		timer.Stop()
		s.evalBatch(batch)
	}
}

// evalBatch packs the live members of batch into one encrypted
// evaluation and fans the per-block logits back out.
func (s *Server) evalBatch(batch []*request) {
	// Prune members whose context expired while queued: evaluating them
	// would waste a block, and their callers have already gone.
	live := batch[:0]
	for _, r := range batch {
		if err := r.ctx.Err(); err != nil {
			s.finish(r, result{err: fmt.Errorf("serve: expired in queue: %w", err)}, "expired")
			continue
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	images := make([][]float64, len(live))
	traced := false
	for i, r := range live {
		images[i] = r.image
		r.qwait = time.Since(r.enq)
		s.tel.queueWait(r.qwait)
		if r.tc.Valid() {
			traced = true
		}
	}
	// The batch deadline is the latest member deadline: one short-fused
	// member must not kill the whole batch early (it simply times out on
	// its own context at fan-out), but the batch stops once nobody is
	// left to care.
	bctx, cancel := batchContext(live)
	defer cancel()

	// When any member arrived with a trace context, record the shared
	// evaluation's spans once for the whole batch: every member's trace
	// ID resolves to the same recording (the batch IS their evaluation).
	var rec *telemetry.RunRecorder
	if traced {
		rec = telemetry.NewRunRecorder()
		for _, r := range live {
			if r.tc.Valid() {
				rec.SetTrace(r.tc.TraceIDString(), r.tc.SpanIDString())
				bctx = telemetry.WithTraceContext(bctx, r.tc)
				break
			}
		}
		bctx = telemetry.WithRecorder(bctx, rec)
		// The batcher is a single goroutine, so binding the shared guard
		// to the batch context for the duration of the run is sound.
		if g, ok := s.cfg.Engine.(runContextSetter); ok {
			g.SetRunContext(bctx)
			defer g.SetRunContext(nil)
		}
	}

	t0 := time.Now()
	logits, rep, err := s.cfg.Batch.InferBatchCtx(bctx, s.cfg.Engine, images)
	elapsed := time.Since(t0)
	var top []telemetry.OpTime
	if rec != nil {
		top = telemetry.TopOpsFromRecorder(rec, 3)
		for _, r := range live {
			if r.tc.Valid() {
				s.flight.RecordTrace(r.tc.TraceIDString(), rec)
			}
		}
	}
	s.adm.observe(elapsed, err == nil)
	s.tel.batchDone(len(live), s.cfg.Batch.Batch, elapsed, err == nil)
	s.tel.admission(s.adm)
	if err != nil {
		// A guarded engine latches its first failure; clear it so the
		// next batch starts clean (no ciphertexts cross the boundary —
		// every batch re-encrypts from raw pixels).
		if g, ok := s.cfg.Engine.(resetter); ok {
			_ = g.Reset()
		}
		for _, r := range live {
			// Members whose own deadline passed report their context
			// error; the rest carry the batch failure.
			if cerr := r.ctx.Err(); cerr != nil {
				s.finish(r, result{err: fmt.Errorf("serve: %w", cerr)}, "timeout")
				continue
			}
			s.finish(r, result{err: err, batchSize: len(live), top: top}, "error")
		}
		return
	}
	for i, r := range live {
		s.finish(r, result{logits: logits[i], batchSize: len(live), eval: rep.Eval, top: top}, "ok")
	}
}

// batchContext derives the evaluation context for a batch: the latest
// member deadline when every member has one, otherwise no deadline.
func batchContext(live []*request) (context.Context, context.CancelFunc) {
	var latest time.Time
	for _, r := range live {
		d, ok := r.ctx.Deadline()
		if !ok {
			return context.Background(), func() {}
		}
		if d.After(latest) {
			latest = d
		}
	}
	return context.WithDeadline(context.Background(), latest)
}

// Shutdown stops intake, drains queued requests through final batches,
// and waits (bounded by ctx) for the batcher to deliver every response.
// Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
	select {
	case <-s.done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain incomplete: %w", ctx.Err())
	}
}
