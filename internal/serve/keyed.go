package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"cnnhe/internal/ckks"
	"cnnhe/internal/client"
	"cnnhe/internal/guard"
	"cnnhe/internal/henn"
	"cnnhe/internal/henn/exec"
	"cnnhe/internal/henn/ir"
	"cnnhe/internal/keys"
	"cnnhe/internal/telemetry"
)

// KeyedConfig sizes a Keyed handler — the client-held-key side of the
// service, where the server evaluates under keys it never generated.
type KeyedConfig struct {
	// Ctx is the server's CKKS instantiation; registered bundles must
	// match its params digest exactly.
	Ctx *ckks.Context
	// Plan is the single-image inference plan evaluated on the encrypted
	// route. Its rotation set is the registration requirement. A
	// multi-shard plan's image travels as its shard set (one ciphertext
	// frame per shard, back to back in the request body) and /v1/info
	// advertises the input manifest.
	Plan *henn.Plan
	// Model and Backend name the loaded architecture and engine for
	// GET /v1/info.
	Model   string
	Backend string
	// MaxClients bounds the key store (0 selects keys.DefaultMaxEntries);
	// KeyTTL expires idle bundles (0 disables).
	MaxClients int
	KeyTTL     time.Duration
	// StoreDir, when non-empty, makes the key store durable: registered
	// bundles are snapshotted to disk and recovered (re-verified) on
	// restart, so a crashed worker keeps its client state.
	StoreDir string
	// RequestTimeout bounds one encrypted evaluation (0 disables).
	RequestTimeout time.Duration
}

// Keyed serves the encrypted wire protocol:
//
//	GET  /v1/info                plan + parameter manifest
//	POST /v1/keys                register an evaluation-key bundle
//	POST /v1/classify/encrypted  ciphertext in, encrypted logits out
//
// The encrypted route runs the plan's optimized op graph on an eval-only
// engine (henn.RNSEvalEngine) built from the client's registered bundle:
// no secret key, encryptor, or decryptor is reachable from it, so the
// handler cannot decrypt what it computes on even in principle.
type Keyed struct {
	cfg   KeyedConfig
	store *keys.Store
	info  client.InfoResponse
	// prep is the plan compiled once — lowered, optimized per Plan.Opt,
	// plaintexts pre-encoded — against a guarded key-less eval engine;
	// evalFor rebinds it to each client's engine. It is the route's own,
	// apart from the plan's cached graph the plaintext route uses.
	prep *exec.Prepared
	// bundleLimit and ctLimit bound request bodies, computed from the
	// exact wire sizes of the largest legitimate payloads (ctLimit covers
	// all shard frames of one request).
	bundleLimit int64
	ctLimit     int64
	// shards is how many ciphertext frames one classify body carries.
	shards int
}

// keyedEval is the per-client evaluation state cached on a store entry:
// a guarded eval-only engine plus the route's prepared graph rebound to
// it. Guarded by Entry.Mu.
type keyedEval struct {
	g    *guard.GuardedEngine
	prep *exec.Prepared
}

// bundleSlackRotations is the headroom beyond the plan's rotation
// requirement a registered bundle may carry (clients derive their set
// from /v1/info, but a few extra keys — e.g. conjugation — are
// harmless).
const bundleSlackRotations = 4

// NewKeyed builds the keyed handler for one plan on one CKKS context. It
// compiles the plan for the context up front, so a plan the parameters
// cannot evaluate (too deep for the chain) fails here, not per request.
func NewKeyed(cfg KeyedConfig) (*Keyed, error) {
	if cfg.Ctx == nil {
		return nil, fmt.Errorf("serve: KeyedConfig.Ctx is required")
	}
	if cfg.Plan == nil {
		return nil, fmt.Errorf("serve: KeyedConfig.Plan is required")
	}
	prep, _, err := cfg.Plan.Prepare(guard.New(henn.NewRNSEvalEngine(cfg.Ctx, nil, nil), guard.DefaultConfig()))
	if err != nil {
		return nil, fmt.Errorf("serve: compiling the plan for the encrypted route: %w", err)
	}
	rotations := cfg.Plan.Rotations()
	shards := cfg.Plan.NumShards()
	var manifest string
	if shards > 1 {
		manifest = client.EncodeManifest(cfg.Plan.Input)
	}
	store, err := keys.NewStore(keys.Config{
		Ctx:               cfg.Ctx,
		RequiredRotations: rotations,
		MaxEntries:        cfg.MaxClients,
		TTL:               cfg.KeyTTL,
		Dir:               cfg.StoreDir,
	})
	if err != nil {
		return nil, err
	}
	p := cfg.Ctx.Params
	k := &Keyed{
		cfg:   cfg,
		store: store,
		prep:  prep,
		info: client.InfoResponse{
			Model:          cfg.Model,
			Backend:        cfg.Backend,
			InputDim:       cfg.Plan.InputDim,
			OutputDim:      cfg.Plan.OutputDim,
			Slots:          p.Slots(),
			Levels:         p.MaxLevel(),
			Rotations:      rotations,
			Params:         client.ParamsInfoOf(p),
			EncryptedRoute: true,
			Shards:         shards,
			ShardManifest:  manifest,
		},
		bundleLimit: int64(cfg.Ctx.KeyBundleWireSize(len(rotations)+bundleSlackRotations)) + 1024,
		ctLimit:     int64(shards)*(int64(cfg.Ctx.CiphertextWireSize(p.MaxLevel()))+1024) + 1024,
		shards:      shards,
	}
	return k, nil
}

// Store exposes the bundle store (tests and diagnostics).
func (k *Keyed) Store() *keys.Store { return k.store }

// Close stops the store's background compactor. Registered bundles stay
// on disk for the next process.
func (k *Keyed) Close() { k.store.Close() }

// Routes mounts the /v1 endpoints on mux.
func (k *Keyed) Routes(mux *http.ServeMux) {
	mux.HandleFunc(client.PathInfo, k.handleInfo)
	mux.HandleFunc(client.PathKeys, k.handleKeys)
	mux.HandleFunc(client.PathClassifyEncrypted, k.handleClassifyEncrypted)
}

// Handler returns a mux serving only the /v1 endpoints.
func (k *Keyed) Handler() http.Handler {
	mux := http.NewServeMux()
	k.Routes(mux)
	return mux
}

func (k *Keyed) handleInfo(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "GET only"})
		return
	}
	writeJSON(w, http.StatusOK, k.info)
}

func (k *Keyed) handleKeys(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST only"})
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, k.bundleLimit))
	if err != nil {
		k.writeKeyedError(w, err, "reading key bundle", telemetry.TraceContext{})
		return
	}
	entry, err := k.store.Register(data)
	if err != nil {
		k.writeKeyedError(w, err, "registering key bundle", telemetry.TraceContext{})
		return
	}
	keyedTel().request("keys_ok")
	writeJSON(w, http.StatusOK, client.RegisterResponse{
		Fingerprint: entry.Fingerprint,
		Rotations:   len(entry.Bundle.RTK.Keys),
	})
}

func (k *Keyed) handleClassifyEncrypted(w http.ResponseWriter, r *http.Request) {
	tc, _ := beginTrace(w, r)
	t0 := time.Now()
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST only"})
		return
	}
	fp := r.Header.Get(client.HeaderKeyFingerprint)
	if fp == "" {
		keyedTel().request("bad_request")
		writeJSON(w, http.StatusBadRequest, errorBody{
			Error:   client.HeaderKeyFingerprint + " header is required",
			TraceID: tc.TraceIDString(), RequestID: tc.SpanIDString()})
		return
	}
	entry, err := k.store.Get(fp)
	if err != nil {
		k.writeKeyedError(w, err, "looking up key bundle", tc)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, k.ctLimit))
	if err != nil {
		k.writeKeyedError(w, err, "reading ciphertext", tc)
		return
	}
	// The body carries exactly one self-delimiting ciphertext frame per
	// input shard, back to back.
	body := bytes.NewReader(data)
	cts := make([]ir.Ct, k.shards)
	for i := range cts {
		ct, err := k.cfg.Ctx.ReadCiphertext(body)
		if err != nil {
			k.writeKeyedError(w, err, fmt.Sprintf("decoding ciphertext %d/%d", i+1, k.shards), tc)
			return
		}
		cts[i] = ct
	}
	if body.Len() != 0 {
		keyedTel().request("bad_request")
		writeJSON(w, http.StatusBadRequest, errorBody{
			Error:   fmt.Sprintf("%d trailing bytes after %d ciphertext frame(s)", body.Len(), k.shards),
			TraceID: tc.TraceIDString(), RequestID: tc.SpanIDString()})
		return
	}

	ctx, cancel, err := deadlineContext(r.Context(), r)
	defer cancel()
	if err != nil {
		keyedTel().request("bad_request")
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error(),
			TraceID: tc.TraceIDString(), RequestID: tc.SpanIDString()})
		return
	}
	if k.cfg.RequestTimeout > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, k.cfg.RequestTimeout)
		defer tcancel()
	}

	// One evaluation at a time per client: entry.Mu guards the
	// evaluation state cached on the entry (built on first use) and
	// serializes the client's runs. The wait for the per-client lock is
	// this route's queue time.
	lockStart := time.Now()
	entry.Mu.Lock()
	lockWait := time.Since(lockStart)
	defer entry.Mu.Unlock()
	ev, err := k.evalFor(entry)
	if err != nil {
		keyedTel().request("error")
		k.finishEncrypted(tc, "error", t0, lockWait, 0, nil, err)
		writeJSON(w, http.StatusInternalServerError, errorBody{
			Error:   fmt.Sprintf("preparing evaluation under client keys: %v", err),
			TraceID: tc.TraceIDString(), RequestID: tc.SpanIDString()})
		return
	}
	rec := telemetry.NewRunRecorder()
	rec.SetTrace(tc.TraceIDString(), tc.SpanIDString())
	rctx := telemetry.WithRecorder(telemetry.WithTraceContext(ctx, tc), rec)
	res, err := ev.prep.RunEncrypted(rctx, cts, exec.Options{})
	if err != nil {
		k.finishEncrypted(tc, evalOutcome(err), t0, lockWait, res.Eval, rec, err)
		k.writeEvalError(w, err, tc)
		return
	}
	out, ok := guard.Underlying(res.Out).(*ckks.Ciphertext)
	if !ok {
		err := fmt.Errorf("unexpected output ciphertext type %T", guard.Underlying(res.Out))
		keyedTel().request("error")
		k.finishEncrypted(tc, "error", t0, lockWait, res.Eval, rec, err)
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error(),
			TraceID: tc.TraceIDString(), RequestID: tc.SpanIDString()})
		return
	}
	keyedTel().request("ok")
	keyedTel().evaluated(res.Eval)
	k.finishEncrypted(tc, "ok", t0, lockWait, res.Eval, rec, nil)
	w.Header().Set("Content-Type", client.ContentTypeCKKS)
	w.Header().Set(client.HeaderEvalMillis,
		strconv.FormatFloat(float64(res.Eval)/float64(time.Millisecond), 'f', 3, 64))
	if err := k.cfg.Ctx.WriteCiphertext(w, out); err != nil {
		// Headers are gone; all we can do is drop the connection.
		return
	}
}

// clientFault reports whether an encrypted-evaluation failure is the
// client ciphertext's: the guard's scan refused it or something made
// from it (the executor scans every input and result), it was not a
// fresh encryption at the graph's (level, scale), or it drove a result
// off the level or scale the graph derives. An engine panic is not: a
// registered bundle holds every rotation the graph needs.
func clientFault(err error) bool {
	for _, class := range []error{guard.ErrCorruptCiphertext, guard.ErrResidueMissing,
		exec.ErrInputMismatch, ir.ErrScaleDrift, ir.ErrLevelExhausted} {
		if errors.Is(err, class) {
			return true
		}
	}
	return false
}

// evalOutcome names an encrypted-evaluation failure for the slog line
// and flight entry, mirroring writeEvalError's status mapping.
func evalOutcome(err error) string {
	switch {
	case clientFault(err):
		return "bad_ciphertext"
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return "timeout"
	default:
		return "error"
	}
}

// finishEncrypted emits the keyed route's request slog line and flight
// entry. The per-client lock wait plays the queue role; a non-nil rec
// additionally parks the span recording for ?trace= export.
func (k *Keyed) finishEncrypted(tc telemetry.TraceContext, outcome string, start time.Time,
	lockWait, eval time.Duration, rec *telemetry.RunRecorder, err error) {
	total := time.Since(start)
	logRequest("classify_encrypted", tc, outcome, total, err)
	f := telemetry.Flight()
	sum := telemetry.RequestSummary{
		TraceID:   tc.TraceIDString(),
		RequestID: tc.SpanIDString(),
		Route:     "classify_encrypted",
		Outcome:   outcome,
		Start:     start,
		QueueMS:   float64(lockWait) / float64(time.Millisecond),
		EvalMS:    float64(eval) / float64(time.Millisecond),
		TotalMS:   float64(total) / float64(time.Millisecond),
		TopOps:    telemetry.TopOpsFromRecorder(rec, 3),
	}
	if err != nil {
		sum.Error = err.Error()
	}
	f.Record(sum)
	if rec != nil {
		f.RecordTrace(tc.TraceIDString(), rec)
	}
}

// evalFor returns the entry's cached evaluation state, building it on
// first use: an eval-only engine over the client's relinearization and
// rotation keys, wrapped in a guard, with the route's prepared graph
// rebound to it. Caller holds entry.Mu.
func (k *Keyed) evalFor(entry *keys.Entry) (*keyedEval, error) {
	if ev, ok := entry.Eval.(*keyedEval); ok {
		return ev, nil
	}
	g := guard.New(henn.NewRNSEvalEngine(k.cfg.Ctx, entry.Bundle.RLK, entry.Bundle.RTK), guard.DefaultConfig())
	prep, err := k.prep.On(g)
	if err != nil {
		return nil, err
	}
	ev := &keyedEval{g: g, prep: prep}
	entry.Eval = ev
	return ev, nil
}

// writeKeyedError maps protocol-level failures (body reads, bundle
// registration, fingerprint lookups, ciphertext decodes) to HTTP. A
// valid tc (classify route; handleKeys passes the zero value) stamps
// the body with the request's join IDs.
func (k *Keyed) writeKeyedError(w http.ResponseWriter, err error, doing string, tc telemetry.TraceContext) {
	body := errorBody{}
	if tc.Valid() {
		body.TraceID, body.RequestID = tc.TraceIDString(), tc.SpanIDString()
	}
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &mbe):
		keyedTel().request("too_large")
		body.Error = fmt.Sprintf("%s: body exceeds %d bytes", doing, mbe.Limit)
		writeJSON(w, http.StatusRequestEntityTooLarge, body)
	case errors.Is(err, keys.ErrNotFound):
		keyedTel().request("unknown_key")
		body.Error = err.Error()
		writeJSON(w, http.StatusNotFound, body)
	case errors.Is(err, keys.ErrParamsMismatch), errors.Is(err, keys.ErrMissingRotations):
		keyedTel().request("incompatible_key")
		body.Error = err.Error()
		writeJSON(w, http.StatusConflict, body)
	case errors.Is(err, ckks.ErrFormat), errors.Is(err, ckks.ErrChecksum):
		keyedTel().request("bad_request")
		body.Error = fmt.Sprintf("%s: %v", doing, err)
		writeJSON(w, http.StatusBadRequest, body)
	default:
		keyedTel().request("error")
		body.Error = fmt.Sprintf("%s: %v", doing, err)
		writeJSON(w, http.StatusInternalServerError, body)
	}
}

// writeEvalError maps an encrypted-evaluation failure to HTTP: the
// client's fault (clientFault) is 400, timeouts are 504, anything else
// is a server error.
func (k *Keyed) writeEvalError(w http.ResponseWriter, err error, tc telemetry.TraceContext) {
	body := errorBody{TraceID: tc.TraceIDString(), RequestID: tc.SpanIDString()}
	switch {
	case clientFault(err):
		keyedTel().request("bad_ciphertext")
		body.Error = fmt.Sprintf("evaluation rejected: %v", err)
		writeJSON(w, http.StatusBadRequest, body)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		keyedTel().request("timeout")
		body.Error = err.Error()
		writeJSON(w, http.StatusGatewayTimeout, body)
	default:
		keyedTel().request("error")
		body.Error = fmt.Sprintf("evaluating: %v", err)
		writeJSON(w, http.StatusInternalServerError, body)
	}
}

// keyedTelSet instruments the encrypted routes. Nil-safe like telSet.
type keyedTelSet struct {
	outcomes map[string]*telemetry.Counter
	evalLat  *telemetry.Histogram
}

var (
	keyedTelOnce sync.Once
	keyedTelVal  *keyedTelSet
)

var keyedOutcomeNames = []string{
	"ok", "keys_ok", "bad_request", "bad_ciphertext", "unknown_key",
	"incompatible_key", "too_large", "timeout", "error",
}

func keyedTel() *keyedTelSet {
	if !telemetry.Enabled() {
		return nil
	}
	keyedTelOnce.Do(func() {
		r := telemetry.Default()
		t := &keyedTelSet{
			outcomes: map[string]*telemetry.Counter{},
			evalLat: r.Histogram("cnnhe_serve_encrypted_eval_seconds",
				"homomorphic evaluation wall time on the encrypted route", nil),
		}
		for _, o := range keyedOutcomeNames {
			t.outcomes[o] = r.Counter("cnnhe_serve_encrypted_requests_total",
				"encrypted-protocol requests by outcome", telemetry.L("outcome", o))
		}
		keyedTelVal = t
	})
	return keyedTelVal
}

func (t *keyedTelSet) request(outcome string) {
	if t == nil {
		return
	}
	t.outcomes[outcome].Inc()
}

func (t *keyedTelSet) evaluated(d time.Duration) {
	if t == nil {
		return
	}
	t.evalLat.ObserveDuration(d)
}
