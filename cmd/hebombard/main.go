// Command hebombard is an open-loop load generator for heserve with a
// machine-readable SLO report. Open loop means arrivals are scheduled by
// a fixed-rate clock, not by completions — a slow server faces a growing
// backlog exactly as it would in production, so overload behavior
// (429/503 shedding, Retry-After pricing, deadline sheds) is measured
// honestly rather than hidden by a self-throttling client.
//
// Every scheduled request is accounted to exactly one terminal class:
// ok, an HTTP error family, a transport error, or a local in-flight
// overrun. sent − accounted is reported as silently_dropped — the number
// the soak suite (and the CI smoke job) asserts to be zero, because a
// request that vanished without a response is the one failure mode a
// robust server may never exhibit.
//
// Usage:
//
//	hebombard -url http://localhost:8000 -rate 20 -duration 30s
//	          [-deadline 0] [-chaos spec] [-chaos-seed 1]
//	          [-max-inflight 512] [-wait-ready 0] [-out -]
//
// The report is JSON on stdout (or -out): arrival/throughput rates,
// latency percentiles (p50/p95/p99), the error-class histogram, and any
// client-side chaos faults that fired. Exit status: 0 on a clean run,
// 1 if any request was silently dropped, 2 if nothing succeeded at all.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cnnhe/internal/chaos"
	"cnnhe/internal/client"
	"cnnhe/internal/serve"
	"cnnhe/internal/telemetry"
)

// Report is the machine-readable SLO summary.
type Report struct {
	URL        string    `json:"url"`
	RatePerSec float64   `json:"rate_per_sec"`
	Duration   string    `json:"duration"`
	Started    time.Time `json:"started"`
	Ended      time.Time `json:"ended"`

	// Sent counts scheduled arrivals; every one lands in exactly one
	// class below or is a silent drop.
	Sent            int64            `json:"sent"`
	OK              int64            `json:"ok"`
	Errors          map[string]int64 `json:"errors,omitempty"`
	SilentlyDropped int64            `json:"silently_dropped"`

	// ImagesPerSec is successful classifications over wall time (the
	// paper's amortized throughput, measured end to end).
	ImagesPerSec float64 `json:"images_per_sec"`
	LatencyMs    Latency `json:"latency_ms"`

	// ChaosFired reports client-side injected faults, when -chaos is set.
	ChaosFired map[string]int64 `json:"chaos_fired,omitempty"`

	// ServerOptimizer is the graph-optimizer setting the target server
	// reported on /healthz at startup ("off" or "on"); an SLO
	// number is not comparable across optimizer settings. Empty when
	// the probe failed (e.g. an older server).
	ServerOptimizer string `json:"server_optimizer,omitempty"`

	// SlowestRequests are the worst successful round trips with their
	// trace IDs — paste one into the server's
	// /debug/requests?trace=<id> to see exactly where its time went.
	SlowestRequests []SlowRequest `json:"slowest_requests,omitempty"`
}

// SlowRequest joins one slow client-side latency to the server's trace.
type SlowRequest struct {
	TraceID   string  `json:"trace_id"`
	RequestID string  `json:"request_id,omitempty"`
	LatencyMs float64 `json:"latency_ms"`
}

// fetchServerOptimizer asks /healthz for the server's optimizer
// setting. Best-effort: any failure returns "".
func fetchServerOptimizer(c *http.Client, url string) string {
	resp, err := c.Get(url + "/healthz")
	if err != nil {
		return ""
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return ""
	}
	var body struct {
		Optimizer string `json:"optimizer"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return ""
	}
	return body.Optimizer
}

// Latency summarizes successful-request latency in milliseconds.
type Latency struct {
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
}

// bombardier runs the open loop and accounts every arrival.
type bombardier struct {
	url      string
	dim      int
	deadline time.Duration
	client   *http.Client
	rng      *rand.Rand // arrival-goroutine image seeds only

	inflight    atomic.Int64
	maxInflight int64
	sent        atomic.Int64
	accounted   atomic.Int64
	ok          atomic.Int64

	mu        sync.Mutex
	errors    map[string]int64
	latencies []time.Duration
	oks       []SlowRequest // successful round trips with trace join keys
}

// account records one terminal outcome for an arrival.
func (b *bombardier) account(class string, d time.Duration) {
	b.accountTraced(class, d, SlowRequest{})
}

// accountTraced is account plus the request's trace join keys (kept for
// the slowest-requests report section on successes).
func (b *bombardier) accountTraced(class string, d time.Duration, sr SlowRequest) {
	b.accounted.Add(1)
	if class == "ok" {
		b.ok.Add(1)
		sr.LatencyMs = float64(d) / float64(time.Millisecond)
		b.mu.Lock()
		b.latencies = append(b.latencies, d)
		if sr.TraceID != "" {
			b.oks = append(b.oks, sr)
		}
		b.mu.Unlock()
		return
	}
	b.mu.Lock()
	b.errors[class]++
	b.mu.Unlock()
}

// classify is one request: build a deterministic random image, POST it,
// classify the outcome.
func (b *bombardier) classify(seed int64) {
	defer b.inflight.Add(-1)
	rng := rand.New(rand.NewSource(seed))
	img := make([]float64, b.dim)
	for i := range img {
		img[i] = float64(rng.Intn(256))
	}
	body, err := json.Marshal(serve.ClassifyRequest{Image: img})
	if err != nil {
		b.account("encode", 0)
		return
	}
	req, err := http.NewRequest(http.MethodPost, b.url+"/classify", bytes.NewReader(body))
	if err != nil {
		b.account("encode", 0)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	tc := telemetry.NewTraceContext()
	req.Header.Set(client.HeaderTraceparent, tc.Traceparent())
	if b.deadline > 0 {
		req.Header.Set(serve.HeaderRequestDeadline, b.deadline.String())
	}
	start := time.Now()
	resp, err := b.client.Do(req)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			b.account("timeout", 0)
		} else {
			b.account("transport", 0)
		}
		return
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		// Status arrived but the body tore off mid-read (truncation,
		// reset): the exchange failed, whatever the status line said.
		b.account("truncated_body", 0)
		return
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		b.accountTraced("ok", time.Since(start), SlowRequest{
			TraceID:   tc.TraceIDString(),
			RequestID: resp.Header.Get(client.HeaderRequestID),
		})
	case resp.StatusCode == http.StatusTooManyRequests:
		b.account("http_429", 0)
	case resp.StatusCode == http.StatusServiceUnavailable:
		b.account("http_503", 0)
	case resp.StatusCode == http.StatusGatewayTimeout:
		b.account("http_504", 0)
	case resp.StatusCode >= 500:
		b.account("http_5xx", 0)
	default:
		b.account(fmt.Sprintf("http_%d", resp.StatusCode), 0)
	}
}

// slowest returns the n worst successful round trips, slowest first.
func slowest(oks []SlowRequest, n int) []SlowRequest {
	sort.Slice(oks, func(i, j int) bool { return oks[i].LatencyMs > oks[j].LatencyMs })
	if len(oks) > n {
		oks = oks[:n]
	}
	return oks
}

// percentile reads the q-th quantile from sorted latencies.
func percentile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return float64(sorted[idx]) / float64(time.Millisecond)
}

func main() {
	var (
		url         = flag.String("url", "http://localhost:8000", "heserve base URL")
		rate        = flag.Float64("rate", 20, "open-loop arrival rate, requests/second")
		duration    = flag.Duration("duration", 30*time.Second, "load duration")
		dim         = flag.Int("dim", 0, "image dimension (0 = fetch from /v1/info)")
		deadline    = flag.Duration("deadline", 0, "X-Request-Deadline to attach (0 = none)")
		reqTimeout  = flag.Duration("request-timeout", 2*time.Minute, "client-side per-request timeout")
		maxInflight = flag.Int64("max-inflight", 512, "cap on concurrent requests; overruns count as local_overrun")
		waitReady   = flag.Duration("wait-ready", 0, "poll /healthz this long before starting (0 = start immediately)")
		chaosSpec   = flag.String("chaos", "", "client-side network fault spec (see internal/chaos)")
		chaosSeed   = flag.Int64("chaos-seed", 1, "seed for -chaos fault randomness")
		seed        = flag.Int64("seed", 1, "image-content seed")
		out         = flag.String("out", "-", "report destination ('-' = stdout)")
	)
	flag.Parse()
	fatal := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "hebombard: "+format+"\n", args...)
		os.Exit(2)
	}
	if *rate <= 0 {
		fatal("-rate must be positive")
	}

	var inj *chaos.Injector
	transport := http.DefaultTransport
	if *chaosSpec != "" {
		var err error
		if inj, err = chaos.Parse(*chaosSpec, *chaosSeed); err != nil {
			fatal("parsing -chaos: %v", err)
		}
		transport = inj.Transport(transport)
	}
	httpClient := &http.Client{Timeout: *reqTimeout, Transport: transport}

	if *waitReady > 0 {
		readyDeadline := time.Now().Add(*waitReady)
		for {
			resp, err := http.Get(*url + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(readyDeadline) {
				fatal("server not ready after %v", *waitReady)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	if *dim <= 0 {
		cl := client.New(*url)
		cl.HTTP = &http.Client{Timeout: 10 * time.Second}
		info, err := cl.Info(context.Background())
		if err != nil {
			fatal("fetching /v1/info for the image dimension (pass -dim to skip): %v", err)
		}
		*dim = info.InputDim
	}

	// Probe with a clean client: the chaos transport must not be able to
	// fault the metadata fetch.
	serverOptimizer := fetchServerOptimizer(&http.Client{Timeout: 10 * time.Second}, *url)

	b := &bombardier{
		url:         *url,
		dim:         *dim,
		deadline:    *deadline,
		client:      httpClient,
		rng:         rand.New(rand.NewSource(*seed)),
		maxInflight: *maxInflight,
		errors:      map[string]int64{},
	}

	started := time.Now()
	interval := time.Duration(float64(time.Second) / *rate)
	ticker := time.NewTicker(interval)
	stop := time.After(*duration)
	var wg sync.WaitGroup
loop:
	for {
		select {
		case <-stop:
			ticker.Stop()
			break loop
		case <-ticker.C:
			b.sent.Add(1)
			if b.inflight.Load() >= b.maxInflight {
				// Arrival admitted to accounting but not launched: the
				// client itself is saturated. Not a silent drop.
				b.account("local_overrun", 0)
				continue
			}
			b.inflight.Add(1)
			wg.Add(1)
			imgSeed := b.rng.Int63()
			go func() {
				defer wg.Done()
				b.classify(imgSeed)
			}()
		}
	}
	wg.Wait()
	ended := time.Now()

	sort.Slice(b.latencies, func(i, j int) bool { return b.latencies[i] < b.latencies[j] })
	var sum time.Duration
	for _, d := range b.latencies {
		sum += d
	}
	lat := Latency{
		P50: percentile(b.latencies, 0.50),
		P95: percentile(b.latencies, 0.95),
		P99: percentile(b.latencies, 0.99),
	}
	if n := len(b.latencies); n > 0 {
		lat.Max = float64(b.latencies[n-1]) / float64(time.Millisecond)
		lat.Mean = float64(sum) / float64(n) / float64(time.Millisecond)
	}
	rep := Report{
		URL:             *url,
		RatePerSec:      *rate,
		Duration:        duration.String(),
		Started:         started,
		Ended:           ended,
		Sent:            b.sent.Load(),
		OK:              b.ok.Load(),
		Errors:          b.errors,
		SilentlyDropped: b.sent.Load() - b.accounted.Load(),
		ImagesPerSec:    float64(b.ok.Load()) / ended.Sub(started).Seconds(),
		LatencyMs:       lat,
		ChaosFired:      inj.Fired(),
		ServerOptimizer: serverOptimizer,
		SlowestRequests: slowest(b.oks, 5),
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatal("creating report file: %v", err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatal("writing report: %v", err)
	}

	switch {
	case rep.SilentlyDropped > 0:
		fmt.Fprintf(os.Stderr, "hebombard: FAIL: %d requests silently dropped\n", rep.SilentlyDropped)
		os.Exit(1)
	case rep.OK == 0:
		fmt.Fprintln(os.Stderr, "hebombard: FAIL: no request succeeded")
		os.Exit(2)
	}
}
