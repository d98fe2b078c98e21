package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval recorded by the benchmark around a call
// into a layer's public functions. Parent is the index of the span that
// caused it (-1 for a root); Req groups the spans of one request.
type span struct {
	Name   string
	Cat    string // layer: "request", "henn", "engine", "client", "http", "setup"
	Start  time.Time
	End    time.Time
	Parent int
	Req    int
	Track  int // Chrome-trace thread: one per closed-loop client, serverTrack for engine calls
}

// serverTrack is the Chrome-trace thread engine spans are drawn on when
// they run outside any client goroutine (the serve batcher).
const serverTrack = 100

// recorder keeps spans in memory until the run ends. The zero parent
// (-1, -1) marks engine calls made outside a request, e.g. by the serve
// batcher on behalf of a whole batch.
type recorder struct {
	mu    sync.Mutex
	spans []span

	// parent/req/track attribute engine spans to the request whose
	// goroutine is currently inside the engine. Only the single-client
	// in-process workloads set them; concurrent workloads leave -1.
	parent atomic.Int32
	req    atomic.Int32
	track  atomic.Int32
}

func newRecorder() *recorder {
	r := &recorder{}
	r.setCurrent(-1, -1, serverTrack)
	return r
}

// setCurrent names the span engine calls should hang under.
func (r *recorder) setCurrent(parent, req, track int) {
	r.parent.Store(int32(parent))
	r.req.Store(int32(req))
	r.track.Store(int32(track))
}

// add appends a finished span and returns its index.
func (r *recorder) add(s span) int {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	i := len(r.spans) - 1
	r.mu.Unlock()
	return i
}

// open appends a span whose End is set later by close.
func (r *recorder) open(name, cat string, parent, req, track int) int {
	return r.add(span{Name: name, Cat: cat, Start: time.Now(), Parent: parent, Req: req, Track: track})
}

func (r *recorder) close(i int) {
	now := time.Now()
	r.mu.Lock()
	r.spans[i].End = now
	r.mu.Unlock()
}

// chromeEvent is one entry of the Chrome trace-event format
// (chrome://tracing, ui.perfetto.dev).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes the spans as complete ("X") events, one thread
// per track, timestamps in microseconds since the first span.
func writeChromeTrace(path string, workload string, spans []span) error {
	events := make([]chromeEvent, 0, len(spans)+8)
	var t0 time.Time
	tracks := map[int]bool{}
	for _, s := range spans {
		if t0.IsZero() || s.Start.Before(t0) {
			t0 = s.Start
		}
		tracks[s.Track] = true
	}
	events = append(events, chromeEvent{Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]any{"name": "benchmark " + workload}})
	for tr := range tracks {
		name := "client"
		if tr == serverTrack {
			name = "engine (server side)"
		}
		events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tr,
			Args: map[string]any{"name": name}})
	}
	for i, s := range spans {
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Cat, Ph: "X", Pid: 1, Tid: s.Track,
			Ts:   float64(s.Start.Sub(t0)) / float64(time.Microsecond),
			Dur:  float64(s.End.Sub(s.Start)) / float64(time.Microsecond),
			Args: map[string]any{"id": i, "parent": s.Parent, "req": s.Req},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
