package main

import (
	"context"
	"sync"
	"time"
)

// result is one request as its client saw it.
type result struct {
	Ticket  int
	Latency time.Duration
	Logits  logitError // against the plaintext model
	Meta    reqMeta
	Err     error // transport, HTTP or oracle failure
}

// dispenser hands out request numbers to the closed-loop clients. With
// limit > 0 it stops after limit requests; otherwise it stops at the
// deadline, but only on a multiple of capacity, so the last batch of a
// batching server is as full as every other one and the per-image
// numbers do not depend on where in a batch the clock ran out.
type dispenser struct {
	limit    int
	deadline time.Time
	capacity int
	first    int // number of the first request

	mu     sync.Mutex
	issued int
}

func (d *dispenser) take() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.limit > 0 {
		if d.issued >= d.limit {
			return 0, false
		}
	} else if !time.Now().Before(d.deadline) && d.issued%d.capacity == 0 && d.issued > 0 {
		return 0, false
	}
	d.issued++
	return d.first + d.issued - 1, true
}

// reqTrace ties the spans of one request together. A nil *reqTrace
// records nothing, so the request path is the same code traced or not.
type reqTrace struct {
	rec   *recorder
	req   int
	root  int
	track int
}

func (t *reqTrace) open(name, cat string) int {
	if t == nil {
		return -1
	}
	return t.rec.open(name, cat, t.root, t.req, t.track)
}

func (t *reqTrace) close(i int) {
	if t != nil {
		t.rec.close(i)
	}
}

func (t *reqTrace) addSpan(name, cat string, start, end time.Time) {
	if t != nil {
		t.rec.add(span{Name: name, Cat: cat, Start: start, End: end, Parent: t.root, Req: t.req, Track: t.track})
	}
}

// openEngineParent opens a span and makes it the parent of the engine
// calls made until closeEngineParent. Only single-client in-process
// workloads use it: there the calls between the two are this request's.
func (t *reqTrace) openEngineParent(name, cat string) int {
	i := t.open(name, cat)
	if t != nil {
		t.rec.setCurrent(i, t.req, t.track)
	}
	return i
}

func (t *reqTrace) closeEngineParent(i int) {
	if t != nil {
		t.rec.setCurrent(-1, -1, serverTrack)
		t.rec.close(i)
	}
}

// runLoop drives the instance's closed-loop clients until the dispenser
// runs dry and returns every request, failed ones included, in
// completion order per client. rec non-nil records a root span per
// request.
func runLoop(ctx context.Context, in *instance, d *dispenser, rec *recorder) []result {
	perClient := make([][]result, in.cfg.Clients)
	var wg sync.WaitGroup
	for c := range perClient {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				ticket, ok := d.take()
				if !ok {
					return
				}
				s := in.pool[ticket%len(in.pool)]
				var tr *reqTrace
				if rec != nil {
					tr = &reqTrace{rec: rec, req: ticket, track: c + 1}
					tr.root = rec.open("request", "request", -1, ticket, c+1)
				}
				start := time.Now()
				logits, meta, err := in.classify(ctx, ticket, s.Pixels, tr)
				r := result{Ticket: ticket, Latency: time.Since(start), Meta: meta, Err: err}
				if tr != nil {
					rec.close(tr.root)
				}
				if err == nil {
					r.Logits, r.Err = s.check(logits)
				}
				perClient[c] = append(perClient[c], r)
			}
		}(c)
	}
	wg.Wait()
	var all []result
	for _, rs := range perClient {
		all = append(all, rs...)
	}
	return all
}
