package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// missed is the latency recorded for a failed, refused or wrongly
// answered request: it misses every latency limit.
const missed = time.Hour

// request is one pre-built request: its body is encoded during set-up, so
// the timed phase spends its CPU in the server, not in the generator.
type request struct {
	kind   string
	due    time.Duration // offset from phase start (open loop only)
	method string
	path   string
	body   []byte
	// check validates the answer; a non-nil error marks it wrong.
	check func(status int, body []byte) error
}

// sample is one request's latency and the time it was due (or sent).
type sample struct {
	at  time.Time
	lat time.Duration
}

// tally accumulates per-kind latencies and the failure ledger of a run.
type tally struct {
	mu        sync.Mutex
	lat       map[string][]sample
	attempted int
	failed    int // transport errors and unexpected statuses
	refused   int // shed by admission control (429/503)
	wrong     int // answered, but the answer failed its check
	firstErr  error
}

func newTally() *tally { return &tally{lat: map[string][]sample{}} }

// record files one answered (or failed) request due at origin. err is a
// transport error; checkErr a failed answer check.
func (t *tally) record(kind string, origin time.Time, latency time.Duration, status int, err, checkErr error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	switch {
	case err != nil:
		t.failed++
		t.noteLocked(fmt.Errorf("%s: %w", kind, err))
		latency = missed
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		t.refused++
		t.noteLocked(fmt.Errorf("%s: refused with %d", kind, status))
		latency = missed
	case checkErr != nil:
		t.wrong++
		t.noteLocked(fmt.Errorf("%s: wrong answer: %w", kind, checkErr))
		latency = missed
	}
	t.lat[kind] = append(t.lat[kind], sample{origin, latency})
}

// fail records a correctness failure that is not tied to one request
// (a final-state or restart mismatch).
func (t *tally) fail(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.wrong++
	t.noteLocked(err)
}

func (t *tally) noteLocked(err error) {
	if t.firstErr == nil {
		t.firstErr = err
	}
}

func (t *tally) latencies(kind string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]time.Duration, len(t.lat[kind]))
	for i, s := range t.lat[kind] {
		out[i] = s.lat
	}
	return out
}

func (t *tally) samples(kind string) []sample {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]sample(nil), t.lat[kind]...)
}

// send issues one request and files its outcome; latency runs from
// origin (the due time in an open loop, the send time in a closed loop).
func send(ctx context.Context, c *httpClient, t *tally, r *request, origin time.Time) (int, []byte, error) {
	status, body, err := c.do(ctx, r.method, r.path, r.body)
	lat := time.Since(origin)
	var checkErr error
	if err == nil && r.check != nil && status != http.StatusTooManyRequests && status != http.StatusServiceUnavailable {
		checkErr = r.check(status, body)
	}
	if ctx.Err() != nil {
		return status, body, ctx.Err() // interrupted: do not file a bogus failure
	}
	t.record(r.kind, origin, lat, status, err, checkErr)
	return status, body, err
}

// openLoopResult describes how one open-loop schedule ran.
type openLoopResult struct {
	late    []time.Duration // dispatch time minus due time, per dispatched request
	backlog int             // requests due but not yet sent at the last arrival
	elapsed time.Duration
}

// runOpenLoop sends reqs at their due times through conns sender
// goroutines, timing each from its due time (so a stall also charges the
// requests queued behind it), and returns once every request has been
// answered or ctx is done.
func runOpenLoop(ctx context.Context, sup *supervisor, c *httpClient, t *tally, reqs []request, conns int) openLoopResult {
	res := openLoopResult{late: make([]time.Duration, len(reqs))}
	start := time.Now()
	// Sized to the number of sends, so the dispatcher never blocks on a
	// slow server and the backlog is visible as queue length.
	queue := make(chan int, len(reqs))
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer sup.onPanic()
			for i := range queue {
				if ctx.Err() != nil {
					continue
				}
				_, _, _ = send(ctx, c, t, &reqs[i], start.Add(reqs[i].due))
			}
		}()
	}
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	dispatched := 0
dispatch:
	for i := range reqs {
		due := start.Add(reqs[i].due)
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			select {
			case <-ctx.Done():
				break dispatch
			case <-timer.C:
			}
		}
		res.late[i] = time.Since(due)
		dispatched++
		queue <- i
	}
	res.late = res.late[:dispatched]
	res.backlog = len(queue)
	close(queue)
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// mixEntry is one request kind in an open-loop mix.
type mixEntry struct {
	weight float64
	build  func(rng *rand.Rand) request
}

// poissonSchedule draws Poisson arrivals at rate per second for dur,
// choosing each request's kind from mix by weight.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration, mix []mixEntry) []request {
	var total float64
	for _, m := range mix {
		total += m.weight
	}
	var reqs []request
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return reqs
		}
		x := rng.Float64() * total
		k := 0
		for ; k < len(mix)-1 && x >= mix[k].weight; k++ {
			x -= mix[k].weight
		}
		r := mix[k].build(rng)
		r.due = due
		reqs = append(reqs, r)
	}
}

// merge adds o's counts and latencies into t.
func (t *tally) merge(o *tally) {
	o.mu.Lock()
	defer o.mu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted += o.attempted
	t.failed += o.failed
	t.refused += o.refused
	t.wrong += o.wrong
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
	for k, v := range o.lat {
		t.lat[k] = append(t.lat[k], v...)
	}
}
