// Admission control: the server's overload armour. The owner path is a
// single mutex, so under overload the failure mode without admission
// control is an unbounded convoy of goroutines parked on the lock — memory
// grows with offered load and every queued request eventually times out
// client-side anyway. Instead the server bounds the owner-path queue and
// sheds the excess with 429 + Retry-After, rate-limits each worker with a
// token bucket, caps request bodies, and arms per-response write deadlines
// against slow clients. Every rejection is visible three ways: the
// snaptask_requests_shed_total{cause} counter, an error-retained trace in
// the tail-sampling store, and a coalesced load_shed event on the bus.
package server

import (
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"snaptask/internal/events"
	"snaptask/internal/telemetry"
)

// Shed causes carried by snaptask_requests_shed_total and load_shed events.
const (
	// ShedQueueFull: the bounded owner-path admission queue was at capacity.
	ShedQueueFull = "queue_full"
	// ShedRateLimit: the per-worker token bucket was empty.
	ShedRateLimit = "rate_limit"
	// ShedBodyLimit: the request body exceeded the configured cap (413).
	ShedBodyLimit = "body_limit"
)

// AdmissionConfig bounds what the server accepts. Zero values disable the
// corresponding control, so the zero config — the default of servers
// built without WithAdmission — admits everything.
type AdmissionConfig struct {
	// MaxQueue bounds how many requests may hold or wait for the owner
	// lock; request MaxQueue+1 is shed with 429.
	MaxQueue int
	// RatePerSec and RateBurst configure the per-worker token bucket
	// (keyed by worker ID, falling back to the remote host for anonymous
	// requests). RatePerSec <= 0 disables rate limiting; RateBurst
	// defaults to max(1, RatePerSec).
	RatePerSec float64
	RateBurst  float64
	// MaxBodyBytes caps decoded request bodies (413 beyond it).
	MaxBodyBytes int64
	// WriteTimeout is the per-response write deadline armed on non-
	// streaming handlers so a slow-reading client cannot pin a handler
	// goroutine indefinitely. SSE streams are exempt (they heartbeat).
	WriteTimeout time.Duration
}

// shedFlushInterval coalesces load_shed events: at most one event per
// (endpoint, cause) per interval, carrying the rejection count since the
// last flush — so a shedding storm cannot flood the journal it is meant to
// make observable.
const shedFlushInterval = time.Second

// admission holds the runtime state behind AdmissionConfig.
type admission struct {
	cfg    AdmissionConfig
	m      *telemetry.AdmissionMetrics
	tracer *telemetry.Tracer
	logger *slog.Logger
	evlog  *events.Log

	// queued counts requests holding or waiting for the owner lock.
	queued atomic.Int64
	// svcNanos is an EWMA of owner-path service time (lock held), the
	// basis for queue-full Retry-After estimates.
	svcNanos atomic.Int64

	buckets sync.Map // worker key -> *tokenBucket

	shedMu      sync.Mutex
	shedPending map[[2]string]int // (endpoint, cause) -> count
	shedLast    time.Time
}

// init wires the observability sinks (New hands over resolved ones: the
// logger is never nil) and fills the config defaults; New calls it once
// the options have set cfg.
func (a *admission) init(m *telemetry.AdmissionMetrics,
	tracer *telemetry.Tracer, logger *slog.Logger, evlog *events.Log) {
	if a.cfg.RatePerSec > 0 && a.cfg.RateBurst <= 0 {
		a.cfg.RateBurst = math.Max(1, a.cfg.RatePerSec)
	}
	a.m, a.tracer, a.logger, a.evlog = m, tracer, logger, evlog
	a.shedPending = make(map[[2]string]int)
	a.svcNanos.Store(int64(50 * time.Millisecond)) // prior until measured
}

// tokenBucket is one worker's rate limiter.
type tokenBucket struct {
	mu     sync.Mutex
	tokens float64
	last   time.Time
	rate   float64
	burst  float64
}

// take spends one token, or reports how long until one is available.
func (b *tokenBucket) take(now time.Time) (ok bool, retryAfter time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.last.IsZero() {
		b.tokens = math.Min(b.burst, b.tokens+now.Sub(b.last).Seconds()*b.rate)
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
}

// allowRate checks the caller's token bucket, shedding with 429 +
// Retry-After when empty. A true return means the request proceeds.
func (a *admission) allowRate(w http.ResponseWriter, r *http.Request, endpoint, key string) bool {
	if a.cfg.RatePerSec <= 0 {
		return true
	}
	if key == "" {
		key = remoteHost(r)
	}
	v, ok := a.buckets.Load(key)
	if !ok {
		v, _ = a.buckets.LoadOrStore(key, &tokenBucket{
			tokens: a.cfg.RateBurst, rate: a.cfg.RatePerSec, burst: a.cfg.RateBurst,
		})
	}
	allowed, retryAfter := v.(*tokenBucket).take(time.Now())
	if allowed {
		return true
	}
	a.shed(w, r, endpoint, ShedRateLimit, retryAfter)
	return false
}

// enterQueue reserves an owner-path slot; over the bound it sheds with a
// Retry-After estimated from the current depth times the measured owner
// service time. The caller must pair a true return with exitQueue.
func (a *admission) enterQueue(w http.ResponseWriter, r *http.Request, endpoint string) bool {
	q := a.queued.Add(1)
	a.m.QueueDepth.Set(float64(q))
	if a.cfg.MaxQueue > 0 && q > int64(a.cfg.MaxQueue) {
		a.queued.Add(-1)
		retryAfter := time.Duration(q) * time.Duration(a.svcNanos.Load())
		a.shed(w, r, endpoint, ShedQueueFull, retryAfter)
		return false
	}
	return true
}

// exitQueue releases the slot and folds the observed lock-held time into
// the service-time EWMA (alpha 0.1; a lossy racy update only jitters the
// Retry-After estimate).
func (a *admission) exitQueue(service time.Duration) {
	a.m.QueueDepth.Set(float64(a.queued.Add(-1)))
	old := a.svcNanos.Load()
	a.svcNanos.Store(old + (int64(service)-old)/10)
}

// shed rejects one request: counter, coalesced bus event, error-retained
// trace, and a 429 with Retry-After (clamped to [1s, 60s], integer seconds
// per RFC 9110).
func (a *admission) shed(w http.ResponseWriter, r *http.Request, endpoint, cause string, retryAfter time.Duration) {
	a.m.Shed.With(cause).Inc()
	a.recordShed(r, endpoint, cause)
	secs := int(math.Ceil(retryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, http.StatusTooManyRequests, map[string]any{
		"error":             "overloaded",
		"cause":             cause,
		"retryAfterSeconds": secs,
	})
}

// shedBody rejects an oversized request body with 413 (no Retry-After —
// retrying the same body cannot succeed), with the same triple visibility.
func (a *admission) shedBody(w http.ResponseWriter, r *http.Request, endpoint string) {
	a.m.Shed.With(ShedBodyLimit).Inc()
	a.recordShed(r, endpoint, ShedBodyLimit)
	WriteBodyLimit(w, a.cfg.MaxBodyBytes)
}

// WriteBodyLimit writes the 413 answer to a request whose body ran past
// the cap of maxBodyBytes.
func WriteBodyLimit(w http.ResponseWriter, maxBodyBytes int64) {
	writeJSON(w, http.StatusRequestEntityTooLarge, map[string]any{
		"error":        "request body too large",
		"cause":        ShedBodyLimit,
		"maxBodyBytes": maxBodyBytes,
	})
}

// recordShed makes one rejection observable beyond the counter: an
// error-marked request trace (the tail sampler retains errors) and a
// coalesced load_shed event.
func (a *admission) recordShed(r *http.Request, endpoint, cause string) {
	TraceShed(a.tracer, r, endpoint, cause)

	a.shedMu.Lock()
	key := [2]string{endpoint, cause}
	a.shedPending[key]++
	now := time.Now()
	var flush map[[2]string]int
	if a.shedLast.IsZero() || now.Sub(a.shedLast) >= shedFlushInterval {
		flush = a.shedPending
		a.shedPending = make(map[[2]string]int)
		a.shedLast = now
	}
	a.shedMu.Unlock()

	for k, n := range flush {
		a.evlog.Emit(events.Event{
			Kind:     events.KindLoadShed,
			Endpoint: k[0],
			Cause:    k[1],
			Count:    n,
		})
		a.logger.Warn("load shed",
			slog.String("endpoint", k[0]),
			slog.String("cause", k[1]),
			slog.Int("count", n))
	}
}

// TraceShed finishes an error-marked "shed" request trace for r on
// tracer, which the tail sampler retains.
func TraceShed(tracer *telemetry.Tracer, r *http.Request, endpoint, cause string) {
	tr := tracer.StartRequest("shed", telemetry.RequestID(r.Context()),
		telemetry.TraceContextFromContext(r.Context()))
	tr.SetError(fmt.Errorf("load shed: %s %s", endpoint, cause))
	tr.Finish()
}

// limitBody caps the request body so a single oversized upload cannot
// balloon the decode path; decode errors surface as *http.MaxBytesError
// and are answered by shedBody.
func (a *admission) limitBody(w http.ResponseWriter, r *http.Request) {
	if a.cfg.MaxBodyBytes <= 0 {
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, a.cfg.MaxBodyBytes)
}

// armWriteDeadline puts a deadline on the response write so a slow-reading
// client cannot pin the handler goroutine (and, on the owner path, the
// model) indefinitely. Errors are ignored: test recorders and exotic
// writers simply don't support deadlines.
func (a *admission) armWriteDeadline(w http.ResponseWriter) {
	if a.cfg.WriteTimeout <= 0 {
		return
	}
	_ = http.NewResponseController(w).SetWriteDeadline(time.Now().Add(a.cfg.WriteTimeout))
}

// remoteHost extracts the bucket key for requests that carry no worker
// identity.
func remoteHost(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// ownerAdmit runs admission for an owner-path request and, when admitted,
// acquires the owner lock. workerKey attributes the request to a rate-limit
// bucket ("" falls back to the remote host). On ok the caller must defer
// release; on !ok the 429/413 response has already been written.
func (s *Server) ownerAdmit(w http.ResponseWriter, r *http.Request, endpoint, workerKey string) (release func(), ok bool) {
	a := s.adm
	a.armWriteDeadline(w)
	if !a.allowRate(w, r, endpoint, workerKey) {
		return nil, false
	}
	if !a.enterQueue(w, r, endpoint) {
		return nil, false
	}
	waitStart := time.Now()
	s.mu.Lock()
	lockedAt := time.Now()
	a.m.QueueWait.Observe(lockedAt.Sub(waitStart).Seconds())
	return func() {
		s.mu.Unlock()
		a.exitQueue(time.Since(lockedAt))
	}, true
}

// rateAdmit runs only the token-bucket check — for endpoints off the owner
// path (locate, heartbeat) that still need per-worker throttling.
func (s *Server) rateAdmit(w http.ResponseWriter, r *http.Request, endpoint, workerKey string) bool {
	s.adm.armWriteDeadline(w)
	return s.adm.allowRate(w, r, endpoint, workerKey)
}
