// HTTP instrumentation: per-route request counters, latency histograms
// and in-flight gauges, plus the request-ID / trace-context middleware and
// structured access logging. Routes are labelled at registration time (the
// server wraps each handler as it mounts it), so the hot path never
// inspects mux state and the in-flight gauge can be bumped before
// dispatch.
//
// The middleware is also the trace edge: an incoming `traceparent` header
// is parsed into a TraceContext (with a fresh server-side span ID) and an
// incoming `X-Request-ID` is honoured after sanitisation, so agent-side
// logs join server traces by either identifier. Absent headers get minted
// values, and both are echoed on the response for the caller's logs.
package telemetry

import (
	"log/slog"
	"net/http"
	"strconv"
	"time"
)

// HTTPMetrics is the instrument set for one HTTP surface.
type HTTPMetrics struct {
	// Requests counts completed requests by route, method and status code.
	Requests *CounterVec
	// Duration observes per-route request latency in seconds.
	Duration *HistogramVec
	// InFlight gauges requests currently being served per route; summed
	// over routes it is the saturation number dashboards watch next to
	// snaptask_admission_queue_depth.
	InFlight *GaugeVec
}

// NewHTTPMetrics registers the HTTP instrument set on reg. With a nil
// registry the returned bundle holds nil instruments, all of which no-op.
func NewHTTPMetrics(reg *Registry) *HTTPMetrics {
	return &HTTPMetrics{
		Requests: reg.CounterVec("snaptask_http_requests_total",
			"Completed HTTP requests.", "route", "method", "code"),
		Duration: reg.HistogramVec("snaptask_http_request_duration_seconds",
			"HTTP request latency.", DurationBuckets(), "route"),
		InFlight: reg.GaugeVec("snaptask_http_in_flight_requests",
			"Requests currently being served.", "route"),
	}
}

// RequestObserver receives one callback per completed request — the hook
// the SLO tracker hangs off the middleware without telemetry importing the
// slo package.
type RequestObserver interface {
	ObserveRequest(route, method string, status int, elapsed time.Duration)
}

// HTTP wraps route handlers with metrics and access logging. A nil *HTTP
// returns handlers unchanged.
type HTTP struct {
	metrics   *HTTPMetrics
	logger    *slog.Logger
	observers []RequestObserver
}

// NewHTTP builds the route instrumenter; metrics may be nil (no request
// series) and logger may be nil (no access log), but with neither and no
// observers it returns nil. Observers, if any, are notified after each
// completed request.
func NewHTTP(metrics *HTTPMetrics, logger *slog.Logger, observers ...RequestObserver) *HTTP {
	if metrics == nil && logger == nil && len(observers) == 0 {
		return nil
	}
	if metrics == nil {
		metrics = NewHTTPMetrics(nil)
	}
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	return &HTTP{metrics: metrics, logger: logger, observers: observers}
}

// statusRecorder captures the response status for the request counter.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// Unwrap exposes the underlying writer to http.ResponseController, so
// streaming handlers (the SSE event stream) can flush through the wrapper.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// maxRequestIDLen bounds client-supplied request IDs (anything longer is
// replaced, not truncated, to keep log lines honest).
const maxRequestIDLen = 64

// sanitizeRequestID accepts a caller-minted request ID if it is non-empty,
// bounded and printable-token shaped; otherwise returns "".
func sanitizeRequestID(id string) string {
	if id == "" || len(id) > maxRequestIDLen {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_' || c == '.' || c == ':':
		default:
			return ""
		}
	}
	return id
}

// Route wraps one route's handler: resolves the request ID (honouring a
// well-formed client X-Request-ID), extracts or mints the W3C trace
// context, tracks in-flight and completed requests, observes latency,
// notifies request observers, and emits one structured access-log line per
// request.
func (h *HTTP) Route(route string, next http.Handler) http.Handler {
	if h == nil {
		return next
	}
	inFlight := h.metrics.InFlight.With(route)
	duration := h.metrics.Duration.With(route)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()
		id := RequestID(ctx)
		if id == "" {
			id = sanitizeRequestID(r.Header.Get("X-Request-ID"))
		}
		if id == "" {
			id = NewRequestID()
		}
		ctx = ContextWithRequestID(ctx, id)

		tc := TraceContextFromContext(ctx)
		if !tc.Valid() {
			if parsed, err := ParseTraceparent(r.Header.Get("Traceparent")); err == nil {
				// Join the caller's trace with a fresh server-side span.
				tc = parsed.Child()
			} else {
				tc = NewTraceContext()
			}
			ctx = ContextWithTraceContext(ctx, tc)
		}
		r = r.WithContext(ctx)

		// Echo both identifiers so callers without minted IDs can still
		// join their logs to server traces.
		w.Header().Set("X-Request-ID", id)
		w.Header().Set("Traceparent", tc.Header())

		start := time.Now()
		inFlight.Inc()
		rec := &statusRecorder{ResponseWriter: w}
		next.ServeHTTP(rec, r)
		inFlight.Dec()
		if rec.status == 0 {
			// Handler wrote nothing; net/http sends 200 on return.
			rec.status = http.StatusOK
		}
		elapsed := time.Since(start)
		duration.Observe(elapsed.Seconds())
		h.metrics.Requests.With(route, r.Method, strconv.Itoa(rec.status)).Inc()
		for _, obs := range h.observers {
			obs.ObserveRequest(route, r.Method, rec.status, elapsed)
		}
		h.logger.LogAttrs(r.Context(), slog.LevelInfo, "http request",
			slog.String("request_id", id),
			slog.String("trace_id", tc.TraceID),
			slog.String("route", route),
			slog.String("method", r.Method),
			slog.Int("status", rec.status),
			slog.Duration("duration", elapsed),
			slog.String("remote", r.RemoteAddr),
		)
	})
}
