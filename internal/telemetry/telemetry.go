// Package telemetry is SnapTask's zero-dependency observability layer:
// a hand-rolled metrics registry rendered in the Prometheus text
// exposition format, per-stage ingest spans with a bounded trace ring
// buffer, and log/slog helpers with per-request IDs — everything the
// stdlib provides, nothing it doesn't.
//
// The layer is designed to be threaded through library code
// unconditionally: every type is nil-receiver safe, and every instrument
// bundle built over a nil *Registry holds nil instruments that no-op. The
// API accepts nil anywhere a piece of telemetry may be missing; "no
// telemetry" is resolved once, where a bundle is wired (Telemetry.Resolve
// supplies a discarding logger), so code that records, logs or traces
// never branches on whether telemetry is configured. Library tests and
// benchmarks therefore run the same code as a served campaign, against
// no-op sinks.
package telemetry

import (
	"context"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"strings"
	"sync/atomic"
	"time"
)

// Telemetry bundles the three pillars handed to the server and the core
// system. Any field — or the whole bundle — may be nil: the code that
// wires a bundle resolves it with Resolve, and everything downstream then
// records into no-op sinks.
type Telemetry struct {
	// Registry collects metrics for GET /metrics.
	Registry *Registry
	// Tracer collects per-stage batch traces for GET /debug/traces.
	Tracer *Tracer
	// Logger is the structured base logger.
	Logger *slog.Logger
}

// New returns a fully wired bundle: a fresh registry, a tracer retaining
// traceCap batches, and the given logger (which may be nil).
func New(logger *slog.Logger, traceCap int) *Telemetry {
	reg := NewRegistry()
	return &Telemetry{
		Registry: reg,
		Tracer:   NewTracer(reg, traceCap),
		Logger:   logger,
	}
}

// Resolve returns the bundle with its missing pieces in no-op form: a nil
// bundle or nil Logger becomes a logger that discards every record, and a
// nil Registry or Tracer stays nil, as both are nil-receiver safe. Wiring
// code calls it once, so nothing downstream checks for a missing logger.
func (t *Telemetry) Resolve() Telemetry {
	var r Telemetry
	if t != nil {
		r = *t
	}
	if r.Logger == nil {
		r.Logger = slog.New(slog.DiscardHandler)
	}
	return r
}

// NewLogger builds a slog logger from the -log-level / -log-format flag
// values. level is one of debug, info, warn, error; format is text or
// json.
func NewLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "info", "":
		lvl = slog.LevelInfo
	case "warn", "warning":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("telemetry: unknown log level %q (debug, info, warn, error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "text", "":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("telemetry: unknown log format %q (text, json)", format)
	}
}

// Request IDs: a process-random prefix plus an atomic counter — unique
// within and (with high probability) across processes, and cheap enough
// for the request hot path.
var (
	reqIDPrefix = func() string {
		var b [4]byte
		// Seeded from the clock: request IDs are correlation handles, not
		// secrets, and math/rand keeps the package dependency-free even of
		// entropy-pool behaviour differences.
		r := rand.New(rand.NewSource(time.Now().UnixNano()))
		for i := range b {
			b[i] = byte(r.Intn(256))
		}
		return hex.EncodeToString(b[:])
	}()
	reqIDCounter atomic.Uint64
)

// NewRequestID mints a request ID like "f3a29c1b-42".
func NewRequestID() string {
	return fmt.Sprintf("%s-%d", reqIDPrefix, reqIDCounter.Add(1))
}

type requestIDKey struct{}

// ContextWithRequestID stores a request ID in the context.
func ContextWithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestID returns the context's request ID, or "".
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}
