// Stage spans: a lightweight per-batch trace of the ingest pipeline. The
// model owner starts one Trace per processed batch, the pipeline stages
// (sfm matching, seeding, register sweep, triangulation, SOR, map rebuild,
// task generation) open Spans on it, and Finish feeds the per-stage
// duration histograms and publishes the completed trace into the retention
// store — the "where did this slow upload spend its time" view at
// GET /debug/traces. Request-scoped traces (locate, claim) use the same
// machinery via StartRequest, which skips the ingest batch histogram.
//
// Retention is tail-sampled rather than a single FIFO ring: a recent ring
// keeps the last N traces of any kind, an error ring always retains failed
// traces even after the recent ring has churned past them, and a per-kind
// slowest set keeps the top-K highest-latency traces per endpoint. The
// /debug/traces handler serves the deduplicated union, filterable with
// ?min_ms= and ?endpoint=.
//
// The in-flight record is guarded by a small mutex, so a Trace stays safe to
// record from more than one goroutine. Active tracing still adds only two
// time.Now calls, one short critical section and one histogram observation
// per stage. Every method is nil-receiver safe: with no Tracer configured,
// Start returns a nil Trace and the entire span tree degrades to no-ops
// without branching at call sites.
package telemetry

import (
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// StageRecord is one completed span inside a batch trace.
type StageRecord struct {
	Stage      string  `json:"stage"`
	DurationMS float64 `json:"durationMs"`
}

// TraceRecord is one completed batch trace as served by /debug/traces.
type TraceRecord struct {
	// Seq is a process-unique, monotonically increasing trace number.
	Seq uint64 `json:"seq"`
	// TraceID is the W3C trace-id joining this record to the client that
	// caused it and to the server access-log line (empty when the request
	// carried no traceparent and none was minted).
	TraceID string `json:"traceId,omitempty"`
	// SpanID is the server-side span within the trace.
	SpanID string `json:"spanId,omitempty"`
	// RequestID correlates the trace with the HTTP request log lines that
	// produced it (empty for batches not driven by a request).
	RequestID string `json:"requestId,omitempty"`
	// Kind is the trace kind: bootstrap, photo_batch, annotation for
	// ingest batches; locate, claim for request traces.
	Kind  string    `json:"kind"`
	Start time.Time `json:"start"`
	// DurationMS is the end-to-end batch duration.
	DurationMS float64 `json:"durationMs"`
	// Stages lists per-stage durations in completion order.
	Stages []StageRecord `json:"stages"`
	// Counts carries batch outcome counters (photos, registered, new
	// points, coverage cells, ...).
	Counts map[string]int `json:"counts,omitempty"`
	// Err records a failed batch's error text.
	Err string `json:"err,omitempty"`
	// Retained lists why the tail sampler kept this record (recent, error,
	// slowest) — populated on read, not stored.
	Retained []string `json:"retained,omitempty"`
}

// slowestPerKind is how many highest-latency traces are pinned per kind.
const slowestPerKind = 8

// Tracer collects traces into the tail-sampling retention store and, when
// built over a Registry, per-stage and per-batch duration histograms.
type Tracer struct {
	stageDur *HistogramVec
	batchDur *HistogramVec

	mu   sync.Mutex
	ring []TraceRecord
	next int
	size int
	seq  uint64
	// errs pins failed traces beyond the recent ring (same bound).
	errs     []TraceRecord
	errsNext int
	// slow pins the top-slowestPerKind highest-latency traces per kind,
	// sorted ascending by duration so the eviction candidate is slow[k][0].
	slow map[string][]TraceRecord
}

// NewTracer returns a tracer whose recent ring keeps the last capacity
// traces (default 64 when capacity <= 0); error traces and the slowest
// traces per kind are retained beyond that ring. reg may be nil: traces
// still accumulate, only the duration histograms are skipped.
func NewTracer(reg *Registry, capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 64
	}
	return &Tracer{
		stageDur: reg.HistogramVec("snaptask_ingest_stage_duration_seconds",
			"Duration of one ingest pipeline stage.", DurationBuckets(), "stage"),
		batchDur: reg.HistogramVec("snaptask_ingest_batch_duration_seconds",
			"End-to-end duration of one ingested batch.", DurationBuckets(), "kind"),
		ring: make([]TraceRecord, 0, capacity),
		size: capacity,
		slow: make(map[string][]TraceRecord),
	}
}

// Trace is one in-flight batch trace. Spans and counters may be recorded
// from multiple goroutines concurrently (each append is serialised by the
// trace mutex); Finish must be called exactly once, after all recording
// goroutines are done. A nil Trace is a valid no-op.
type Trace struct {
	t   *Tracer
	mu  sync.Mutex
	rec *TraceRecord
	// request marks request-scoped traces (locate, claim) that must not
	// feed the ingest batch duration histogram.
	request bool
}

// Start opens a trace for one ingest batch. requestID may be empty; tc
// joins the trace to the client's distributed trace, and its zero value
// joins none.
func (t *Tracer) Start(kind, requestID string, tc TraceContext) *Trace {
	if t == nil {
		return nil
	}
	rec := &TraceRecord{Kind: kind, RequestID: requestID, Start: time.Now()}
	if tc.Valid() {
		rec.TraceID, rec.SpanID = tc.TraceID, tc.SpanID
	}
	return &Trace{t: t, rec: rec}
}

// StartRequest opens a request-scoped trace (locate, claim): identical to
// Start except the ingest batch histogram is not observed on Finish, so
// read-path traffic cannot pollute ingest latency series.
func (t *Tracer) StartRequest(kind, requestID string, tc TraceContext) *Trace {
	tr := t.Start(kind, requestID, tc)
	if tr == nil {
		return nil
	}
	tr.request = true
	return tr
}

// Span is one in-flight stage measurement.
type Span struct {
	tr    *Trace
	stage string
	start time.Time
}

// Span opens a stage span on the trace.
func (tr *Trace) Span(stage string) *Span {
	if tr == nil {
		return nil
	}
	return &Span{tr: tr, stage: stage, start: time.Now()}
}

// End closes the span, appending it to the trace and observing the stage
// duration histogram.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	d := time.Since(sp.start)
	sp.tr.mu.Lock()
	sp.tr.rec.Stages = append(sp.tr.rec.Stages, StageRecord{
		Stage:      sp.stage,
		DurationMS: float64(d) / 1e6,
	})
	sp.tr.mu.Unlock()
	sp.tr.t.stageDur.With(sp.stage).Observe(d.Seconds())
}

// SetCount attaches an outcome counter to the trace.
func (tr *Trace) SetCount(key string, v int) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	if tr.rec.Counts == nil {
		tr.rec.Counts = make(map[string]int, 8)
	}
	tr.rec.Counts[key] = v
	tr.mu.Unlock()
}

// SetError records the batch error on the trace.
func (tr *Trace) SetError(err error) {
	if tr == nil || err == nil {
		return
	}
	tr.mu.Lock()
	tr.rec.Err = err.Error()
	tr.mu.Unlock()
}

// Finish completes the trace: stamps the total duration, observes the
// batch histogram (ingest traces only) and publishes the record into the
// retention store. The trace must not be used afterwards.
func (tr *Trace) Finish() {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	d := time.Since(tr.rec.Start)
	tr.rec.DurationMS = float64(d) / 1e6
	rec := *tr.rec
	tr.mu.Unlock()
	if !tr.request {
		tr.t.batchDur.With(rec.Kind).Observe(d.Seconds())
	}
	tr.t.retain(rec)
}

// retain applies the tail-sampling policy to one completed record.
func (t *Tracer) retain(rec TraceRecord) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec.Seq = t.seq
	t.seq++

	// Recent ring: every trace, FIFO.
	if len(t.ring) < t.size {
		t.ring = append(t.ring, rec)
	} else {
		t.ring[t.next] = rec
		t.next = (t.next + 1) % t.size
	}

	// Error ring: failed traces survive recent-ring churn.
	if rec.Err != "" {
		if len(t.errs) < t.size {
			t.errs = append(t.errs, rec)
		} else {
			t.errs[t.errsNext] = rec
			t.errsNext = (t.errsNext + 1) % t.size
		}
	}

	// Slowest-per-kind set: insert keeping ascending duration order, evict
	// the fastest member once over capacity.
	s := t.slow[rec.Kind]
	i := sort.Search(len(s), func(i int) bool { return s[i].DurationMS >= rec.DurationMS })
	s = append(s, TraceRecord{})
	copy(s[i+1:], s[i:])
	s[i] = rec
	if len(s) > slowestPerKind {
		s = append(s[:0], s[1:]...)
		s = s[:slowestPerKind]
	}
	t.slow[rec.Kind] = s
}

// Recent returns the recent-ring traces, newest first. (The error and
// slowest retention sets are served by Retained / the HTTP handler.)
func (t *Tracer) Recent() []TraceRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceRecord, 0, len(t.ring))
	// Ring order: t.next is the oldest slot once the buffer wrapped.
	for i := len(t.ring) - 1; i >= 0; i-- {
		out = append(out, t.ring[(t.next+i)%len(t.ring)])
	}
	return out
}

// Retained returns the deduplicated union of the recent ring, the error
// ring and the per-kind slowest sets, newest first, filtered to traces of
// at least minMS total duration and (when endpoint is non-empty) the given
// kind. Each record's Retained field lists the reasons it was kept.
func (t *Tracer) Retained(minMS float64, endpoint string) []TraceRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	byseq := make(map[uint64]*TraceRecord, len(t.ring)+len(t.errs))
	add := func(rec TraceRecord, why string) {
		if rec.DurationMS < minMS || (endpoint != "" && rec.Kind != endpoint) {
			return
		}
		if have, ok := byseq[rec.Seq]; ok {
			have.Retained = append(have.Retained, why)
			return
		}
		rec.Retained = []string{why}
		byseq[rec.Seq] = &rec
	}
	for _, rec := range t.ring {
		add(rec, "recent")
	}
	for _, rec := range t.errs {
		add(rec, "error")
	}
	for _, s := range t.slow {
		for _, rec := range s {
			add(rec, "slowest")
		}
	}
	out := make([]TraceRecord, 0, len(byseq))
	for _, rec := range byseq {
		sort.Strings(rec.Retained)
		out = append(out, *rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq > out[j].Seq })
	return out
}

// Handler serves the retained traces as JSON, newest first — mount it next
// to pprof on the debug listener, not on the public API mux. Query params:
// ?min_ms=N keeps only traces at least N milliseconds long, ?endpoint=kind
// filters by trace kind (photo_batch, annotation, bootstrap, locate,
// claim), ?limit=N caps the result count.
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		minMS := 0.0
		if v := q.Get("min_ms"); v != "" {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				http.Error(w, "bad min_ms: "+err.Error(), http.StatusBadRequest)
				return
			}
			minMS = f
		}
		traces := t.Retained(minMS, q.Get("endpoint"))
		if v := q.Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				http.Error(w, "bad limit", http.StatusBadRequest)
				return
			}
			if n < len(traces) {
				traces = traces[:n]
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			Traces []TraceRecord `json:"traces"`
		}{Traces: traces})
	})
}
