package telemetry

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestTraceLifecycle(t *testing.T) {
	reg := NewRegistry()
	tracer := NewTracer(reg, 4)

	tr := tracer.Start("photo_batch", "req-1", TraceContext{})
	sp := tr.Span("sfm.match")
	time.Sleep(time.Millisecond)
	sp.End()
	tr.Span("sor").End()
	tr.SetCount("photos", 45)
	tr.SetError(errors.New("boom"))
	tr.Finish()

	recent := tracer.Recent()
	if len(recent) != 1 {
		t.Fatalf("recent = %d traces, want 1", len(recent))
	}
	rec := recent[0]
	if rec.Kind != "photo_batch" || rec.RequestID != "req-1" || rec.Err != "boom" {
		t.Errorf("unexpected record: %+v", rec)
	}
	if len(rec.Stages) != 2 || rec.Stages[0].Stage != "sfm.match" || rec.Stages[1].Stage != "sor" {
		t.Fatalf("stages = %+v", rec.Stages)
	}
	if rec.Stages[0].DurationMS < 0.5 {
		t.Errorf("sfm.match duration = %v ms, want >= 0.5", rec.Stages[0].DurationMS)
	}
	if rec.DurationMS < rec.Stages[0].DurationMS {
		t.Errorf("total %v ms < stage %v ms", rec.DurationMS, rec.Stages[0].DurationMS)
	}
	if rec.Counts["photos"] != 45 {
		t.Errorf("counts = %v", rec.Counts)
	}
	// The stage duration histogram saw both spans.
	out := reg.Expose()
	if !strings.Contains(out, `snaptask_ingest_stage_duration_seconds_count{stage="sfm.match"} 1`) {
		t.Errorf("stage histogram missing:\n%s", out)
	}
	if !strings.Contains(out, `snaptask_ingest_batch_duration_seconds_count{kind="photo_batch"} 1`) {
		t.Errorf("batch histogram missing:\n%s", out)
	}
}

func TestTracerRingBounds(t *testing.T) {
	tracer := NewTracer(nil, 3)
	for i := 0; i < 10; i++ {
		tr := tracer.Start("photo_batch", "", TraceContext{})
		tr.SetCount("batch", i)
		tr.Finish()
	}
	recent := tracer.Recent()
	if len(recent) != 3 {
		t.Fatalf("ring kept %d, want 3", len(recent))
	}
	// Newest first: batches 9, 8, 7.
	for i, want := range []int{9, 8, 7} {
		if recent[i].Counts["batch"] != want {
			t.Errorf("recent[%d] = batch %d, want %d", i, recent[i].Counts["batch"], want)
		}
	}
	if recent[0].Seq <= recent[1].Seq {
		t.Errorf("sequence not monotone: %d then %d", recent[0].Seq, recent[1].Seq)
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tracer *Tracer
	tr := tracer.Start("photo_batch", "id", TraceContext{})
	if tr != nil {
		t.Fatal("nil tracer produced a trace")
	}
	sp := tr.Span("stage")
	sp.End()
	tr.SetCount("k", 1)
	tr.SetError(errors.New("x"))
	tr.Finish()
	if got := tracer.Recent(); got != nil {
		t.Errorf("nil tracer Recent = %v", got)
	}
}

func TestTracesHandler(t *testing.T) {
	tracer := NewTracer(nil, 8)
	tr := tracer.Start("annotation", "req-9", TraceContext{})
	tr.Span("map.cast").End()
	tr.Finish()

	rec := httptest.NewRecorder()
	tracer.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var payload struct {
		Traces []TraceRecord `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, rec.Body.String())
	}
	if len(payload.Traces) != 1 || payload.Traces[0].RequestID != "req-9" {
		t.Errorf("payload = %+v", payload)
	}
	if len(payload.Traces[0].Stages) != 1 || payload.Traces[0].Stages[0].Stage != "map.cast" {
		t.Errorf("stages = %+v", payload.Traces[0].Stages)
	}
}

// TestTailSamplingRetainsErrors proves error traces survive recent-ring
// churn: a failed trace pushed out of a 3-slot ring by later successes must
// still be served by Retained, tagged with the "error" reason.
func TestTailSamplingRetainsErrors(t *testing.T) {
	tracer := NewTracer(nil, 3)
	tr := tracer.Start("photo_batch", "req-err", TraceContext{})
	tr.SetError(errors.New("registration failed"))
	tr.Finish()
	for i := 0; i < 10; i++ {
		tracer.Start("photo_batch", fmt.Sprintf("req-%d", i), TraceContext{}).Finish()
	}

	for _, rec := range tracer.Recent() {
		if rec.RequestID == "req-err" {
			t.Fatal("error trace still in the recent ring; churn it harder")
		}
	}
	var found *TraceRecord
	for _, rec := range tracer.Retained(0, "") {
		if rec.RequestID == "req-err" {
			found = &rec
			break
		}
	}
	if found == nil {
		t.Fatal("error trace evicted from retention")
	}
	if !contains(found.Retained, "error") {
		t.Errorf("retention reasons = %v, want to include %q", found.Retained, "error")
	}
}

// TestTailSamplingRetainsSlowest proves the per-kind slowest set pins a
// high-latency trace past ring churn, and that min_ms / endpoint filters
// select it.
func TestTailSamplingRetainsSlowest(t *testing.T) {
	tracer := NewTracer(nil, 3)
	slow := tracer.Start("locate", "req-slow", TraceContext{})
	time.Sleep(8 * time.Millisecond)
	slow.Finish()
	// Churn both rings with fast traces of a different kind.
	for i := 0; i < 10; i++ {
		tracer.Start("photo_batch", fmt.Sprintf("req-%d", i), TraceContext{}).Finish()
	}

	got := tracer.Retained(4, "locate")
	if len(got) != 1 || got[0].RequestID != "req-slow" {
		t.Fatalf("Retained(4, locate) = %+v, want the one slow locate trace", got)
	}
	if !contains(got[0].Retained, "slowest") {
		t.Errorf("retention reasons = %v, want to include %q", got[0].Retained, "slowest")
	}
	if got := tracer.Retained(1e6, ""); len(got) != 0 {
		t.Errorf("min_ms=1e6 still returned %d traces", len(got))
	}
	if got := tracer.Retained(4, "photo_batch"); len(got) != 0 {
		t.Errorf("endpoint filter leaked %d non-matching traces", len(got))
	}
}

// TestTailSamplingSlowestBounded: the slowest set keeps at most
// slowestPerKind members per kind, evicting the fastest.
func TestTailSamplingSlowestBounded(t *testing.T) {
	tracer := NewTracer(nil, 2)
	for i := 0; i < 3*slowestPerKind; i++ {
		tracer.Start("claim", fmt.Sprintf("req-%d", i), TraceContext{}).Finish()
	}
	n := 0
	for _, rec := range tracer.Retained(0, "claim") {
		if contains(rec.Retained, "slowest") {
			n++
		}
	}
	if n != slowestPerKind {
		t.Errorf("slowest set holds %d claim traces, want %d", n, slowestPerKind)
	}
}

// TestRetainedDedup: a trace that is simultaneously recent, slowest and an
// error appears once, with all three reasons.
func TestRetainedDedup(t *testing.T) {
	tracer := NewTracer(nil, 4)
	tr := tracer.Start("annotation", "req-1", TraceContext{})
	tr.SetError(errors.New("boom"))
	tr.Finish()
	got := tracer.Retained(0, "")
	if len(got) != 1 {
		t.Fatalf("Retained returned %d records, want 1", len(got))
	}
	for _, why := range []string{"recent", "error", "slowest"} {
		if !contains(got[0].Retained, why) {
			t.Errorf("reasons = %v, missing %q", got[0].Retained, why)
		}
	}
}

func TestTracesHandlerQueryParams(t *testing.T) {
	tracer := NewTracer(nil, 8)
	slow := tracer.Start("locate", "req-slow", TraceContext{})
	time.Sleep(6 * time.Millisecond)
	slow.Finish()
	tracer.Start("photo_batch", "req-fast", TraceContext{}).Finish()

	get := func(url string) (int, []TraceRecord) {
		rec := httptest.NewRecorder()
		tracer.Handler().ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		var payload struct {
			Traces []TraceRecord `json:"traces"`
		}
		if rec.Code == 200 {
			if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
				t.Fatalf("invalid JSON: %v", err)
			}
		}
		return rec.Code, payload.Traces
	}
	if code, traces := get("/debug/traces?min_ms=3"); code != 200 ||
		len(traces) != 1 || traces[0].RequestID != "req-slow" {
		t.Errorf("min_ms=3: code %d traces %+v", code, traces)
	}
	if code, traces := get("/debug/traces?endpoint=photo_batch"); code != 200 ||
		len(traces) != 1 || traces[0].RequestID != "req-fast" {
		t.Errorf("endpoint=photo_batch: code %d traces %+v", code, traces)
	}
	if code, traces := get("/debug/traces?limit=1"); code != 200 || len(traces) != 1 {
		t.Errorf("limit=1: code %d, %d traces", code, len(traces))
	}
	if code, _ := get("/debug/traces?min_ms=nope"); code != 400 {
		t.Errorf("bad min_ms: code %d, want 400", code)
	}
	if code, _ := get("/debug/traces?limit=-1"); code != 400 {
		t.Errorf("bad limit: code %d, want 400", code)
	}
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}

// TestTracerConcurrentFinishAndScrape races trace completion against ring
// reads; run under -race this proves the hand-off is sound.
func TestTracerConcurrentFinishAndScrape(t *testing.T) {
	tracer := NewTracer(nil, 16)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			tr := tracer.Start("photo_batch", fmt.Sprintf("req-%d", i), TraceContext{})
			tr.Span("sfm.match").End()
			tr.Finish()
		}
	}()
	for {
		select {
		case <-done:
			if n := len(tracer.Recent()); n != 16 {
				t.Errorf("final ring size %d, want 16", n)
			}
			return
		default:
			for _, rec := range tracer.Recent() {
				if rec.Kind != "photo_batch" {
					t.Fatalf("torn record: %+v", rec)
				}
			}
		}
	}
}
