package telemetry

import (
	"log/slog"
	"math"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_ops_total", "ops")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := reg.Gauge("test_depth", "depth")
	g.Set(3.5)
	g.Add(1.5)
	g.Dec()
	if got := g.Value(); got != 4 {
		t.Errorf("gauge = %v, want 4", got)
	}
	// Re-registration with the same shape returns the same series.
	if reg.Counter("test_ops_total", "ops") != c {
		t.Error("re-registration did not return the existing counter")
	}
}

func TestRegistryShapeConflictPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test_conflict", "a counter")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	reg.Gauge("test_conflict", "now a gauge")
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("test_latency_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-56.05) > 1e-9 {
		t.Errorf("sum = %v, want 56.05", h.Sum())
	}
	out := reg.Expose()
	for _, want := range []string{
		`test_latency_seconds_bucket{le="0.1"} 1`,
		`test_latency_seconds_bucket{le="1"} 3`,
		`test_latency_seconds_bucket{le="10"} 4`,
		`test_latency_seconds_bucket{le="+Inf"} 5`,
		`test_latency_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestVecSeriesAndEscaping(t *testing.T) {
	reg := NewRegistry()
	v := reg.CounterVec("test_req_total", "requests", "route", "code")
	v.With("GET /v1/task", "200").Add(3)
	v.With(`weird"route\n`, "500").Inc()
	out := reg.Expose()
	if !strings.Contains(out, `test_req_total{route="GET /v1/task",code="200"} 3`) {
		t.Errorf("labelled series missing:\n%s", out)
	}
	if !strings.Contains(out, `test_req_total{route="weird\"route\\n",code="500"} 1`) {
		t.Errorf("escaped series missing:\n%s", out)
	}
}

func TestGaugeFunc(t *testing.T) {
	reg := NewRegistry()
	val := 7.25
	reg.GaugeFunc("test_age_seconds", "age", func() float64 { return val })
	if !strings.Contains(reg.Expose(), "test_age_seconds 7.25") {
		t.Errorf("gauge func not rendered:\n%s", reg.Expose())
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var reg *Registry
	reg.Counter("x", "x").Inc()
	reg.Gauge("y", "y").Set(1)
	reg.Histogram("z", "z", DurationBuckets()).Observe(1)
	reg.CounterVec("v", "v", "l").With("a").Inc()
	reg.GaugeVec("w", "w", "l").With("a").Dec()
	reg.HistogramVec("u", "u", DurationBuckets(), "l").With("a").Observe(1)
	reg.GaugeFunc("f", "f", func() float64 { return 1 })
	if out := reg.Expose(); out != "" {
		t.Errorf("nil registry rendered %q", out)
	}
	NewIngestMetrics(nil).ModelViews.Set(3)
	NewIngestMetrics(nil).BlurVariance.Observe(150)
	NewSnapshotMetrics(nil).Published()
	NewHTTPMetrics(nil).Requests.With("r", "GET", "200").Inc()
	NewEventMetrics(nil).Appended.Inc()
	NewEventMetrics(nil).FsyncSeconds.Observe(0.001)
	NewDispatchMetrics(nil).Workers.Set(2)
	NewDispatchMetrics(nil).Claims.With("granted").Inc()
	NewDispatchMetrics(nil).ClaimSeconds.Observe(0.001)
	NewLocateMetrics(nil).Duration.With("ok").Observe(0.001)
	NewLocateMetrics(nil).Matched.Observe(3)
	NewWatchdog(nil, WatchdogConfig{}).CaptureProfiles("stall")
	if fams := reg.Families(); fams != nil {
		t.Errorf("nil registry families = %v", fams)
	}
}

func TestConcurrentInstrumentUse(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_conc_total", "c")
	vec := reg.CounterVec("test_conc_vec_total", "c", "worker")
	h := reg.Histogram("test_conc_seconds", "h", DurationBuckets())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			label := strconv.Itoa(w % 3)
			for i := 0; i < 1000; i++ {
				c.Inc()
				vec.With(label).Inc()
				h.Observe(float64(i) / 1000)
				if i%100 == 0 {
					_ = reg.Expose() // render concurrently with writes
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	var sum uint64
	for _, l := range []string{"0", "1", "2"} {
		sum += vec.With(l).Value()
	}
	if sum != 8000 {
		t.Errorf("vec sum = %d, want 8000", sum)
	}
	if h.Count() != 8000 {
		t.Errorf("histogram count = %d, want 8000", h.Count())
	}
}

// fullExposition registers every instrument bundle the system uses plus a
// tracer, exercises them, and returns the rendered text.
func fullExposition(t *testing.T) string {
	t.Helper()
	reg := NewRegistry()
	httpM := NewHTTPMetrics(reg)
	ingest := NewIngestMetrics(reg)
	snap := NewSnapshotMetrics(reg)
	ev := NewEventMetrics(reg)
	disp := NewDispatchMetrics(reg)
	loc := NewLocateMetrics(reg)
	tracer := NewTracer(reg, 8)
	wd := NewWatchdog(reg, WatchdogConfig{})

	httpM.Requests.With("POST /v1/photos", "POST", "200").Inc()
	httpM.Duration.With("POST /v1/photos").Observe(0.42)
	httpM.InFlight.With("POST /v1/photos").Inc()
	ingest.Batches.With("photo_batch", "ok").Inc()
	ingest.PhotosProcessed.Add(45)
	ingest.BlurryRejected.Add(2)
	ingest.Unregistered.Add(1)
	ingest.TasksIssued.With("photo").Inc()
	ingest.TasksIssued.With("annotation").Inc()
	ingest.ModelViews.Set(120)
	ingest.ModelPoints.Set(4031)
	ingest.SOROutliers.Set(6)
	ingest.CoverageCells.Set(20571)
	ingest.BlurVariance.Observe(180.5)
	ingest.BlurVariance.Observe(42)
	ingest.BatchRejected.With("blur").Inc()
	ingest.BatchRejected.With("no_coverage_growth").Inc()
	snap.Published()
	ev.Appended.Add(12)
	ev.DroppedSubscribers.Inc()
	ev.Subscribers.Set(2)
	ev.FsyncSeconds.Observe(0.0004)
	disp.Workers.Set(3)
	disp.ActiveLeases.Set(1)
	disp.Claims.With("granted").Inc()
	disp.Claims.With("no_task").Inc()
	disp.LeaseExpiries.Inc()
	disp.TaskRequeues.Inc()
	disp.ClaimSeconds.Observe(0.002)
	loc.Duration.With("ok").Observe(0.05)
	loc.Matched.Observe(12)
	wd.stalls.Inc()
	wd.profiles.With("stall").Inc()
	wd.schedLat.Observe(0.001)
	wd.ownerBusyG.Set(0.2)
	tr := tracer.Start("photo_batch", "abc-1", TraceContext{})
	tr.Span("sfm.match").End()
	tr.Finish()
	return reg.Expose()
}

// Prometheus text-format grammar, per the exposition format spec.
var (
	metricNameRe = `[a-zA-Z_:][a-zA-Z0-9_:]*`
	labelRe      = `[a-zA-Z_][a-zA-Z0-9_]*="(?:\\.|[^"\\])*"`
	sampleRe     = regexp.MustCompile(`^` + metricNameRe +
		`(?:\{` + labelRe + `(?:,` + labelRe + `)*\})? ` +
		`(?:[-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?|\+Inf|-Inf|NaN)$`)
	helpRe = regexp.MustCompile(`^# HELP ` + metricNameRe + ` .*$`)
	typeRe = regexp.MustCompile(`^# TYPE (` + metricNameRe + `) (counter|gauge|histogram)$`)
)

// TestExpositionIsValidPrometheusText validates every registered series —
// the full catalogue of HTTP, ingest, snapshot and span metrics — against
// the text exposition grammar: metric and label names match the spec
// regexes, every sample belongs to a family announced by a preceding
// # TYPE line, and histogram series only use the _bucket/_sum/_count
// suffixes.
func TestExpositionIsValidPrometheusText(t *testing.T) {
	out := fullExposition(t)
	if out == "" {
		t.Fatal("empty exposition")
	}
	types := map[string]string{}
	var lastFamily string
	for i, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			if !helpRe.MatchString(line) {
				t.Errorf("line %d: malformed HELP: %q", i+1, line)
			}
		case strings.HasPrefix(line, "# TYPE "):
			m := typeRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: malformed TYPE: %q", i+1, line)
			}
			if _, dup := types[m[1]]; dup {
				t.Errorf("line %d: duplicate TYPE for %s", i+1, m[1])
			}
			types[m[1]] = m[2]
			lastFamily = m[1]
		default:
			if !sampleRe.MatchString(line) {
				t.Errorf("line %d: malformed sample: %q", i+1, line)
				continue
			}
			name := line
			if j := strings.IndexAny(name, "{ "); j >= 0 {
				name = name[:j]
			}
			base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name,
				"_bucket"), "_sum"), "_count")
			if name != lastFamily && base != lastFamily {
				t.Errorf("line %d: sample %q outside its family block (%q)", i+1, name, lastFamily)
			}
			if name != lastFamily && types[lastFamily] != "histogram" {
				t.Errorf("line %d: suffixed sample %q on non-histogram family", i+1, name)
			}
		}
	}
	// The catalogue advertised in DESIGN.md §8 must be present.
	for _, want := range []string{
		"snaptask_http_requests_total", "snaptask_http_request_duration_seconds",
		"snaptask_http_in_flight_requests", "snaptask_ingest_batches_total",
		"snaptask_ingest_photos_total", "snaptask_ingest_blurry_rejected_total",
		"snaptask_tasks_issued_total", "snaptask_model_views", "snaptask_model_points",
		"snaptask_model_sor_outliers", "snaptask_coverage_cells",
		"snaptask_snapshot_publishes_total", "snaptask_snapshot_age_seconds",
		"snaptask_ingest_stage_duration_seconds", "snaptask_ingest_batch_duration_seconds",
		"snaptask_blur_variance", "snaptask_ingest_batch_rejected_total",
		"snaptask_events_appended_total", "snaptask_events_dropped_subscribers_total",
		"snaptask_events_subscribers", "snaptask_events_journal_fsync_seconds",
		"snaptask_events_journal_corrupt_total", "snaptask_events_checkpoints_total",
		"snaptask_events_checkpoint_seconds",
		"snaptask_dispatch_workers", "snaptask_dispatch_active_leases",
		"snaptask_dispatch_claims_total", "snaptask_dispatch_lease_expiries_total",
		"snaptask_dispatch_task_requeues_total", "snaptask_dispatch_claim_seconds",
		"snaptask_locate_duration_seconds", "snaptask_locate_matched_features",
		"snaptask_watchdog_stalls_total", "snaptask_watchdog_profiles_total",
		"snaptask_watchdog_sched_latency_seconds", "snaptask_watchdog_owner_busy_seconds",
		"snaptask_runtime_goroutines", "snaptask_runtime_heap_alloc_bytes",
		"snaptask_runtime_heap_objects", "snaptask_runtime_gc_cycles_total",
		"snaptask_runtime_gc_pause_last_seconds",
	} {
		if _, ok := types[want]; !ok {
			t.Errorf("metric %s missing from exposition", want)
		}
	}
}

// TestFamilies: the introspection view lists every family with its kind
// and label names, in registration order.
func TestFamilies(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test_a_total", "a")
	reg.HistogramVec("test_b_seconds", "b", DurationBuckets(), "stage")
	reg.GaugeVec("test_c", "c", "endpoint", "window")
	fams := reg.Families()
	if len(fams) != 3 {
		t.Fatalf("families = %+v, want 3", fams)
	}
	if fams[0].Name != "test_a_total" || fams[0].Kind != "counter" || len(fams[0].Labels) != 0 {
		t.Errorf("fams[0] = %+v", fams[0])
	}
	if fams[1].Name != "test_b_seconds" || fams[1].Kind != "histogram" ||
		len(fams[1].Labels) != 1 || fams[1].Labels[0] != "stage" {
		t.Errorf("fams[1] = %+v", fams[1])
	}
	if fams[2].Kind != "gauge" || len(fams[2].Labels) != 2 {
		t.Errorf("fams[2] = %+v", fams[2])
	}
}

func TestMetricsHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test_total", "t").Inc()
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "test_total 1") {
		t.Errorf("body missing sample:\n%s", rec.Body.String())
	}
}

func TestNewLogger(t *testing.T) {
	var buf strings.Builder
	lg, err := NewLogger(&buf, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	lg.Debug("hidden")
	lg.Info("shown", slog.String("k", "v"))
	out := buf.String()
	if strings.Contains(out, "hidden") || !strings.Contains(out, `"msg":"shown"`) {
		t.Errorf("unexpected log output: %q", out)
	}
	for _, bad := range [][2]string{{"loud", "text"}, {"info", "yaml"}} {
		if _, err := NewLogger(&buf, bad[0], bad[1]); err == nil {
			t.Errorf("NewLogger(%q, %q) accepted", bad[0], bad[1])
		}
	}
}

func TestRequestIDs(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if a == b || a == "" {
		t.Errorf("request IDs not unique: %q, %q", a, b)
	}
	ctx := ContextWithRequestID(t.Context(), a)
	if got := RequestID(ctx); got != a {
		t.Errorf("RequestID = %q, want %q", got, a)
	}
	if got := RequestID(t.Context()); got != "" {
		t.Errorf("RequestID on bare context = %q", got)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	reg := NewRegistry()
	c := reg.Counter("bench_total", "b")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkVecWithObserve(b *testing.B) {
	reg := NewRegistry()
	v := reg.HistogramVec("bench_seconds", "b", DurationBuckets(), "route")
	routes := []string{"GET /v1/map", "POST /v1/photos", "GET /v1/status"}
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			v.With(routes[i%len(routes)]).Observe(0.01)
			i++
		}
	})
}
