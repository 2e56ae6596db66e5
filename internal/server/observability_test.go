package server

import (
	"encoding/json"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"snaptask/internal/camera"
	"snaptask/internal/core"
	"snaptask/internal/events"
	"snaptask/internal/telemetry"
	"snaptask/internal/telemetry/slo"
	"snaptask/internal/venue"
)

// newObservedTestServer builds a backend with the full observability bundle:
// telemetry registry + tracer, SLO tracker and a journal-backed event log,
// so /v1/slo, /metrics and the tail-sampled trace store all serve live data.
func newObservedTestServer(t *testing.T) (*httptest.Server, *camera.World, *venue.Venue, *telemetry.Telemetry, *slo.Tracker, *events.Log) {
	t.Helper()
	v, err := venue.SmallRoom()
	if err != nil {
		t.Fatal(err)
	}
	feats := v.GenerateFeatures(rand.New(rand.NewSource(1)))
	w := camera.NewWorld(v, feats)
	sys, err := core.NewSystem(v, w, core.Config{Margin: 3})
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New(slog.New(slog.DiscardHandler), 16)
	sys.SetTelemetry(tel)
	sloT := slo.New(tel.Registry)
	log, err := events.OpenDir(t.TempDir(), nil, events.DirStoreOptions{}, events.CheckpointPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(sys, rand.New(rand.NewSource(2)),
		WithTelemetry(tel), WithSLO(sloT), WithEvents(log))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		log.Close()
	})
	return ts, w, v, tel, sloT, log
}

// TestSLOEndpointReport: GET /v1/slo serves the evaluated report and real
// traffic driven through the middleware lands in the right endpoint bucket.
func TestSLOEndpointReport(t *testing.T) {
	ts, w, v, _, _, _ := newObservedTestServer(t)
	bootstrapUpload(t, ts, w, v, 3)

	code, body := getBody(t, ts.URL+"/v1/slo")
	if code != http.StatusOK {
		t.Fatalf("/v1/slo code %d", code)
	}
	var rep slo.Report
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("invalid /v1/slo JSON: %v\n%s", err, body)
	}
	if len(rep.Endpoints) != 3 {
		t.Fatalf("endpoints = %+v, want claim/locate/upload", rep.Endpoints)
	}
	// The upload's wall-clock latency depends on the host (and the race
	// detector), so assert only latency-independent facts: the middleware
	// fed the request into the right endpoint bucket with its objective.
	for _, er := range rep.Endpoints {
		if er.Endpoint != "upload" {
			continue
		}
		if er.Objective != 0.99 {
			t.Errorf("upload objective = %v", er.Objective)
		}
		var saw uint64
		for _, wr := range er.Windows {
			if wr.Window == "5m" {
				saw = wr.Total
			}
		}
		if saw == 0 {
			t.Errorf("middleware did not feed the upload into the SLO tracker: %+v", er)
		}
	}
}

// TestSLOBurnFlipsAndEmitsEvent: injected latency violations flip /v1/slo
// from healthy to burning and the transition lands on the event bus as an
// slo_burn event (via the server's OnTransition wiring).
func TestSLOBurnFlipsAndEmitsEvent(t *testing.T) {
	ts, _, _, _, sloT, log := newObservedTestServer(t)

	// Healthy first: a clean report with nothing burning.
	code, body := getBody(t, ts.URL+"/v1/slo")
	if code != http.StatusOK {
		t.Fatalf("/v1/slo code %d", code)
	}
	var rep slo.Report
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatal(err)
	}
	for _, er := range rep.Endpoints {
		if er.Burning {
			t.Fatalf("fresh server already burning: %+v", er)
		}
	}

	// Inject latency violations: every locate far over its 250ms target.
	for i := 0; i < 20; i++ {
		sloT.Record("locate", time.Hour, false)
	}
	// The /v1/slo handler evaluates on scrape, which edge-triggers the
	// transition through the server's OnTransition hook.
	code, body = getBody(t, ts.URL+"/v1/slo")
	if code != http.StatusOK {
		t.Fatalf("/v1/slo code %d", code)
	}
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatal(err)
	}
	burning := false
	for _, er := range rep.Endpoints {
		if er.Endpoint == "locate" && er.Burning && er.Severity == "fast" {
			burning = true
		}
	}
	if !burning {
		t.Fatalf("locate did not flip to fast burn:\n%s", body)
	}

	var burns []events.Event
	if err := log.ReadAfter(0, func(e events.Event) error {
		if e.Kind == events.KindSLOBurn {
			burns = append(burns, e)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(burns) != 1 {
		t.Fatalf("slo_burn events = %+v, want exactly one", burns)
	}
	b := burns[0]
	if b.Endpoint != "locate" || !b.Burning || b.Severity != "fast" || b.BurnRate <= 1 {
		t.Errorf("slo_burn event = %+v", b)
	}
}

// TestSLOBurnNotInCampaignCounters: slo_burn is operational telemetry; it
// must not perturb the campaign aggregate that restarts must reproduce
// byte-identically.
func TestSLOBurnNotInCampaignCounters(t *testing.T) {
	ts, _, _, _, sloT, log := newObservedTestServer(t)
	before := log.Campaign().Counters()
	for i := 0; i < 20; i++ {
		sloT.Record("upload", time.Hour, false)
	}
	if code, _ := getBody(t, ts.URL+"/v1/slo"); code != http.StatusOK {
		t.Fatalf("/v1/slo scrape failed")
	}
	after := log.Campaign().Counters()
	// The journal cursor advances (the event is persisted for the tail
	// stream) but every semantic counter must stay untouched.
	if after.LastSeq == before.LastSeq {
		t.Error("slo_burn was not journaled")
	}
	after.LastSeq = before.LastSeq
	if after != before {
		t.Errorf("slo_burn leaked into campaign counters: %+v vs %+v", after, before)
	}
}

// TestLocateTraceAndMetrics: POST /v1/locate produces the dedicated latency
// histogram and a tail-sampled request trace with per-stage spans.
func TestLocateTraceAndMetrics(t *testing.T) {
	ts, w, v, tel, _, _ := newObservedTestServer(t)
	bootstrapUpload(t, ts, w, v, 3)

	pos := v.Entrance()
	pos.Y += 1.5
	sweep, err := w.Sweep(pos, camera.DefaultIntrinsics(), camera.CaptureOptions{}, rand.New(rand.NewSource(31)))
	if err != nil {
		t.Fatal(err)
	}
	var resp LocateResponse
	if code := postJSON(t, ts.URL+"/v1/locate", LocateRequest{Photo: PhotoToDTO(sweep[0])}, &resp); code != http.StatusOK {
		t.Fatalf("locate code %d", code)
	}
	if resp.Matched == 0 {
		t.Fatal("locate matched no model features")
	}

	_, metrics := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		`snaptask_locate_duration_seconds_count{result="ok"} 1`,
		"snaptask_locate_matched_features_count 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	var loc *telemetry.TraceRecord
	for _, tr := range tel.Tracer.Recent() {
		if tr.Kind == "locate" {
			loc = &tr
			break
		}
	}
	if loc == nil {
		t.Fatal("no locate trace retained")
	}
	if loc.TraceID == "" || loc.RequestID == "" || loc.Err != "" {
		t.Errorf("locate trace header: %+v", loc)
	}
	stages := make(map[string]bool)
	for _, sp := range loc.Stages {
		stages[sp.Stage] = true
	}
	for _, want := range []string{"locate.decode", "locate.match", "locate.localize"} {
		if !stages[want] {
			t.Errorf("locate trace missing stage %q (got %v)", want, loc.Stages)
		}
	}
	if loc.Counts["matched"] != resp.Matched {
		t.Errorf("trace matched count = %d, response said %d", loc.Counts["matched"], resp.Matched)
	}
}

// TestConcurrentSLOAndTraceScrapes hammers /v1/slo and the tail-sampled
// trace store (with query filters) while uploads and locates mutate the
// model — run under -race, the detector is the assertion.
func TestConcurrentSLOAndTraceScrapes(t *testing.T) {
	ts, w, v, tel, _, _ := newObservedTestServer(t)
	traces := httptest.NewServer(tel.Tracer.Handler())
	defer traces.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, url := range []string{
		ts.URL + "/v1/slo",
		traces.URL + "?min_ms=0",
		traces.URL + "?endpoint=locate",
		ts.URL + "/metrics",
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(url)
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s: code %d", url, resp.StatusCode)
					return
				}
			}
		}()
	}

	bootstrapUpload(t, ts, w, v, 3)
	rng := rand.New(rand.NewSource(7))
	pos := v.Entrance()
	pos.Y += 1.5
	for i := 0; i < 3; i++ {
		sweep, err := w.Sweep(v.Entrance(), camera.DefaultIntrinsics(), camera.CaptureOptions{}, rng)
		if err != nil {
			t.Fatal(err)
		}
		req := UploadRequest{LocX: v.Entrance().X, LocY: v.Entrance().Y}
		for _, p := range sweep {
			req.Photos = append(req.Photos, PhotoToDTO(p))
		}
		if code := postJSON(t, ts.URL+"/v1/photos", req, new(UploadResponse)); code != http.StatusOK {
			t.Fatalf("sweep upload %d code %d", i, code)
		}
		probe, err := w.Sweep(pos, camera.DefaultIntrinsics(), camera.CaptureOptions{}, rng)
		if err != nil {
			t.Fatal(err)
		}
		if code := postJSONNoFatal(ts.URL+"/v1/locate", LocateRequest{Photo: PhotoToDTO(probe[0])}, new(LocateResponse)); code != http.StatusOK && code != http.StatusUnprocessableEntity {
			t.Fatalf("locate %d code %d", i, code)
		}
	}
	close(stop)
	wg.Wait()

	// 4 ingest traces plus at least one locate trace made it into retention.
	kinds := make(map[string]int)
	for _, tr := range tel.Tracer.Retained(0, "") {
		kinds[tr.Kind]++
	}
	if kinds["bootstrap"] == 0 || kinds["photo_batch"] == 0 || kinds["locate"] == 0 {
		t.Errorf("retained trace kinds = %v, want bootstrap+photo_batch+locate", kinds)
	}
}
