package campaign

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"snaptask/internal/camera"
	"snaptask/internal/core"
	"snaptask/internal/geom"
	"snaptask/internal/server"
	"snaptask/internal/telemetry"
	"snaptask/internal/venue"
)

func testTelemetry() *telemetry.Telemetry {
	return telemetry.New(slog.New(slog.NewTextHandler(io.Discard, nil)), 8)
}

// newTestManager builds a manager with a default campaign over the small
// test room and an httptest server in front of it.
func newTestManager(t *testing.T, cfg ManagerConfig) (*Manager, *httptest.Server) {
	t.Helper()
	if cfg.Telemetry == nil {
		cfg.Telemetry = testTelemetry()
	}
	if cfg.LeaseTTL == 0 {
		cfg.LeaseTTL = time.Minute
	}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.CreateDefault(Spec{Venue: "small", Seed: 1}, nil); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	ts := httptest.NewServer(m)
	t.Cleanup(ts.Close)
	return m, ts
}

// campaignWorld rebuilds the deterministic world a campaign spec implies,
// so tests can capture photos the campaign's model will accept.
func campaignWorld(t testing.TB, spec Spec) (*venue.Venue, *camera.World) {
	t.Helper()
	v, err := venue.ByName(spec.Venue, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	return v, camera.NewWorld(v, v.GenerateFeatures(rand.New(rand.NewSource(spec.Seed))))
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url string, in, out any) int {
	t.Helper()
	payload, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("POST %s: decode: %v", url, err)
	}
	return resp.StatusCode
}

// bootstrapCampaign uploads the entrance capture to one campaign's scoped
// upload route, seeding its model with tasks.
func bootstrapCampaign(t *testing.T, base string, spec Spec, seed int64) {
	t.Helper()
	v, w := campaignWorld(t, spec)
	rng := rand.New(rand.NewSource(seed))
	photos, err := core.BootstrapCapture(w, v, camera.DefaultIntrinsics(), rng)
	if err != nil {
		t.Fatal(err)
	}
	req := server.UploadRequest{Bootstrap: true}
	for _, p := range photos {
		req.Photos = append(req.Photos, server.PhotoToDTO(p))
	}
	var up server.UploadResponse
	if code := postJSON(t, base+"/photos", req, &up); code != http.StatusOK {
		t.Fatalf("bootstrap %s: code %d", base, code)
	}
}

// sweepUpload fulfils one pending task over the campaign-scoped routes
// (register the sweeper worker, claim, sweep, upload under the lease).
// Returns false when the campaign reports no pending task or is covered.
func sweepUpload(t *testing.T, base string, spec Spec, seed int64) bool {
	t.Helper()
	v, w := campaignWorld(t, spec)
	var reg server.RegisterWorkerResponse
	if code := postJSON(t, base+"/workers", server.RegisterWorkerRequest{ID: "sweeper"}, &reg); code != http.StatusOK {
		t.Fatalf("register %s: code %d", base, code)
	}
	var claim server.ClaimResponse
	code := postJSON(t, base+"/task/claim", server.ClaimRequest{WorkerID: reg.ID}, &claim)
	task := claim.Task
	if code == http.StatusNotFound || task.Covered {
		return false
	}
	if code != http.StatusOK {
		t.Fatalf("claim %s: code %d", base, code)
	}
	pos := geom.V2(task.X, task.Y)
	if v.Blocked(pos) {
		pos = v.Entrance()
	}
	rng := rand.New(rand.NewSource(seed))
	sweep, err := w.Sweep(pos, camera.DefaultIntrinsics(), camera.CaptureOptions{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	req := server.UploadRequest{TaskID: task.ID, LocX: task.X, LocY: task.Y,
		SeedX: task.SeedX, SeedY: task.SeedY, HasSeed: task.HasSeed,
		WorkerID: claim.WorkerID, LeaseID: claim.LeaseID}
	for _, p := range sweep {
		req.Photos = append(req.Photos, server.PhotoToDTO(p))
	}
	var up server.UploadResponse
	if code := postJSON(t, base+"/photos", req, &up); code != http.StatusOK {
		t.Fatalf("sweep upload %s: code %d", base, code)
	}
	return true
}

func campaignBase(ts *httptest.Server, id string) string {
	return ts.URL + "/v1/campaigns/" + id
}

// TestBodyCapOnEveryRoute sends each route that reads a small JSON body a
// normal body and one past the admission body cap: the first succeeds,
// the second answers 413 body_limit.
func TestBodyCapOnEveryRoute(t *testing.T) {
	const maxBody = 4 << 20
	m, ts := newTestManager(t, ManagerConfig{Admission: server.AdmissionConfig{MaxBodyBytes: maxBody}})
	bootstrapCampaign(t, ts.URL+"/v1", Spec{Venue: "small", Seed: 1}, 2)
	pad := strings.Repeat("x", maxBody)
	for _, c := range []struct {
		path, normal, oversized string
		want                    int
	}{
		{"/v1/workers", `{"id":"w1"}`, `{"id":"` + pad + `"}`, http.StatusOK},
		{"/v1/task/claim", `{"workerId":"w1"}`, `{"workerId":"` + pad + `"}`, http.StatusOK},
		{"/v1/campaigns", `{"id":"c1","venue":"small","seed":7}`, `{"id":"` + pad + `"}`, http.StatusCreated},
	} {
		t.Run(strings.TrimPrefix(c.path, "/v1/"), func(t *testing.T) {
			resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.oversized))
			if err != nil {
				t.Fatal(err)
			}
			var shed map[string]any
			err = json.NewDecoder(resp.Body).Decode(&shed)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusRequestEntityTooLarge || shed["cause"] != server.ShedBodyLimit {
				t.Errorf("oversized body: code %d, cause %v; want 413 %s", resp.StatusCode, shed["cause"], server.ShedBodyLimit)
			}
			resp, err = http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.normal))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != c.want {
				t.Errorf("normal body: code %d, want %d", resp.StatusCode, c.want)
			}
		})
	}
	// The two campaign routes count their sheds.
	var buf bytes.Buffer
	m.cfg.Telemetry.Registry.Render(&buf)
	if want := `snaptask_requests_shed_total{campaign="default",cause="body_limit"} 2`; !strings.Contains(buf.String(), want) {
		t.Errorf("metrics missing %q", want)
	}
}

func TestLifecycleHTTP(t *testing.T) {
	m, ts := newTestManager(t, ManagerConfig{})

	// Create.
	var created Rollup
	if code := postJSON(t, ts.URL+"/v1/campaigns", Spec{ID: "alpha", Venue: "small", Seed: 7}, &created); code != http.StatusCreated {
		t.Fatalf("create: code %d", code)
	}
	if created.ID != "alpha" || created.Venue != "small" {
		t.Fatalf("create rollup: %+v", created)
	}

	// Duplicate, bad ID, bad venue, reserved ID.
	if code := postJSON(t, ts.URL+"/v1/campaigns", Spec{ID: "alpha", Venue: "small"}, nil); code != http.StatusConflict {
		t.Fatalf("duplicate create: code %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/campaigns", Spec{ID: "Bad/ID", Venue: "small"}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad id create: code %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/campaigns", Spec{ID: "default", Venue: "small"}, nil); code != http.StatusBadRequest {
		t.Fatalf("reserved id create: code %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/campaigns", Spec{ID: "beta", Venue: "nope"}, nil); code >= 200 && code < 300 {
		t.Fatalf("bogus venue accepted: code %d", code)
	}

	// List: default first, then alpha.
	var list ListResponse
	if code := getJSON(t, ts.URL+"/v1/campaigns", &list); code != http.StatusOK {
		t.Fatalf("list: code %d", code)
	}
	if len(list.Campaigns) != 2 || list.Campaigns[0].ID != DefaultID || list.Campaigns[1].ID != "alpha" {
		t.Fatalf("list: %+v", list.Campaigns)
	}

	// Get.
	var got Rollup
	if code := getJSON(t, campaignBase(ts, "alpha"), &got); code != http.StatusOK || got.ID != "alpha" {
		t.Fatalf("get: code %d rollup %+v", code, got)
	}
	if code := getJSON(t, campaignBase(ts, "ghost"), nil); code != http.StatusNotFound {
		t.Fatalf("get unknown: code %d", code)
	}

	// Scoped routes hit the owning campaign.
	var st server.StatusResponse
	if code := getJSON(t, campaignBase(ts, "alpha")+"/status", &st); code != http.StatusOK {
		t.Fatalf("scoped status: code %d", code)
	}
	if code := getJSON(t, campaignBase(ts, "ghost")+"/status", nil); code != http.StatusNotFound {
		t.Fatalf("scoped status unknown campaign: code %d", code)
	}

	// Claims go only through the campaign-scoped register-then-claim
	// path: there is no cross-campaign claim route, so these answer like
	// any unknown route.
	for _, path := range []string{"/v1/nope", "/v1/pool/workers", "/v1/pool/claim"} {
		if code := postJSON(t, ts.URL+path, server.ClaimRequest{WorkerID: "w1"}, nil); code != http.StatusNotFound {
			t.Fatalf("POST %s: code %d, want 404", path, code)
		}
	}

	// Archive: mutations 410, reads still fine, idempotent, default refused.
	if code := postJSON(t, campaignBase(ts, "alpha")+"/archive", struct{}{}, nil); code != http.StatusOK {
		t.Fatalf("archive: code %d", code)
	}
	if !m.Get("alpha").Archived() {
		t.Fatal("alpha not archived")
	}
	if code := postJSON(t, campaignBase(ts, "alpha")+"/photos", server.UploadRequest{}, nil); code != http.StatusGone {
		t.Fatalf("archived mutation: code %d, want 410", code)
	}
	if code := getJSON(t, campaignBase(ts, "alpha")+"/status", &st); code != http.StatusOK {
		t.Fatalf("archived read: code %d", code)
	}
	if code := postJSON(t, campaignBase(ts, "alpha")+"/archive", struct{}{}, nil); code != http.StatusOK {
		t.Fatalf("re-archive: code %d", code)
	}
	if code := postJSON(t, campaignBase(ts, DefaultID)+"/archive", struct{}{}, nil); code != http.StatusBadRequest {
		t.Fatalf("archive default: code %d, want 400", code)
	}
}

func TestStatusRollupAndMetrics(t *testing.T) {
	m, ts := newTestManager(t, ManagerConfig{})
	spec := Spec{ID: "east-wing", Venue: "small", Seed: 21}
	if _, err := m.Create(spec); err != nil {
		t.Fatal(err)
	}
	bootstrapCampaign(t, campaignBase(ts, "east-wing"), spec, 5)

	// /v1/status: default campaign's fields plus the campaigns section.
	var ms ManagerStatus
	if code := getJSON(t, ts.URL+"/v1/status", &ms); code != http.StatusOK {
		t.Fatalf("status: code %d", code)
	}
	if len(ms.Campaigns) != 2 {
		t.Fatalf("status campaigns: %+v", ms.Campaigns)
	}
	var east *Rollup
	for i := range ms.Campaigns {
		if ms.Campaigns[i].ID == "east-wing" {
			east = &ms.Campaigns[i]
		}
	}
	if east == nil || east.PhotosProcessed == 0 || east.PendingTasks == 0 {
		t.Fatalf("east-wing rollup after bootstrap: %+v", east)
	}

	// The scoped route serves one campaign's plain status.
	var st server.StatusResponse
	if code := getJSON(t, ts.URL+"/v1/campaigns/east-wing/status", &st); code != http.StatusOK {
		t.Fatalf("scoped status: code %d", code)
	}
	if st.PhotosProcessed != east.PhotosProcessed {
		t.Fatalf("scoped status photos %d, rollup %d", st.PhotosProcessed, east.PhotosProcessed)
	}

	// A bare route naming a campaign in its query is refused with the
	// scoped route, never answered from the default campaign.
	for path, scoped := range map[string]string{
		"/v1/status?campaign=east-wing": "/v1/campaigns/east-wing/status",
		"/v1/map?campaign=east-wing":    "/v1/campaigns/east-wing/map",
	} {
		var e map[string]string
		if code := getJSON(t, ts.URL+path, &e); code != http.StatusBadRequest {
			t.Fatalf("GET %s: code %d, want 400", path, code)
		}
		if !strings.Contains(e["error"], scoped) {
			t.Fatalf("GET %s: error %q does not name %s", path, e["error"], scoped)
		}
	}

	// /metrics: per-campaign labels on existing families plus the
	// aggregate campaign gauges.
	var buf bytes.Buffer
	m.cfg.Telemetry.Registry.Render(&buf)
	out := buf.String()
	for _, want := range []string{
		`{campaign="east-wing"`,
		`{campaign="default"`,
		"snaptask_campaigns_active 2",
		"snaptask_campaigns_archived 0",
		"snaptask_campaigns_pending_tasks",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
