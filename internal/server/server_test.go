package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"snaptask/internal/camera"
	"snaptask/internal/core"
	"snaptask/internal/geom"
	"snaptask/internal/venue"
)

// newTestServer builds a backend over the small test room.
func newTestServer(t *testing.T) (*httptest.Server, *core.System, *camera.World, *venue.Venue) {
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
	srv, err := New(sys, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, sys, w, v
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
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
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, rand.New(rand.NewSource(1))); err == nil {
		t.Error("nil system should error")
	}
}

func TestStatusEmpty(t *testing.T) {
	ts, _, _, _ := newTestServer(t)
	var status StatusResponse
	if code := getJSON(t, ts.URL+"/v1/status", &status); code != http.StatusOK {
		t.Fatalf("status code %d", code)
	}
	if status.Venue != "small-room" || status.Views != 0 || status.Covered {
		t.Errorf("unexpected status: %+v", status)
	}
}

func TestTaskBeforeBootstrap(t *testing.T) {
	ts, _, _, _ := newTestServer(t)
	if _, ok := claimTask(t, ts.URL, registerWorker(t, ts.URL)); ok {
		t.Error("expected 404 before bootstrap, got a task")
	}
}

func TestBootstrapAndTaskFlow(t *testing.T) {
	ts, _, w, v := newTestServer(t)
	rng := rand.New(rand.NewSource(3))
	photos, err := core.BootstrapCapture(w, v, camera.DefaultIntrinsics(), rng)
	if err != nil {
		t.Fatal(err)
	}
	req := UploadRequest{Bootstrap: true}
	for _, p := range photos {
		req.Photos = append(req.Photos, PhotoToDTO(p))
	}
	var up UploadResponse
	if code := postJSON(t, ts.URL+"/v1/photos", req, &up); code != http.StatusOK {
		t.Fatalf("bootstrap upload code %d", code)
	}
	if up.Registered == 0 || up.CoverageCells == 0 {
		t.Fatalf("bootstrap result: %+v", up)
	}

	// A task must now be available.
	claim, ok := claimTask(t, ts.URL, registerWorker(t, ts.URL))
	if !ok {
		t.Fatal("task claim found no task")
	}
	task := claim.Task
	if task.Kind != "photo" || task.Covered {
		t.Fatalf("task: %+v", task)
	}

	// Second bootstrap must fail.
	var errOut map[string]string
	if code := postJSON(t, ts.URL+"/v1/photos", req, &errOut); code != http.StatusUnprocessableEntity {
		t.Errorf("second bootstrap code %d", code)
	}

	// Upload a sweep for the task.
	sweep, err := w.Sweep(v.Entrance(), camera.DefaultIntrinsics(), camera.CaptureOptions{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	up2req := UploadRequest{TaskID: task.ID, LocX: task.X, LocY: task.Y,
		WorkerID: claim.WorkerID, LeaseID: claim.LeaseID}
	for _, p := range sweep {
		up2req.Photos = append(up2req.Photos, PhotoToDTO(p))
	}
	var up2 UploadResponse
	if code := postJSON(t, ts.URL+"/v1/photos", up2req, &up2); code != http.StatusOK {
		t.Fatalf("sweep upload code %d", code)
	}

	// Map endpoint renders the current state.
	var m MapResponse
	if code := getJSON(t, ts.URL+"/v1/map", &m); code != http.StatusOK {
		t.Fatal("map fetch failed")
	}
	if m.Width <= 0 || len(m.Rows) != m.Height {
		t.Fatalf("map response malformed: %dx%d rows=%d", m.Width, m.Height, len(m.Rows))
	}
	obstacles := 0
	for _, row := range m.Rows {
		for _, ch := range row {
			if ch == '#' {
				obstacles++
			}
		}
	}
	if obstacles == 0 {
		t.Error("map has no obstacle cells after uploads")
	}

	// Status reflects processing.
	var status StatusResponse
	getJSON(t, ts.URL+"/v1/status", &status)
	if status.Views == 0 || status.PhotosProcessed == 0 {
		t.Errorf("status after uploads: %+v", status)
	}
}

func TestUploadValidation(t *testing.T) {
	ts, _, _, _ := newTestServer(t)
	var out map[string]string
	if code := postJSON(t, ts.URL+"/v1/photos", UploadRequest{}, &out); code != http.StatusBadRequest {
		t.Errorf("empty upload code %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/annotations", AnnotateRequest{}, &out); code != http.StatusBadRequest {
		t.Errorf("empty annotation code %d", code)
	}
	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/v1/photos", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body code %d", resp.StatusCode)
	}
}

func TestMethodRouting(t *testing.T) {
	ts, _, _, _ := newTestServer(t)
	// POST to a GET route.
	resp, err := http.Post(ts.URL+"/v1/status", "application/json", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/status code %d", resp.StatusCode)
	}
	// Unknown path.
	resp, err = http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path code %d", resp.StatusCode)
	}
}

func TestTaskKindFromString(t *testing.T) {
	if k, err := TaskKindFromString("photo"); err != nil || k.String() != "photo" {
		t.Error("photo kind parse failed")
	}
	if k, err := TaskKindFromString("annotation"); err != nil || k.String() != "annotation" {
		t.Error("annotation kind parse failed")
	}
	if _, err := TaskKindFromString("bogus"); err == nil {
		t.Error("bogus kind should error")
	}
}

func TestPhotoDTORoundTrip(t *testing.T) {
	p := camera.Photo{
		Pose:       camera.Pose{Pos: geom.V2(1.5, 2.5), Yaw: 0.7},
		Intrinsics: camera.DefaultIntrinsics(),
		Sharpness:  123,
		Obs: []camera.Observation{
			{FeatureID: 42},
		},
	}
	d := PhotoToDTO(p)
	back := photoFromDTO(d)
	if back.Pose != p.Pose || back.Intrinsics != p.Intrinsics || back.Sharpness != p.Sharpness {
		t.Error("photo metadata round trip failed")
	}
	if len(back.Obs) != 1 || back.Obs[0] != p.Obs[0] {
		t.Error("observation round trip failed")
	}
}

func TestObservationWireShape(t *testing.T) {
	data, err := json.Marshal(ObservationDTO{FeatureID: 42})
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"featureId":42}` {
		t.Errorf("observation marshals to %s", data)
	}
}

// TestOldClientObservationFields sends upload and locate bodies whose
// observations still carry u, v and dist to one server, and the same
// bodies without them to a second server built the same way: status and
// response bytes must match.
func TestOldClientObservationFields(t *testing.T) {
	trimmed, _, w, v := newTestServer(t)
	old, _, _, _ := newTestServer(t)
	photos, err := core.BootstrapCapture(w, v, camera.DefaultIntrinsics(), rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	upload := UploadRequest{Bootstrap: true}
	for _, p := range photos {
		upload.Photos = append(upload.Photos, PhotoToDTO(p))
	}
	locate := LocateRequest{Photo: PhotoToDTO(photos[len(photos)/2])}
	for _, c := range []struct {
		path string
		req  any
	}{{"/v1/photos", upload}, {"/v1/locate", locate}} {
		body, err := json.Marshal(c.req)
		if err != nil {
			t.Fatal(err)
		}
		oldBody := bytes.ReplaceAll(body, []byte(`{"featureId":`),
			[]byte(`{"u":0.25,"v":0.75,"dist":3.5,"featureId":`))
		if bytes.Equal(oldBody, body) {
			t.Fatalf("%s: body carries no observation", c.path)
		}
		resp, got := postJSONStatus(t, trimmed.URL+c.path, string(body))
		oldResp, oldGot := postJSONStatus(t, old.URL+c.path, string(oldBody))
		if resp.StatusCode != http.StatusOK || oldResp.StatusCode != resp.StatusCode {
			t.Fatalf("%s: status %d, old client %d", c.path, resp.StatusCode, oldResp.StatusCode)
		}
		if got != oldGot {
			t.Errorf("%s: response %s, old client %s", c.path, got, oldGot)
		}
	}
}

func TestMapPGM(t *testing.T) {
	ts, _, _, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/map.pgm")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("code %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "image/x-portable-graymap" {
		t.Errorf("content type %q", ct)
	}
	buf := make([]byte, 2)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "P5" {
		t.Errorf("magic = %q, want P5", buf)
	}
}

func TestSnapshotEndpoint(t *testing.T) {
	ts, _, w, v := newTestServer(t)
	rng := rand.New(rand.NewSource(12))
	photos, err := core.BootstrapCapture(w, v, camera.DefaultIntrinsics(), rng)
	if err != nil {
		t.Fatal(err)
	}
	req := UploadRequest{Bootstrap: true}
	for _, p := range photos {
		req.Photos = append(req.Photos, PhotoToDTO(p))
	}
	var up UploadResponse
	postJSON(t, ts.URL+"/v1/photos", req, &up)

	resp, err := http.Get(ts.URL + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("code %d", resp.StatusCode)
	}
	// The downloaded snapshot restores into a working system.
	world2 := camera.NewWorld(v, v.GenerateFeatures(rand.New(rand.NewSource(1))))
	sys2, err := core.LoadSystem(resp.Body, v, world2)
	if err != nil {
		t.Fatal(err)
	}
	if sys2.PhotosProcessed() != len(photos) {
		t.Errorf("restored photos = %d, want %d", sys2.PhotosProcessed(), len(photos))
	}
}

// TestUploadSeed covers the seed-sentinel rule: the explicit HasSeed flag
// decides whether the request's seed coordinates are used, so a frontier at
// the world origin is not mistaken for "no seed sent".
func TestUploadSeed(t *testing.T) {
	if got := uploadSeed(true, 0, 0, 5, 5); got != geom.V2(0, 0) {
		t.Errorf("origin seed dropped: uploadSeed = %v, want (0, 0)", got)
	}
	if got := uploadSeed(true, 2, 3, 5, 5); got != geom.V2(2, 3) {
		t.Errorf("uploadSeed = %v, want (2, 3)", got)
	}
	if got := uploadSeed(false, 2, 3, 5, 5); got != geom.V2(5, 5) {
		t.Errorf("seedless upload: uploadSeed = %v, want the location (5, 5)", got)
	}
}

// TestTaskDTOHasSeed checks the claim endpoint reports seeds explicitly: a
// real generated task carries a frontier seed, and the DTO must say so via
// HasSeed rather than leaving clients to compare against the zero vector.
func TestTaskDTOHasSeed(t *testing.T) {
	ts, _, w, v := newTestServer(t)
	rng := rand.New(rand.NewSource(3))
	photos, err := core.BootstrapCapture(w, v, camera.DefaultIntrinsics(), rng)
	if err != nil {
		t.Fatal(err)
	}
	req := UploadRequest{Bootstrap: true}
	for _, p := range photos {
		req.Photos = append(req.Photos, PhotoToDTO(p))
	}
	if code := postJSON(t, ts.URL+"/v1/photos", req, new(UploadResponse)); code != http.StatusOK {
		t.Fatalf("bootstrap upload code %d", code)
	}
	claim, ok := claimTask(t, ts.URL, registerWorker(t, ts.URL))
	if !ok {
		t.Fatal("task claim found no task")
	}
	task := claim.Task
	if (task.SeedX != 0 || task.SeedY != 0) && !task.HasSeed {
		t.Errorf("task has seed (%v, %v) but HasSeed is false", task.SeedX, task.SeedY)
	}
	if !task.HasSeed {
		t.Skip("generated task carried no seed; sentinel not exercisable here")
	}
}
