package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"testing"

	"snaptask/internal/camera"
	"snaptask/internal/core"
)

// TestConcurrentClients hammers the server from several goroutines at once:
// mixed reads (status, map), locates, task claims and batch uploads must
// interleave without corrupting the model (mutex serialisation) and every
// response must be a well-formed status code. The server is built with no
// options, so its default admission config must shed none of the burst.
func TestConcurrentClients(t *testing.T) {
	ts, _, w, v := newTestServer(t)
	rng := rand.New(rand.NewSource(77))

	// Bootstrap first so uploads are meaningful.
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
		t.Fatalf("bootstrap code %d", code)
	}

	// Pre-capture distinct sweeps serially (capture itself is not under
	// test; the server is).
	var sweeps [][]camera.Photo
	for i := 0; i < 4; i++ {
		pos := v.Entrance()
		pos.X += float64(i) * 0.8
		pos.Y += 1.5
		s, err := w.Sweep(pos, camera.DefaultIntrinsics(), camera.CaptureOptions{}, rng)
		if err != nil {
			t.Fatal(err)
		}
		sweeps = append(sweeps, s)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	// Uploaders.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			upReq := UploadRequest{LocX: 5, LocY: 5}
			for _, p := range sweeps[i] {
				upReq.Photos = append(upReq.Photos, PhotoToDTO(p))
			}
			var resp UploadResponse
			if code := postJSONNoFatal(ts.URL+"/v1/photos", upReq, &resp); code != http.StatusOK {
				errs <- fmt.Errorf("upload %d: code %d", i, code)
			}
		}(i)
	}
	// Readers.
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				var status StatusResponse
				if code := getJSONNoFatal(ts.URL+"/v1/status", &status); code != http.StatusOK {
					errs <- fmt.Errorf("status code %d", code)
					return
				}
				var m MapResponse
				if code := getJSONNoFatal(ts.URL+"/v1/map", &m); code != http.StatusOK {
					errs <- fmt.Errorf("map code %d", code)
					return
				}
				if len(m.Rows) != m.Height {
					errs <- fmt.Errorf("torn map response: %d rows, height %d", len(m.Rows), m.Height)
					return
				}
			}
		}()
	}
	// Locators: a located photo answers 200, an unlocalisable one 422;
	// a shed (429) or body-cap (413) answer fails the test.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				photo := sweeps[i][j%len(sweeps[i])]
				var loc LocateResponse
				code := postJSONNoFatal(ts.URL+"/v1/locate", LocateRequest{Photo: PhotoToDTO(photo)}, &loc)
				if code != http.StatusOK && code != http.StatusUnprocessableEntity {
					errs <- fmt.Errorf("locate code %d", code)
					return
				}
			}
		}(i)
	}
	// Task claimers, one registered worker each (may get 200 or 404
	// depending on interleaving; both are valid).
	for i := 0; i < 3; i++ {
		worker := registerWorker(t, ts.URL)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				var claim ClaimResponse
				code := postJSONNoFatal(ts.URL+"/v1/task/claim", ClaimRequest{WorkerID: worker}, &claim)
				if code != http.StatusOK && code != http.StatusNotFound {
					errs <- fmt.Errorf("task code %d", code)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The model ends in a consistent state: all four sweeps processed.
	var status StatusResponse
	getJSON(t, ts.URL+"/v1/status", &status)
	want := len(photos) + 4*len(sweeps[0])
	if status.PhotosProcessed != want {
		t.Errorf("photos processed = %d, want %d", status.PhotosProcessed, want)
	}
}

// getJSONNoFatal / postJSONNoFatal are goroutine-safe variants that report
// status codes without touching testing.T.
func getJSONNoFatal(url string, out any) int {
	resp, err := http.Get(url)
	if err != nil {
		return -1
	}
	defer resp.Body.Close()
	decodeInto(resp, out)
	return resp.StatusCode
}

func postJSONNoFatal(url string, in, out any) int {
	payload, err := marshalJSON(in)
	if err != nil {
		return -1
	}
	resp, err := http.Post(url, "application/json", payload)
	if err != nil {
		return -1
	}
	defer resp.Body.Close()
	decodeInto(resp, out)
	return resp.StatusCode
}

func decodeInto(resp *http.Response, out any) {
	if out == nil {
		return
	}
	_ = json.NewDecoder(resp.Body).Decode(out)
}

func marshalJSON(in any) (*bytes.Reader, error) {
	payload, err := json.Marshal(in)
	if err != nil {
		return nil, err
	}
	return bytes.NewReader(payload), nil
}

// TestSnapshotReadersDuringUploads drives sustained GET /v1/map and
// GET /v1/status traffic while photo batches are being applied, and checks
// the properties the atomic read-snapshot promises: every map response is
// internally consistent (a complete grid from one publication, never a mix
// of two), and the counters only ever move forward. Run under -race this
// also proves the read path never touches owner-side state.
func TestSnapshotReadersDuringUploads(t *testing.T) {
	ts, sys, w, v := newTestServer(t)
	rng := rand.New(rand.NewSource(99))

	photos, err := core.BootstrapCapture(w, v, camera.DefaultIntrinsics(), rng)
	if err != nil {
		t.Fatal(err)
	}
	req := UploadRequest{Bootstrap: true}
	for _, p := range photos {
		req.Photos = append(req.Photos, PhotoToDTO(p))
	}
	if code := postJSON(t, ts.URL+"/v1/photos", req, new(UploadResponse)); code != http.StatusOK {
		t.Fatalf("bootstrap code %d", code)
	}

	var sweeps [][]camera.Photo
	for i := 0; i < 3; i++ {
		pos := v.Entrance()
		pos.X += float64(i) * 0.9
		pos.Y += 1.3
		s, err := w.Sweep(pos, camera.DefaultIntrinsics(), camera.CaptureOptions{}, rng)
		if err != nil {
			t.Fatal(err)
		}
		sweeps = append(sweeps, s)
	}
	wantW, wantH := sys.Layout().Width(), sys.Layout().Height()

	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 128)
	// Uploader: applies batches one after another, then signals readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i, s := range sweeps {
			upReq := UploadRequest{LocX: 5, LocY: 5}
			for _, p := range s {
				upReq.Photos = append(upReq.Photos, PhotoToDTO(p))
			}
			if code := postJSONNoFatal(ts.URL+"/v1/photos", upReq, new(UploadResponse)); code != http.StatusOK {
				errs <- fmt.Errorf("upload %d: code %d", i, code)
			}
		}
	}()
	// Readers: loop until the uploader finishes, checking snapshot
	// invariants on every response.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			lastPhotos, lastViews := -1, -1
			for {
				select {
				case <-done:
					return
				default:
				}
				var m MapResponse
				if code := getJSONNoFatal(ts.URL+"/v1/map", &m); code != http.StatusOK {
					errs <- fmt.Errorf("reader %d: map code %d", r, code)
					return
				}
				if m.Width != wantW || m.Height != wantH || len(m.Rows) != m.Height {
					errs <- fmt.Errorf("reader %d: torn map: %dx%d with %d rows (want %dx%d)",
						r, m.Width, m.Height, len(m.Rows), wantW, wantH)
					return
				}
				for y, row := range m.Rows {
					if len(row) != m.Width {
						errs <- fmt.Errorf("reader %d: torn map row %d: %d chars, want %d", r, y, len(row), m.Width)
						return
					}
				}
				var st StatusResponse
				if code := getJSONNoFatal(ts.URL+"/v1/status", &st); code != http.StatusOK {
					errs <- fmt.Errorf("reader %d: status code %d", r, code)
					return
				}
				if st.PhotosProcessed < lastPhotos || st.Views < lastViews {
					errs <- fmt.Errorf("reader %d: counters went backwards: photos %d->%d views %d->%d",
						r, lastPhotos, st.PhotosProcessed, lastViews, st.Views)
					return
				}
				lastPhotos, lastViews = st.PhotosProcessed, st.Views
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	var st StatusResponse
	getJSON(t, ts.URL+"/v1/status", &st)
	want := len(photos) + 3*len(sweeps[0])
	if st.PhotosProcessed != want {
		t.Errorf("photos processed = %d, want %d", st.PhotosProcessed, want)
	}
}
