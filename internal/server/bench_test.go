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
	"snaptask/internal/venue"
)

// BenchmarkReadsDuringUploads measures GET /v1/map throughput while photo
// batches are continuously applied on the owner path. Reads are served from
// the atomic snapshot, so their latency should not scale with rebuild cost —
// compare against the upload-free BenchmarkReadsIdle to see the margin.
func BenchmarkReadsDuringUploads(b *testing.B) {
	ts, sweeps := benchServer(b)
	defer ts.Close()

	stop := make(chan struct{})
	uploaderDone := make(chan struct{})
	go func() {
		defer close(uploaderDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			req := UploadRequest{LocX: 5, LocY: 5}
			for _, p := range sweeps[i%len(sweeps)] {
				req.Photos = append(req.Photos, PhotoToDTO(p))
			}
			postJSONNoFatal(ts.URL+"/v1/photos", req, nil)
		}
	}()

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			benchGetMap(b, ts.URL)
		}
	})
	b.StopTimer()
	close(stop)
	<-uploaderDone
}

// BenchmarkUploadLatency measures the end-to-end latency of POST /v1/photos
// — DTO decode, owner-goroutine handoff, SfM registration, SOR filter, and
// incremental map rebuild. This is the server-side view of the ingest hot
// path that BenchmarkIngest (internal/core) measures without HTTP.
func BenchmarkUploadLatency(b *testing.B) {
	ts, sweeps := benchServer(b)
	defer ts.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := UploadRequest{LocX: 5, LocY: 5}
		for _, p := range sweeps[i%len(sweeps)] {
			req.Photos = append(req.Photos, PhotoToDTO(p))
		}
		if code := postJSONNoFatal(ts.URL+"/v1/photos", req, nil); code != http.StatusOK {
			b.Fatalf("upload code %d", code)
		}
	}
}

// BenchmarkReadsIdle is the no-contention baseline for
// BenchmarkReadsDuringUploads.
func BenchmarkReadsIdle(b *testing.B) {
	ts, _ := benchServer(b)
	defer ts.Close()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			benchGetMap(b, ts.URL)
		}
	})
}

func benchGetMap(b *testing.B, base string) {
	resp, err := http.Get(base + "/v1/map")
	if err != nil {
		b.Error(err)
		return
	}
	var m MapResponse
	err = json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if err != nil {
		b.Error(err)
		return
	}
	if len(m.Rows) != m.Height {
		b.Errorf("torn map: %d rows, height %d", len(m.Rows), m.Height)
	}
}

// benchServer boots a small-room backend with a bootstrapped model and
// returns pre-captured sweeps for the uploader to replay.
func benchServer(b *testing.B) (*httptest.Server, [][]camera.Photo) {
	b.Helper()
	v, err := venue.SmallRoom()
	if err != nil {
		b.Fatal(err)
	}
	w := camera.NewWorld(v, v.GenerateFeatures(rand.New(rand.NewSource(1))))
	sys, err := core.NewSystem(v, w, core.Config{Margin: 3})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := New(sys, rand.New(rand.NewSource(2)))
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv)

	rng := rand.New(rand.NewSource(11))
	photos, err := core.BootstrapCapture(w, v, camera.DefaultIntrinsics(), rng)
	if err != nil {
		b.Fatal(err)
	}
	req := UploadRequest{Bootstrap: true}
	for _, p := range photos {
		req.Photos = append(req.Photos, PhotoToDTO(p))
	}
	if code := postJSONNoFatal(ts.URL+"/v1/photos", req, nil); code != http.StatusOK {
		b.Fatalf("bootstrap code %d", code)
	}
	var sweeps [][]camera.Photo
	for i := 0; i < 3; i++ {
		pos := v.Entrance()
		pos.X += float64(i) * 0.8
		pos.Y += 1.4
		s, err := w.Sweep(pos, camera.DefaultIntrinsics(), camera.CaptureOptions{}, rng)
		if err != nil {
			b.Fatal(err)
		}
		sweeps = append(sweeps, s)
	}
	return ts, sweeps
}

// BenchmarkDecodeUpload measures the wire-decode layer of POST /v1/photos
// on its own: one library sweep's UploadRequest, JSON-decoded into the
// server's type as handlePhotos decodes it.
func BenchmarkDecodeUpload(b *testing.B) {
	v, err := venue.Library()
	if err != nil {
		b.Fatal(err)
	}
	w := camera.NewWorld(v, v.GenerateFeatures(rand.New(rand.NewSource(1))))
	photos, err := w.Sweep(v.Entrance(), camera.DefaultIntrinsics(), camera.CaptureOptions{}, rand.New(rand.NewSource(2)))
	if err != nil {
		b.Fatal(err)
	}
	req := UploadRequest{LocX: v.Entrance().X, LocY: v.Entrance().Y}
	for _, p := range photos {
		req.Photos = append(req.Photos, PhotoToDTO(p))
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	for b.Loop() {
		var got UploadRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&got); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(body)), "body-bytes")
}
