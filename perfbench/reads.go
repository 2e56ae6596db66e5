package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"

	"snaptask/internal/dispatch"
	"snaptask/internal/geom"
	"snaptask/internal/nav"
	"snaptask/internal/server"
)

// readStream builds the serve-style request stream against one campaign:
// locates, map and status reads, and claims by a few registered workers.
type readStream struct {
	id      string
	queries []locateQuery
	workers []string
	expect  *server.ReadSnapshot // the model as loaded
	// static: the model must not change while the stream runs, so the map
	// must equal the loaded one byte for byte and every localisable
	// query must localise. Otherwise the model grows: map geometry must
	// hold, and only queries that localise with half their matches must.
	static  bool
	mapBody []byte // expected /map body when static

	mu     sync.Mutex
	leases map[string]string // worker -> lease it holds
	stats  *streamStats
}

// streamStats counts answers the per-layer table uses.
type streamStats struct {
	mu                 sync.Mutex
	locates, localized int
}

func (s *streamStats) countLocate(ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.locates++
	if ok {
		s.localized++
	}
}

// Weights of the read mix: mostly locates, plus map and status reads and
// a small share of claims.
const (
	weightLocate = 80
	weightMap    = 5
	weightStatus = 5
	weightClaim  = 10
)

func newReadStream(id string, pm *preparedModel, queries []locateQuery, workers []string, static bool) (*readStream, error) {
	s := &readStream{id: id, queries: queries, workers: workers, expect: pm.expect, static: static,
		leases: map[string]string{}, stats: &streamStats{}}
	if static {
		body, err := json.Marshal(pm.expect.Map)
		if err != nil {
			return nil, err
		}
		s.mapBody = append(body, '\n') // the server's JSON encoder ends with a newline
	}
	return s, nil
}

func (s *readStream) mix() []mixEntry {
	return []mixEntry{
		{weightLocate, s.locate},
		{weightMap, s.mapRead},
		{weightStatus, s.status},
		{weightClaim, s.claim},
	}
}

func (s *readStream) locate(rng *rand.Rand) request {
	q := s.queries[rng.Intn(len(s.queries))]
	return request{kind: "locate", method: http.MethodPost, path: scoped(s.id, "locate"), body: q.body,
		check: func(status int, body []byte) error {
			s.stats.countLocate(status == http.StatusOK)
			return checkLocate(q, s.static, status, body)
		}}
}

// checkLocate accepts a localised answer within nav.PositioningError of
// the query's true pose, and a 422 only for a query with too few model
// features.
func checkLocate(q locateQuery, static bool, status int, body []byte) error {
	switch status {
	case http.StatusOK:
		var resp server.LocateResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if d := geom.V2(resp.X, resp.Y).Dist(q.truth); d > nav.PositioningError {
			return fmt.Errorf("locate answer %.2f m from the true pose", d)
		}
		if static && !q.localizable {
			return fmt.Errorf("query with %d model features localised", q.features)
		}
		return nil
	case http.StatusUnprocessableEntity:
		if !bytes.Contains(body, []byte("localisation failed")) {
			return fmt.Errorf("422 without a localisation failure: %s", bytes.TrimSpace(body))
		}
		if q.localizable && (static || q.robust) {
			return fmt.Errorf("query with %d model features not localised: %s", q.features, bytes.TrimSpace(body))
		}
		return nil
	}
	return fmt.Errorf("locate status %d: %s", status, bytes.TrimSpace(body))
}

func (s *readStream) mapRead(*rand.Rand) request {
	return request{kind: "map", method: http.MethodGet, path: scoped(s.id, "map"),
		check: func(status int, body []byte) error {
			if status != http.StatusOK {
				return fmt.Errorf("map status %d", status)
			}
			if s.static {
				if !bytes.Equal(body, s.mapBody) {
					return fmt.Errorf("map differs from the loaded model's map")
				}
				return nil
			}
			return checkMap(body, s.expect.Map.Width, s.expect.Map.Height)
		}}
}

// checkMap requires len(rows) == height and rows of the stated width, and
// the geometry the campaign's venue defines.
func checkMap(body []byte, width, height int) error {
	var m server.MapResponse
	if err := json.Unmarshal(body, &m); err != nil {
		return err
	}
	if m.Width != width || m.Height != height {
		return fmt.Errorf("map is %dx%d, want %dx%d", m.Width, m.Height, width, height)
	}
	if len(m.Rows) != m.Height {
		return fmt.Errorf("map has %d rows, height %d", len(m.Rows), m.Height)
	}
	for i, row := range m.Rows {
		if len(row) != m.Width {
			return fmt.Errorf("map row %d has %d cells, width %d", i, len(row), m.Width)
		}
	}
	return nil
}

func (s *readStream) status(*rand.Rand) request {
	return request{kind: "status", method: http.MethodGet, path: scoped(s.id, "status"),
		check: func(status int, body []byte) error {
			if status != http.StatusOK {
				return fmt.Errorf("status %d", status)
			}
			var st server.StatusResponse
			if err := json.Unmarshal(body, &st); err != nil {
				return err
			}
			want := s.expect.Status
			if s.static && (st.Views != want.Views || st.Points != want.Points || st.PhotosProcessed != want.PhotosProcessed) {
				return fmt.Errorf("status views/points/photos %d/%d/%d, want %d/%d/%d",
					st.Views, st.Points, st.PhotosProcessed, want.Views, want.Points, want.PhotosProcessed)
			}
			if st.Views < want.Views || st.PhotosProcessed < want.PhotosProcessed {
				return fmt.Errorf("status shrank: views %d < %d or photos %d < %d",
					st.Views, want.Views, st.PhotosProcessed, want.PhotosProcessed)
			}
			return nil
		}}
}

func (s *readStream) claim(rng *rand.Rand) request {
	worker := s.workers[rng.Intn(len(s.workers))]
	body, _ := json.Marshal(server.ClaimRequest{WorkerID: worker})
	return request{kind: "claim", method: http.MethodPost, path: scoped(s.id, "task/claim"), body: body,
		check: func(status int, body []byte) error { return s.checkClaim(worker, status, body) }}
}

// checkClaim accepts a granted lease that stays the worker's one lease (a
// worker holding a lease gets it back), a covered answer only for a
// covered model, and 404 only as "no eligible task".
func (s *readStream) checkClaim(worker string, status int, body []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch status {
	case http.StatusOK:
		var resp server.ClaimResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if resp.Task.Covered {
			if !s.expect.Status.Covered {
				return fmt.Errorf("claim reports covered for an uncovered model")
			}
			return nil
		}
		if resp.WorkerID != worker || resp.LeaseID == "" {
			return fmt.Errorf("claim for %s granted lease %q to %q", worker, resp.LeaseID, resp.WorkerID)
		}
		if held, ok := s.leases[worker]; ok && held != resp.LeaseID {
			return fmt.Errorf("worker %s holds lease %s but was granted %s", worker, held, resp.LeaseID)
		}
		s.leases[worker] = resp.LeaseID
		return nil
	case http.StatusNotFound:
		if !strings.Contains(string(body), dispatch.ErrNoTask.Error()) {
			return fmt.Errorf("claim 404: %s", bytes.TrimSpace(body))
		}
		return nil
	}
	return fmt.Errorf("claim status %d: %s", status, bytes.TrimSpace(body))
}

// registerWorkers registers n workers with the campaign's dispatcher.
func registerWorkers(ctx context.Context, c *httpClient, id string, n int) ([]string, error) {
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		var resp server.RegisterWorkerResponse
		if err := c.postJSON(ctx, scoped(id, "workers"), []byte("{}"), http.StatusOK, &resp); err != nil {
			return nil, err
		}
		ids = append(ids, resp.ID)
	}
	return ids, nil
}

// uploadRequest wraps a pre-encoded unleased sweep upload with its check.
func uploadRequest(id string, u sweepUpload) request {
	return request{kind: "upload", method: http.MethodPost, path: scoped(id, "photos"), body: u.body,
		check: func(status int, body []byte) error { return checkUpload(u.photos, status, body) }}
}

// checkUpload requires a processed, non-duplicate batch whose photo
// accounting adds up.
func checkUpload(photos, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("upload status %d: %s", status, bytes.TrimSpace(body))
	}
	var resp server.UploadResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if resp.Duplicate {
		return fmt.Errorf("fresh upload answered as duplicate")
	}
	if n := resp.Registered + resp.Rejected + resp.Unregistered; n != photos {
		return fmt.Errorf("upload accounted %d photos, sent %d", n, photos)
	}
	return nil
}
