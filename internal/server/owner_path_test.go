package server

import (
	"math/rand"
	"net/http"
	"testing"
	"time"

	"snaptask/internal/camera"
	"snaptask/internal/dispatch"
	"snaptask/internal/events"
	"snaptask/internal/venue"
)

// annotateForClaim performs a claimed task as an annotation upload: an
// entrance sweep with one worker's marks, sent under the claim's lease.
func annotateForClaim(t *testing.T, url string, w *camera.World, v *venue.Venue, claim ClaimResponse, rng *rand.Rand) (AnnotateResponse, int) {
	t.Helper()
	sweep, err := w.Sweep(v.Entrance(), camera.DefaultIntrinsics(), camera.CaptureOptions{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	req := AnnotateRequest{TaskID: claim.Task.ID, LocX: v.Entrance().X, LocY: v.Entrance().Y,
		WorkerID: claim.WorkerID, LeaseID: claim.LeaseID}
	for _, p := range sweep {
		req.Photos = append(req.Photos, PhotoToDTO(p))
	}
	req.Marks = []AnnotationDTO{{WorkerID: 1, Corners: [4][2]float64{{0.2, 0.2}, {0.8, 0.2}, {0.8, 0.8}, {0.2, 0.8}}}}
	var resp AnnotateResponse
	code := postJSON(t, url+"/v1/annotations", req, &resp)
	return resp, code
}

// countKind counts the journal's events of one kind.
func countKind(t *testing.T, evlog *events.Log, kind events.Kind) int {
	t.Helper()
	n := 0
	if err := evlog.ReadAfter(0, func(e events.Event) error {
		if e.Kind == kind {
			n++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestAnnotationLeaseValidation drives POST /v1/annotations through the
// owner path's lease checks, its duplicate answer and a failed journal
// commit: the same verdicts POST /v1/photos gives.
func TestAnnotationLeaseValidation(t *testing.T) {
	clk := newTestClock()
	ts, evlog, w, v := newDispatchServer(t, t.TempDir(), dispatch.Config{LeaseTTL: 30 * time.Second, Now: clk.Now})
	bootstrapServer(t, ts.URL, w, v)
	w1 := registerWorker(t, ts.URL)
	w2 := registerWorker(t, ts.URL)
	claim1, ok := claimTask(t, ts.URL, w1)
	if !ok {
		t.Fatal("no task for w1")
	}
	// An unleased photo batch issues a second task for w2 to hold.
	req := sweepRequest(t, w, v, ClaimResponse{Task: TaskDTO{ID: -1, X: claim1.Task.X, Y: claim1.Task.Y}},
		rand.New(rand.NewSource(5)))
	if code := postJSON(t, ts.URL+"/v1/photos", req, new(UploadResponse)); code != http.StatusOK {
		t.Fatalf("unleased upload code %d", code)
	}
	claim2, ok := claimTask(t, ts.URL, w2)
	if !ok {
		t.Fatal("no task for w2")
	}
	rng := rand.New(rand.NewSource(4))

	half := claim1
	half.LeaseID = ""
	if _, code := annotateForClaim(t, ts.URL, w, v, half, rng); code != http.StatusBadRequest {
		t.Fatalf("half-leased annotation code %d, want 400", code)
	}
	bogus := claim1
	bogus.LeaseID = "l999"
	if _, code := annotateForClaim(t, ts.URL, w, v, bogus, rng); code != http.StatusNotFound {
		t.Fatalf("unknown lease annotation code %d, want 404", code)
	}
	foreign := claim1
	foreign.WorkerID = w2
	if _, code := annotateForClaim(t, ts.URL, w, v, foreign, rng); code != http.StatusConflict {
		t.Fatalf("foreign lease annotation code %d, want 409", code)
	}

	resp, code := annotateForClaim(t, ts.URL, w, v, claim1, rng)
	if code != http.StatusOK || resp.Duplicate {
		t.Fatalf("leased annotation: code %d resp %+v", code, resp)
	}
	done := countKind(t, evlog, events.KindAnnotationDone)
	if done != 1 {
		t.Fatalf("%d annotation_done events after one annotation", done)
	}
	resp, code = annotateForClaim(t, ts.URL, w, v, claim1, rng)
	if code != http.StatusOK || !resp.Duplicate {
		t.Fatalf("re-upload under the completed lease: code %d resp %+v", code, resp)
	}
	if n := countKind(t, evlog, events.KindAnnotationDone); n != done {
		t.Fatalf("duplicate annotation emitted a batch event: %d -> %d annotation_done", done, n)
	}

	clk.Advance(31 * time.Second)
	if _, code := annotateForClaim(t, ts.URL, w, v, claim2, rng); code != http.StatusGone {
		t.Fatalf("expired lease annotation code %d, want 410", code)
	}

	store := &syncFailStore{}
	jts, jw, jv, jrng := journalServer(t, func(st events.Store) events.Store {
		store.Store = st
		return store
	}, nil, events.CheckpointPolicy{})
	worker := registerWorker(t, jts.URL)
	claim, ok := claimTask(t, jts.URL, worker)
	if !ok {
		t.Fatal("no task on the journal server")
	}
	store.fail.Store(true)
	if _, code := annotateForClaim(t, jts.URL, jw, jv, claim, jrng); code != http.StatusInternalServerError {
		t.Fatalf("annotation with failing journal commit: code %d, want 500", code)
	}
}

// lastIssued returns the ID of the journal's last task_issued event, -1
// when there is none.
func lastIssued(t *testing.T, evlog *events.Log) int {
	t.Helper()
	id := -1
	if err := evlog.ReadAfter(0, func(e events.Event) error {
		if e.Kind == events.KindTaskIssued {
			id = e.TaskID
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return id
}

// TestUploadTakesNamedTaskOnlyWhenUnleased pins what an upload's taskId
// does to the pending queue. A leased upload's claim already took the
// leased task out, so a leased upload naming another pending task must
// leave that task for the next claim. An unleased upload removes the task
// it names.
func TestUploadTakesNamedTaskOnlyWhenUnleased(t *testing.T) {
	clk := newTestClock()
	ts, evlog, w, v := newDispatchServer(t, t.TempDir(), dispatch.Config{LeaseTTL: 30 * time.Second, Now: clk.Now})
	bootstrapServer(t, ts.URL, w, v)
	w1 := registerWorker(t, ts.URL)
	w2 := registerWorker(t, ts.URL)
	w3 := registerWorker(t, ts.URL)
	claim1, ok := claimTask(t, ts.URL, w1)
	if !ok {
		t.Fatal("no task for w1")
	}
	rng := rand.New(rand.NewSource(4))
	unleased := func(taskID int) {
		t.Helper()
		req := sweepRequest(t, w, v, ClaimResponse{Task: TaskDTO{ID: taskID, X: claim1.Task.X, Y: claim1.Task.Y}}, rng)
		if code := postJSON(t, ts.URL+"/v1/photos", req, new(UploadResponse)); code != http.StatusOK {
			t.Fatalf("unleased upload code %d", code)
		}
	}
	// An unleased photo batch issues the task the leased upload will name.
	unleased(-1)
	other := lastIssued(t, evlog)
	if other < 0 || other == claim1.Task.ID {
		t.Fatalf("no second pending task (last issued %d, claimed %d)", other, claim1.Task.ID)
	}

	req := sweepRequest(t, w, v, claim1, rng)
	req.TaskID = other
	if code := postJSON(t, ts.URL+"/v1/photos", req, new(UploadResponse)); code != http.StatusOK {
		t.Fatalf("leased upload code %d", code)
	}
	claim2, ok := claimTask(t, ts.URL, w2)
	if !ok {
		t.Fatal("no task for w2")
	}
	if claim2.Task.ID != other {
		t.Fatalf("w2 claimed task %d; task %d, named by w1's leased upload, left the queue", claim2.Task.ID, other)
	}

	// The leased upload issued a task; an unleased upload naming it takes
	// it out of the queue.
	named := lastIssued(t, evlog)
	unleased(named)
	claim3, ok := claimTask(t, ts.URL, w3)
	if !ok {
		t.Fatal("no task for w3")
	}
	if claim3.Task.ID == named {
		t.Fatalf("w3 claimed task %d, which an unleased upload completed", named)
	}
}
