package server

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"snaptask/internal/camera"
	"snaptask/internal/core"
	"snaptask/internal/dispatch"
	"snaptask/internal/events"
	"snaptask/internal/geom"
	"snaptask/internal/venue"
)

// testClock is a race-safe fake clock shared between the test and the
// handlers' dispatcher.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func newTestClock() *testClock { return &testClock{t: time.Unix(5000, 0).UTC()} }

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// newDispatchServer builds a backend with an injected dispatch clock and,
// when journalDir is set, an event log over that directory store,
// returning the pieces the lease tests need.
func newDispatchServer(t *testing.T, journalDir string, cfg dispatch.Config) (*httptest.Server, *events.Log, *camera.World, *venue.Venue) {
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
	var evlog *events.Log
	opts := []Option{WithDispatch(dispatch.New(cfg))}
	if journalDir != "" {
		evlog, err = events.OpenDir(journalDir, nil, events.DirStoreOptions{}, events.CheckpointPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { evlog.Close() })
		opts = append(opts, WithEvents(evlog))
	}
	srv, err := New(sys, rand.New(rand.NewSource(2)), opts...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, evlog, w, v
}

// bootstrapServer uploads the initial capture so tasks start flowing.
func bootstrapServer(t *testing.T, url string, w *camera.World, v *venue.Venue) {
	t.Helper()
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
	if code := postJSON(t, url+"/v1/photos", req, &up); code != http.StatusOK {
		t.Fatalf("bootstrap upload code %d", code)
	}
}

// registerWorker registers a fresh worker and returns its assigned ID.
func registerWorker(t *testing.T, url string) string {
	t.Helper()
	var resp RegisterWorkerResponse
	if code := postJSON(t, url+"/v1/workers", RegisterWorkerRequest{}, &resp); code != http.StatusOK {
		t.Fatalf("register code %d", code)
	}
	if resp.ID == "" || resp.LeaseTTLSeconds <= 0 {
		t.Fatalf("register response: %+v", resp)
	}
	return resp.ID
}

// claimTask claims under the worker; ok is false on a no-task 404.
func claimTask(t *testing.T, url, workerID string) (ClaimResponse, bool) {
	t.Helper()
	var resp ClaimResponse
	code := postJSON(t, url+"/v1/task/claim", ClaimRequest{WorkerID: workerID}, &resp)
	switch code {
	case http.StatusOK:
		return resp, true
	case http.StatusNotFound:
		return ClaimResponse{}, false
	default:
		t.Fatalf("claim code %d", code)
		return ClaimResponse{}, false
	}
}

// uploadForClaim performs the claimed photo task: a sweep at the task
// location uploaded under the lease. blurLen > 1 makes every photo blurry.
func uploadForClaim(t *testing.T, url string, w *camera.World, claim ClaimResponse, blurLen int, rng *rand.Rand) (UploadResponse, int) {
	t.Helper()
	task := claim.Task
	sweep, err := w.Sweep(geom.V2(task.X, task.Y), camera.DefaultIntrinsics(),
		camera.CaptureOptions{MotionBlurLen: blurLen}, rng)
	if err != nil {
		t.Fatal(err)
	}
	req := UploadRequest{
		TaskID:   task.ID,
		LocX:     task.X,
		LocY:     task.Y,
		SeedX:    task.SeedX,
		SeedY:    task.SeedY,
		HasSeed:  task.HasSeed,
		WorkerID: claim.WorkerID,
		LeaseID:  claim.LeaseID,
	}
	for _, p := range sweep {
		req.Photos = append(req.Photos, PhotoToDTO(p))
	}
	var resp UploadResponse
	code := postJSON(t, url+"/v1/photos", req, &resp)
	return resp, code
}

func TestWorkerRegistrationAndLeaseFlow(t *testing.T) {
	clk := newTestClock()
	ts, _, w, v := newDispatchServer(t, "", dispatch.Config{LeaseTTL: 30 * time.Second, Now: clk.Now})

	id := registerWorker(t, ts.URL)
	if id != "w1" {
		t.Fatalf("assigned ID %q, want w1", id)
	}

	// Idle heartbeat: alive, no lease.
	var hb HeartbeatResponse
	if code := postJSON(t, ts.URL+"/v1/workers/"+id+"/heartbeat", struct{}{}, &hb); code != http.StatusOK {
		t.Fatalf("heartbeat code %d", code)
	}
	if hb.Active {
		t.Fatalf("idle worker shows an active lease: %+v", hb)
	}
	// Unknown worker heartbeat is 404.
	var errOut map[string]string
	if code := postJSON(t, ts.URL+"/v1/workers/w99/heartbeat", struct{}{}, &errOut); code != http.StatusNotFound {
		t.Fatalf("unknown heartbeat code %d", code)
	}

	// No task before bootstrap.
	if _, ok := claimTask(t, ts.URL, id); ok {
		t.Fatal("claim granted before bootstrap")
	}
	// Claims by unregistered workers fail even with tasks pending.
	bootstrapServer(t, ts.URL, w, v)
	var claimErr map[string]string
	if code := postJSON(t, ts.URL+"/v1/task/claim", ClaimRequest{WorkerID: "w42"}, &claimErr); code != http.StatusNotFound {
		t.Fatalf("unregistered claim code %d", code)
	}

	claim, ok := claimTask(t, ts.URL, id)
	if !ok {
		t.Fatal("claim found no task after bootstrap")
	}
	if claim.LeaseID == "" || claim.WorkerID != id || claim.Deadline.IsZero() {
		t.Fatalf("claim response: %+v", claim)
	}

	// The claim holds the lease through the status snapshot.
	var status StatusResponse
	getJSON(t, ts.URL+"/v1/status", &status)
	d := status.Dispatch
	if d == nil || d.Workers != 1 || d.ActiveLeases != 1 || d.Claims != 1 {
		t.Fatalf("dispatch status: %+v", d)
	}

	// A heartbeat now extends the lease.
	postJSON(t, ts.URL+"/v1/workers/"+id+"/heartbeat", struct{}{}, &hb)
	if !hb.Active || !hb.Deadline.After(clk.Now()) {
		t.Fatalf("active heartbeat: %+v", hb)
	}

	// Upload under the lease completes it.
	resp, code := uploadForClaim(t, ts.URL, w, claim, 0, rand.New(rand.NewSource(4)))
	if code != http.StatusOK || resp.Duplicate {
		t.Fatalf("leased upload: code %d resp %+v", code, resp)
	}
	getJSON(t, ts.URL+"/v1/status", &status)
	if d := status.Dispatch; d.Completions != 1 || d.ActiveLeases != 0 {
		t.Fatalf("after completion: %+v", d)
	}
	if pw := status.Dispatch.PerWorker[id]; pw.Claims != 1 || pw.Completions != 1 {
		t.Fatalf("per-worker: %+v", pw)
	}

	// Re-sending the exact upload is an idempotent no-op.
	resp, code = uploadForClaim(t, ts.URL, w, claim, 0, rand.New(rand.NewSource(4)))
	if code != http.StatusOK || !resp.Duplicate {
		t.Fatalf("duplicate upload: code %d resp %+v", code, resp)
	}
	getJSON(t, ts.URL+"/v1/status", &status)
	if d := status.Dispatch; d.Completions != 1 {
		t.Fatalf("duplicate double-counted: %+v", d)
	}
}

func TestUploadLeaseValidation(t *testing.T) {
	clk := newTestClock()
	ts, _, w, v := newDispatchServer(t, "", dispatch.Config{LeaseTTL: 30 * time.Second, Now: clk.Now})
	bootstrapServer(t, ts.URL, w, v)
	w1 := registerWorker(t, ts.URL)
	w2 := registerWorker(t, ts.URL)
	claim, ok := claimTask(t, ts.URL, w1)
	if !ok {
		t.Fatal("no task")
	}

	// Naming only one of worker/lease is malformed.
	half := claim
	half.LeaseID = ""
	if _, code := uploadForClaim(t, ts.URL, w, half, 0, rand.New(rand.NewSource(4))); code != http.StatusBadRequest {
		t.Fatalf("half-leased upload code %d, want 400", code)
	}
	// A lease the dispatcher never granted is 404.
	bogus := claim
	bogus.LeaseID = "l999"
	if _, code := uploadForClaim(t, ts.URL, w, bogus, 0, rand.New(rand.NewSource(4))); code != http.StatusNotFound {
		t.Fatalf("unknown lease upload code %d, want 404", code)
	}
	// Another worker presenting the lease is a conflict.
	foreign := claim
	foreign.WorkerID = w2
	if _, code := uploadForClaim(t, ts.URL, w, foreign, 0, rand.New(rand.NewSource(4))); code != http.StatusConflict {
		t.Fatalf("foreign lease upload code %d, want 409", code)
	}
	// After expiry the lease is gone for good.
	clk.Advance(31 * time.Second)
	if _, code := uploadForClaim(t, ts.URL, w, claim, 0, rand.New(rand.NewSource(4))); code != http.StatusGone {
		t.Fatalf("expired lease upload code %d, want 410", code)
	}
}

// TestCrashedWorkerTaskRequeues is the fault-injection scenario from the
// paper's crowd reality: a worker claims a task and vanishes mid-lease. The
// clock passes the deadline, the task requeues, a second worker picks it up
// and completes it — all observable in the journal and /v1/status.
func TestCrashedWorkerTaskRequeues(t *testing.T) {
	clk := newTestClock()
	journal := t.TempDir()
	ts, evlog, w, v := newDispatchServer(t, journal,
		dispatch.Config{LeaseTTL: 30 * time.Second, Now: clk.Now})
	bootstrapServer(t, ts.URL, w, v)
	w1 := registerWorker(t, ts.URL)
	w2 := registerWorker(t, ts.URL)

	claim1, ok := claimTask(t, ts.URL, w1)
	if !ok {
		t.Fatal("w1 found no task")
	}

	// w1 dies: no heartbeat, no upload. The lease deadline passes.
	clk.Advance(31 * time.Second)

	// w2 heartbeats concurrently with its claim — the heartbeat path must
	// never deadlock against the claim path (run with -race).
	stop := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				var hb HeartbeatResponse
				postJSON(t, ts.URL+"/v1/workers/"+w2+"/heartbeat", struct{}{}, &hb)
			}
		}
	}()

	claim2, ok := claimTask(t, ts.URL, w2)
	close(stop)
	hbWG.Wait()
	if !ok {
		t.Fatal("w2 found no task after expiry")
	}
	if claim2.Task.ID != claim1.Task.ID {
		t.Fatalf("w2 got task %d, want the requeued task %d", claim2.Task.ID, claim1.Task.ID)
	}

	resp, code := uploadForClaim(t, ts.URL, w, claim2, 0, rand.New(rand.NewSource(4)))
	if code != http.StatusOK || resp.Duplicate {
		t.Fatalf("w2 upload: code %d resp %+v", code, resp)
	}

	var status StatusResponse
	getJSON(t, ts.URL+"/v1/status", &status)
	d := status.Dispatch
	if d.Expiries != 1 || d.Requeues != 1 || d.Completions != 1 || d.ActiveLeases != 0 {
		t.Fatalf("dispatch counters after recovery: %+v", d)
	}
	if pw := d.PerWorker[w1]; pw.Expiries != 1 || pw.Completions != 0 {
		t.Fatalf("crashed worker counters: %+v", pw)
	}
	if pw := d.PerWorker[w2]; pw.Completions != 1 {
		t.Fatalf("recovering worker counters: %+v", pw)
	}

	// The journal tells the same story.
	kinds := map[events.Kind]int{}
	if err := evlog.ReadAfter(0, func(e events.Event) error {
		kinds[e.Kind]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []events.Kind{
		events.KindWorkerRegistered, events.KindTaskClaimed,
		events.KindLeaseExpired, events.KindTaskRequeued,
	} {
		if kinds[want] == 0 {
			t.Errorf("journal missing %s events: %v", want, kinds)
		}
	}
	if kinds[events.KindWorkerRegistered] != 2 || kinds[events.KindTaskClaimed] != 2 ||
		kinds[events.KindLeaseExpired] != 1 || kinds[events.KindTaskRequeued] != 1 {
		t.Errorf("journal event counts: %v", kinds)
	}
	c := evlog.Campaign().Counters()
	if c.WorkersRegistered != 2 || c.TasksClaimed != 2 || c.LeasesExpired != 1 || c.TasksRequeued != 1 {
		t.Errorf("campaign counters: %+v", c)
	}
}

// TestBlurExcludedWorkerNeverGetsTaskBack exercises the paper's "retry with
// OTHER workers" end to end over HTTP: a blurry leased upload re-issues the
// task with the offender excluded.
func TestBlurExcludedWorkerNeverGetsTaskBack(t *testing.T) {
	clk := newTestClock()
	ts, _, w, v := newDispatchServer(t, "", dispatch.Config{LeaseTTL: 30 * time.Second, Now: clk.Now})
	bootstrapServer(t, ts.URL, w, v)
	w1 := registerWorker(t, ts.URL)
	w2 := registerWorker(t, ts.URL)

	claim1, ok := claimTask(t, ts.URL, w1)
	if !ok {
		t.Fatal("w1 found no task")
	}
	// w1's careless sweep: every photo motion-blurred.
	resp, code := uploadForClaim(t, ts.URL, w, claim1, 14, rand.New(rand.NewSource(4)))
	if code != http.StatusOK || resp.Duplicate {
		t.Fatalf("blurry upload: code %d resp %+v", code, resp)
	}

	var status StatusResponse
	getJSON(t, ts.URL+"/v1/status", &status)
	if pw := status.Dispatch.PerWorker[w1]; pw.BlurStrikes != 1 {
		t.Fatalf("blur strike not recorded: %+v", pw)
	}

	// The re-issued task exists but w1 must never receive it.
	if claim, ok := claimTask(t, ts.URL, w1); ok {
		t.Fatalf("blur-struck worker was reassigned the task: %+v", claim.Task)
	}
	claim2, ok := claimTask(t, ts.URL, w2)
	if !ok {
		t.Fatal("other worker found no task")
	}
	if claim2.Task.X != claim1.Task.X || claim2.Task.Y != claim1.Task.Y {
		t.Fatalf("w2's task %+v is not the re-issued spot %+v", claim2.Task, claim1.Task)
	}
}

// TestDispatchStateSurvivesRestart restarts the server over its journal and
// demands the /v1/status dispatch section come back byte-identical: the
// registry, per-worker counters, requeue depth and budget accounting.
func TestDispatchStateSurvivesRestart(t *testing.T) {
	clk := newTestClock()
	journal := t.TempDir()
	cfg := dispatch.Config{LeaseTTL: 30 * time.Second, Budget: 500, Now: clk.Now}
	ts, evlog, w, v := newDispatchServer(t, journal, cfg)
	bootstrapServer(t, ts.URL, w, v)
	w1 := registerWorker(t, ts.URL)
	w2 := registerWorker(t, ts.URL)

	// w1 completes a task; w2 abandons one (expired, requeued); w1 claims
	// again and is still mid-lease at "shutdown".
	claim1, ok := claimTask(t, ts.URL, w1)
	if !ok {
		t.Fatal("no task for w1")
	}
	if _, code := uploadForClaim(t, ts.URL, w, claim1, 0, rand.New(rand.NewSource(4))); code != http.StatusOK {
		t.Fatal("w1 upload failed")
	}
	if _, ok := claimTask(t, ts.URL, w2); !ok {
		t.Fatal("no task for w2")
	}
	clk.Advance(31 * time.Second)
	// Registering a third worker sweeps the expiry and publishes a fresh
	// snapshot, so the captured status already reflects it.
	registerWorker(t, ts.URL)

	var before StatusResponse
	getJSON(t, ts.URL+"/v1/status", &before)
	beforeJSON, err := json.Marshal(before.Dispatch)
	if err != nil {
		t.Fatal(err)
	}
	if before.Dispatch.Expiries != 1 || before.Dispatch.RequeuedQueued != 1 {
		t.Fatalf("precondition: %+v", before.Dispatch)
	}
	ts.Close()
	if err := evlog.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: fresh system, fresh dispatcher, same journal.
	ts2, _, _, _ := newDispatchServer(t, journal, cfg)
	var after StatusResponse
	getJSON(t, ts2.URL+"/v1/status", &after)
	afterJSON, err := json.Marshal(after.Dispatch)
	if err != nil {
		t.Fatal(err)
	}
	if string(beforeJSON) != string(afterJSON) {
		t.Fatalf("dispatch status diverged across restart:\nbefore: %s\nafter:  %s",
			beforeJSON, afterJSON)
	}
}
