package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snaptask/internal/camera"
	"snaptask/internal/core"
	"snaptask/internal/dispatch"
	"snaptask/internal/events"
	"snaptask/internal/geom"
	"snaptask/internal/telemetry"
	"snaptask/internal/telemetry/slo"
	"snaptask/internal/venue"
)

// newEventsTestServer builds a backend over the small test room with an
// event log over a directory store that is never checkpointed (and
// telemetry, so events carry request IDs).
func newEventsTestServer(t *testing.T, dir string) (*httptest.Server, *Server, *events.Log, *camera.World, *venue.Venue) {
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
	tel := telemetry.New(slog.New(slog.NewTextHandler(io.Discard, nil)), 8)
	log, err := events.OpenDir(dir, telemetry.NewEventMetrics(tel.Registry),
		events.DirStoreOptions{}, events.CheckpointPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	srv, err := New(sys, rand.New(rand.NewSource(2)), WithTelemetry(tel), WithEvents(log))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, srv, log, w, v
}

// driveCampaign runs the guided loop over HTTP: bootstrap, then claim and
// fulfil tasks until the venue is covered (or maxBatches uploads happened).
// Returns the number of processed batches including the bootstrap.
func driveCampaign(t *testing.T, ts *httptest.Server, w *camera.World, v *venue.Venue, maxBatches int) int {
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
	if code := postJSON(t, ts.URL+"/v1/photos", req, &up); code != http.StatusOK {
		t.Fatalf("bootstrap code %d", code)
	}
	return 1 + driveBatches(t, ts, w, v, rng, maxBatches-1)
}

// driveMoreBatches continues an already-bootstrapped campaign for up to n
// further task batches (driveCampaign, minus the bootstrap).
func driveMoreBatches(t *testing.T, ts *httptest.Server, w *camera.World, v *venue.Venue, n int) int {
	t.Helper()
	return driveBatches(t, ts, w, v, rand.New(rand.NewSource(7)), n)
}

// driveBatches registers one worker and fulfils up to n tasks it claims,
// each with a sweep uploaded under the lease. It stops early once the venue
// is covered and returns the number of batches uploaded.
func driveBatches(t *testing.T, ts *httptest.Server, w *camera.World, v *venue.Venue, rng *rand.Rand, n int) int {
	t.Helper()
	worker := registerWorker(t, ts.URL)
	var up UploadResponse
	batches := 0
	for batches < n {
		claim, ok := claimTask(t, ts.URL, worker)
		if !ok {
			t.Fatalf("no task pending after %d batches (venue not covered either)", batches)
		}
		if claim.Task.Covered {
			return batches
		}
		if claim.Task.Kind != "photo" {
			// Small-room campaigns stay photo-only; the driver only sweeps.
			t.Fatalf("unexpected task kind %q", claim.Task.Kind)
		}
		if code := postJSON(t, ts.URL+"/v1/photos", sweepRequest(t, w, v, claim, rng), &up); code != http.StatusOK {
			t.Fatalf("sweep upload code %d", code)
		}
		batches++
		if up.VenueCovered {
			return batches
		}
	}
	return batches
}

// claimAndUpload claims one task under a lease for worker and fulfils it
// with a sweep upload, completing the lease.
func claimAndUpload(t *testing.T, ts *httptest.Server, w *camera.World, v *venue.Venue, worker string) ClaimResponse {
	t.Helper()
	var claim ClaimResponse
	if code := postJSON(t, ts.URL+"/v1/task/claim", ClaimRequest{WorkerID: worker}, &claim); code != http.StatusOK {
		t.Fatalf("claim code %d", code)
	}
	upReq := sweepRequest(t, w, v, claim, rand.New(rand.NewSource(11)))
	if code := postJSON(t, ts.URL+"/v1/photos", upReq, new(UploadResponse)); code != http.StatusOK {
		t.Fatalf("leased upload code %d", code)
	}
	return claim
}

// sweepRequest captures a sweep for a claimed task and wraps it in the
// upload request that completes the claim's lease.
func sweepRequest(t *testing.T, w *camera.World, v *venue.Venue, claim ClaimResponse, rng *rand.Rand) UploadRequest {
	t.Helper()
	task := claim.Task
	sweep, err := w.Sweep(sweepPos(v, task), camera.DefaultIntrinsics(), camera.CaptureOptions{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	req := UploadRequest{TaskID: task.ID, LocX: task.X, LocY: task.Y,
		SeedX: task.SeedX, SeedY: task.SeedY, HasSeed: task.HasSeed,
		WorkerID: claim.WorkerID, LeaseID: claim.LeaseID}
	for _, p := range sweep {
		req.Photos = append(req.Photos, PhotoToDTO(p))
	}
	return req
}

// sweepPos picks where the simulated worker stands for a task: the task
// location when walkable, the entrance otherwise.
func sweepPos(v *venue.Venue, task TaskDTO) geom.Vec2 {
	p := geom.V2(task.X, task.Y)
	if v.Blocked(p) {
		return v.Entrance()
	}
	return p
}

// sseFrame is one parsed SSE frame.
type sseFrame struct {
	id   uint64
	kind string
	ev   events.Event
}

// readSSE parses frames from an event stream until want frames arrived or
// the stream ends.
func readSSE(t *testing.T, body io.Reader, want int) []sseFrame {
	t.Helper()
	var frames []sseFrame
	var cur sseFrame
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.kind != "" {
				frames = append(frames, cur)
				if len(frames) >= want {
					return frames
				}
			}
			cur = sseFrame{}
		case strings.HasPrefix(line, ":"):
			// comment / heartbeat
		case strings.HasPrefix(line, "id: "):
			id, err := strconv.ParseUint(strings.TrimPrefix(line, "id: "), 10, 64)
			if err != nil {
				t.Fatalf("bad SSE id line %q: %v", line, err)
			}
			cur.id = id
		case strings.HasPrefix(line, "event: "):
			cur.kind = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.ev); err != nil {
				t.Fatalf("bad SSE data line %q: %v", line, err)
			}
		}
	}
	return frames
}

// TestEventsStreamFullCampaign drives a complete simulated campaign and then
// verifies GET /v1/events replays every lifecycle event in order: contiguous
// sequence numbers from 1, the expected kinds present, batch events tagged
// with their request IDs, and the final campaign_covered transition.
func TestEventsStreamFullCampaign(t *testing.T) {
	ts, _, log, w, v := newEventsTestServer(t, t.TempDir())
	driveCampaign(t, ts, w, v, 40)

	var status StatusResponse
	if code := getJSON(t, ts.URL+"/v1/status", &status); code != http.StatusOK {
		t.Fatal("status fetch failed")
	}
	if !status.Lifecycle.Covered || !status.Covered {
		t.Fatalf("campaign not covered: %+v", status.Lifecycle)
	}
	total := int(status.Lifecycle.LastSeq)
	if total == 0 || uint64(total) != log.LastSeq() {
		t.Fatalf("lifecycle LastSeq %d != journal LastSeq %d", total, log.LastSeq())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/events?after=0", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events code %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}
	frames := readSSE(t, resp.Body, total)
	cancel()
	if len(frames) != total {
		t.Fatalf("streamed %d events, want %d", len(frames), total)
	}
	kinds := map[string]int{}
	for i, f := range frames {
		if f.id != uint64(i+1) || f.ev.Seq != f.id {
			t.Fatalf("frame %d: id %d seq %d, want contiguous from 1", i, f.id, f.ev.Seq)
		}
		kinds[f.kind]++
		if (f.kind == string(events.KindBatchAccepted) || f.kind == string(events.KindBatchRejected)) && f.ev.RequestID == "" {
			t.Errorf("frame %d (%s) missing request ID", i, f.kind)
		}
	}
	for _, want := range []events.Kind{events.KindTaskIssued, events.KindBatchAccepted,
		events.KindCoverageDelta, events.KindCovered} {
		if kinds[string(want)] == 0 {
			t.Errorf("no %s events in campaign stream", want)
		}
	}
	if last := frames[len(frames)-1]; last.kind != string(events.KindCovered) {
		t.Errorf("campaign stream ends with %s, want %s", last.kind, events.KindCovered)
	}
	if kinds[string(events.KindCovered)] != 1 {
		t.Errorf("campaign_covered emitted %d times, want once", kinds[string(events.KindCovered)])
	}

	// A resumed stream starts exactly after the requested offset.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	req2, _ := http.NewRequestWithContext(ctx2, "GET", ts.URL+"/v1/events", nil)
	req2.Header.Set("Last-Event-ID", strconv.Itoa(total-3))
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	tail := readSSE(t, resp2.Body, 3)
	cancel2()
	if len(tail) != 3 {
		t.Fatalf("Last-Event-ID resume returned %d frames, want 3", len(tail))
	}
	if tail[0].id != uint64(total-2) {
		t.Fatalf("Last-Event-ID resume starts at %d, want %d", tail[0].id, total-2)
	}
}

// TestModelMutationsEmitEvents pins what the campaign manager's
// model.snap skip relies on: every request that changes the model — a
// bootstrap, a claim's TakeTask, a leased and an unleased photo batch, an
// annotation — also advances the event log, and requests that emit
// nothing leave the model alone.
func TestModelMutationsEmitEvents(t *testing.T) {
	ts, _, w, v := newTestServer(t)
	state := func() (string, uint64) {
		t.Helper()
		var st StatusResponse
		if code := getJSON(t, ts.URL+"/v1/status", &st); code != http.StatusOK {
			t.Fatalf("status code %d", code)
		}
		return rawGET(t, ts.URL+"/v1/snapshot"), st.Lifecycle.LastSeq
	}
	model, seq := state()
	step := func(name string, mutates bool, do func()) {
		t.Helper()
		do()
		m, sq := state()
		if m != model && sq == seq {
			t.Errorf("%s changed the model without emitting an event", name)
		}
		if mutates && m == model {
			t.Errorf("%s left the model unchanged", name)
		}
		model, seq = m, sq
	}
	rng := rand.New(rand.NewSource(8))

	step("bootstrap", true, func() { bootstrapUpload(t, ts, w, v, 3) })
	step("repeated bootstrap (422)", false, func() { bootstrapUpload422(t, ts, w, v) })
	var worker string
	step("worker registration", false, func() { worker = registerWorker(t, ts.URL) })
	var claim ClaimResponse
	step("claim", true, func() {
		var ok bool
		if claim, ok = claimTask(t, ts.URL, worker); !ok {
			t.Fatal("no task to claim after bootstrap")
		}
	})
	step("leased photo batch", true, func() {
		if _, code := uploadForClaim(t, ts.URL, w, claim, 0, rng); code != http.StatusOK {
			t.Fatalf("leased upload code %d", code)
		}
	})
	step("unleased photo batch", true, func() {
		req := sweepRequest(t, w, v, ClaimResponse{Task: TaskDTO{X: 5, Y: 5}}, rng)
		if code := postJSON(t, ts.URL+"/v1/photos", req, new(UploadResponse)); code != http.StatusOK {
			t.Fatalf("unleased upload code %d", code)
		}
	})
	step("annotation", true, func() {
		sweep, err := w.Sweep(v.Entrance(), camera.DefaultIntrinsics(), camera.CaptureOptions{}, rng)
		if err != nil {
			t.Fatal(err)
		}
		req := AnnotateRequest{TaskID: -1, LocX: v.Entrance().X, LocY: v.Entrance().Y}
		for _, p := range sweep {
			req.Photos = append(req.Photos, PhotoToDTO(p))
		}
		req.Marks = []AnnotationDTO{{WorkerID: 1, Corners: [4][2]float64{{0.2, 0.2}, {0.8, 0.2}, {0.8, 0.8}, {0.2, 0.8}}}}
		if code := postJSON(t, ts.URL+"/v1/annotations", req, new(AnnotateResponse)); code != http.StatusOK {
			t.Fatalf("annotation code %d", code)
		}
	})
}

// bootstrapUpload422 repeats the entrance capture on a bootstrapped model,
// which the system refuses.
func bootstrapUpload422(t *testing.T, ts *httptest.Server, w *camera.World, v *venue.Venue) {
	t.Helper()
	photos, err := core.BootstrapCapture(w, v, camera.DefaultIntrinsics(), rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	req := UploadRequest{Bootstrap: true}
	for _, p := range photos {
		req.Photos = append(req.Photos, PhotoToDTO(p))
	}
	if code := postJSON(t, ts.URL+"/v1/photos", req, new(UploadResponse)); code != http.StatusUnprocessableEntity {
		t.Fatalf("repeated bootstrap code %d, want 422", code)
	}
}

// TestRestartWithJournalRestoresStatusAndProgress kills the server
// mid-campaign and restarts it over the same never-checkpointed store plus
// a state snapshot, so the restart folds the full tail from seq 1:
// /v1/status (including lifecycle counts) and the full /v1/progress history
// must be byte-identical to the pre-restart responses.
func TestRestartWithJournalRestoresStatusAndProgress(t *testing.T) {
	dir := t.TempDir()
	ts, _, log, w, v := newEventsTestServer(t, dir)
	driveCampaign(t, ts, w, v, 6) // mid-campaign: a handful of batches

	statusBefore := rawGET(t, ts.URL+"/v1/status")
	progressBefore := rawGET(t, ts.URL+"/v1/progress")
	state := rawGET(t, ts.URL+"/v1/snapshot")
	ts.Close()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: reload the model snapshot and reopen the store; server.New
	// replays it into a fresh campaign aggregate.
	sys2, err := core.LoadSystem(strings.NewReader(state), v, w)
	if err != nil {
		t.Fatal(err)
	}
	log2, err := events.OpenDir(dir, nil, events.DirStoreOptions{}, events.CheckpointPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if log2.CheckpointSeq() != 0 {
		t.Fatalf("store holds a checkpoint at seq %d; the test needs a full-tail replay", log2.CheckpointSeq())
	}
	srv2, err := New(sys2, rand.New(rand.NewSource(9)), WithEvents(log2))
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()

	if got := rawGET(t, ts2.URL+"/v1/status"); got != statusBefore {
		t.Errorf("status differs after restart:\nbefore: %s\nafter:  %s", statusBefore, got)
	}
	if got := rawGET(t, ts2.URL+"/v1/progress"); got != progressBefore {
		t.Errorf("progress differs after restart:\nbefore: %s\nafter:  %s", progressBefore, got)
	}

	// The restarted campaign keeps appending where the old one stopped.
	if log2.LastSeq() == 0 || log2.LastSeq() != log2.Campaign().Counters().LastSeq {
		t.Fatalf("replayed campaign out of sync: journal %d, fold %d",
			log2.LastSeq(), log2.Campaign().Counters().LastSeq)
	}
}

// newCheckpointTestServer is newEventsTestServer over the checkpointing
// directory store: tiny segments so campaigns rotate, explicit policy off —
// tests checkpoint deliberately via srv.CheckpointState(nil).
func newCheckpointTestServer(t *testing.T, dir string) (*httptest.Server, *Server, *events.Log, *camera.World, *venue.Venue) {
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
	tel := telemetry.New(slog.New(slog.NewTextHandler(io.Discard, nil)), 8)
	log, err := events.OpenDir(dir, telemetry.NewEventMetrics(tel.Registry),
		events.DirStoreOptions{SegmentMaxBytes: 1024}, events.CheckpointPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	srv, err := New(sys, rand.New(rand.NewSource(2)), WithTelemetry(tel), WithEvents(log),
		WithDispatch(dispatch.New(dispatch.Config{LeaseTTL: 30 * time.Second})))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, srv, log, w, v
}

// TestRestartWithCheckpointStoreRestoresStatusAndProgress is the
// checkpointed counterpart of the journal restart test: the server
// checkpoints mid-campaign, keeps going, and is then killed and restarted
// over the directory store. The restart folds checkpoint + tail only — and
// /v1/status (lifecycle AND dispatch sections) plus the full /v1/progress
// history must still be byte-identical to the pre-restart responses.
func TestRestartWithCheckpointStoreRestoresStatusAndProgress(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "campaign.d")
	ts, srv, log, w, v := newCheckpointTestServer(t, dir)

	// Non-trivial dispatch state so the checkpoint carries more than the
	// campaign aggregate: a registered worker holding a live lease.
	var reg RegisterWorkerResponse
	if code := postJSON(t, ts.URL+"/v1/workers", RegisterWorkerRequest{ID: "w1"}, &reg); code != http.StatusOK {
		t.Fatalf("register code %d", code)
	}
	driveCampaign(t, ts, w, v, 3)

	// Complete one full lease lifecycle before the checkpoint, so the
	// snapshot carries worker stats and a completion tombstone.
	claim := claimAndUpload(t, ts, w, v, "w1")

	// Checkpoint mid-campaign, then keep working so a real tail exists.
	if err := srv.CheckpointState(nil); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	ckptSeq := log.CheckpointSeq()
	if ckptSeq == 0 {
		t.Fatal("checkpoint covered nothing")
	}
	driveMoreBatches(t, ts, w, v, 1)
	// A second claim in the tail: the restart recovers this one as an
	// active lease by folding journal events after the checkpoint.
	var claim2 ClaimResponse
	if code := postJSON(t, ts.URL+"/v1/task/claim", ClaimRequest{WorkerID: "w1"}, &claim2); code != http.StatusOK {
		t.Fatalf("tail claim code %d", code)
	}
	if claim2.Task.Covered || claim2.LeaseID == "" {
		t.Fatalf("campaign finished before the tail claim (%+v); shrink the drive phases", claim2)
	}
	if claim2.LeaseID == claim.LeaseID {
		t.Fatal("tail claim reused the completed lease")
	}
	if log.LastSeq() <= ckptSeq {
		t.Fatal("no tail events after the checkpoint; the test would not exercise tail replay")
	}

	statusBefore := rawGET(t, ts.URL+"/v1/status")
	progressBefore := rawGET(t, ts.URL+"/v1/progress")
	// The model comes from GET /v1/snapshot, which writes no checkpoint, so
	// the tail stays un-checkpointed.
	state := rawGET(t, ts.URL+"/v1/snapshot")
	ts.Close()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart over the same directory. server.New restores the dispatcher
	// from the checkpoint's state and folds only the journal tail.
	sys2, err := core.LoadSystem(strings.NewReader(state), v, w)
	if err != nil {
		t.Fatal(err)
	}
	log2, err := events.OpenDir(dir, nil,
		events.DirStoreOptions{SegmentMaxBytes: 1024}, events.CheckpointPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if log2.CheckpointSeq() != ckptSeq {
		t.Fatalf("reopened checkpoint seq %d, want %d", log2.CheckpointSeq(), ckptSeq)
	}
	srv2, err := New(sys2, rand.New(rand.NewSource(9)), WithEvents(log2),
		WithDispatch(dispatch.New(dispatch.Config{LeaseTTL: 30 * time.Second})))
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()

	if got := rawGET(t, ts2.URL+"/v1/status"); got != statusBefore {
		t.Errorf("status differs after checkpointed restart:\nbefore: %s\nafter:  %s", statusBefore, got)
	}
	if got := rawGET(t, ts2.URL+"/v1/progress"); got != progressBefore {
		t.Errorf("progress differs after checkpointed restart:\nbefore: %s\nafter:  %s", progressBefore, got)
	}

	// The recovered lease is alive (re-armed TTL): its holder can upload.
	var hb HeartbeatResponse
	if code := postJSON(t, ts2.URL+"/v1/workers/w1/heartbeat", struct{}{}, &hb); code != http.StatusOK {
		t.Fatalf("heartbeat after restart: code %d", code)
	}
	if !hb.Active {
		t.Fatal("restored lease not active after restart")
	}

	// And the campaign keeps appending where the old one stopped.
	if log2.LastSeq() == 0 || log2.LastSeq() != log2.Campaign().Counters().LastSeq {
		t.Fatalf("replayed campaign out of sync: store %d, fold %d",
			log2.LastSeq(), log2.Campaign().Counters().LastSeq)
	}
}

// readCountingStore counts the passes New makes over the journal and the
// events they yield.
type readCountingStore struct {
	events.Store
	passes, read int
}

func (s *readCountingStore) ReadAfter(after uint64, fn func(events.Event) error) error {
	s.passes++
	return s.Store.ReadAfter(after, func(e events.Event) error {
		s.read++
		return fn(e)
	})
}

// TestRestartFoldsJournalTailOnce restarts a server twice over one journal
// directory. After a crash, with a tail of events past the newest
// checkpoint, New reads the journal in one pass that yields exactly the
// tail, and both the campaign counters and the dispatcher come back: the
// status is byte-identical and the tail's lease is alive. After a shutdown
// checkpoint the next restart's pass yields no event.
func TestRestartFoldsJournalTailOnce(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "campaign.d")
	ts, srv, log, w, v := newCheckpointTestServer(t, dir)
	if code := postJSON(t, ts.URL+"/v1/workers", RegisterWorkerRequest{ID: "w1"}, new(RegisterWorkerResponse)); code != http.StatusOK {
		t.Fatalf("register code %d", code)
	}
	driveCampaign(t, ts, w, v, 2)
	if err := srv.CheckpointState(nil); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	ckptSeq := log.CheckpointSeq()
	var claim ClaimResponse
	if code := postJSON(t, ts.URL+"/v1/task/claim", ClaimRequest{WorkerID: "w1"}, &claim); code != http.StatusOK || claim.LeaseID == "" {
		t.Fatalf("tail claim code %d: %+v", code, claim)
	}
	tail := int(log.LastSeq() - ckptSeq)
	if tail == 0 {
		t.Fatal("no tail events after the checkpoint")
	}
	statusBefore := rawGET(t, ts.URL+"/v1/status")
	state := rawGET(t, ts.URL+"/v1/snapshot")
	ts.Close()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	// restart returns the restarted server and its journal store, which
	// the caller closes.
	restart := func(wantRead int) (*Server, *events.DirStore) {
		t.Helper()
		sys, err := core.LoadSystem(strings.NewReader(state), v, w)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := events.OpenDirStore(dir, events.DirStoreOptions{SegmentMaxBytes: 1024})
		if err != nil {
			t.Fatal(err)
		}
		st := &readCountingStore{Store: ds}
		srv, err := New(sys, rand.New(rand.NewSource(9)), WithEvents(events.OpenStore(st, nil, events.CheckpointPolicy{})),
			WithDispatch(dispatch.New(dispatch.Config{LeaseTTL: 30 * time.Second})))
		if err != nil {
			t.Fatal(err)
		}
		if st.passes != 1 || st.read != wantRead {
			t.Errorf("New made %d journal passes yielding %d events, want 1 pass yielding %d", st.passes, st.read, wantRead)
		}
		ts := httptest.NewServer(srv)
		defer ts.Close()
		if got := rawGET(t, ts.URL+"/v1/status"); got != statusBefore {
			t.Errorf("status differs after restart:\nbefore: %s\nafter:  %s", statusBefore, got)
		}
		var hb HeartbeatResponse
		if code := postJSON(t, ts.URL+"/v1/workers/w1/heartbeat", struct{}{}, &hb); code != http.StatusOK || !hb.Active {
			t.Fatalf("heartbeat after restart: code %d, active %v", code, hb.Active)
		}
		return srv, ds
	}
	srv2, ds2 := restart(tail)
	if err := srv2.CheckpointState(nil); err != nil {
		t.Fatalf("shutdown checkpoint: %v", err)
	}
	if err := ds2.Close(); err != nil {
		t.Fatal(err)
	}
	_, ds3 := restart(0)
	if err := ds3.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSSEHistoryTruncatedOnCompactedResume compacts history away and then
// resumes an SSE client from before the horizon: the stream must open with
// an explicit history_truncated frame whose id is the horizon (so a plain
// EventSource reconnect resumes past the gap), followed by the surviving
// events in order — never a silent gap.
func TestSSEHistoryTruncatedOnCompactedResume(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "campaign.d")
	ts, srv, log, w, v := newCheckpointTestServer(t, dir)

	// Two checkpoints with campaign traffic in between: the store keeps the
	// newest two, so the first compaction deletes segments covered by the
	// older checkpoint and the horizon moves past zero.
	driveCampaign(t, ts, w, v, 4)
	if err := srv.CheckpointState(nil); err != nil {
		t.Fatal(err)
	}
	driveMoreBatches(t, ts, w, v, 4)
	if err := srv.CheckpointState(nil); err != nil {
		t.Fatal(err)
	}
	horizon := log.Horizon()
	if horizon == 0 {
		t.Fatal("no compaction happened; the test needs a non-zero horizon")
	}
	total := log.LastSeq()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/events?after=0", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	want := int(total-horizon) + 1 // the truncation frame + every surviving event
	frames := readSSE(t, resp.Body, want)
	cancel()
	if len(frames) != want {
		t.Fatalf("streamed %d frames, want %d", len(frames), want)
	}
	first := frames[0]
	if first.kind != "history_truncated" {
		t.Fatalf("first frame kind %q, want history_truncated", first.kind)
	}
	if first.id != horizon {
		t.Fatalf("truncation frame id %d, want horizon %d", first.id, horizon)
	}
	for i, f := range frames[1:] {
		if wantSeq := horizon + uint64(i) + 1; f.id != wantSeq {
			t.Fatalf("frame %d: id %d, want %d (contiguous from the horizon)", i+1, f.id, wantSeq)
		}
	}

	// A client resuming from at-or-past the horizon gets no truncation
	// frame — its position is still replayable.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	req2, _ := http.NewRequestWithContext(ctx2, "GET",
		fmt.Sprintf("%s/v1/events?after=%d", ts.URL, horizon), nil)
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	tail := readSSE(t, resp2.Body, int(total-horizon))
	cancel2()
	if len(tail) == 0 || tail[0].kind == "history_truncated" {
		t.Fatalf("resume at the horizon got a truncation frame (first: %+v)", tail[0])
	}
	if tail[0].id != horizon+1 {
		t.Fatalf("resume at horizon starts at %d, want %d", tail[0].id, horizon+1)
	}
}

func rawGET(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: code %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestReadyzDuringJournalReplay verifies the readiness probe reports 503
// while a journal replay is in progress and recovers afterwards.
func TestReadyzDuringJournalReplay(t *testing.T) {
	ts, srv, _, _, _ := newEventsTestServer(t, t.TempDir())

	srv.replaying.Store(true)
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during replay: code %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "replay") {
		t.Fatalf("readyz during replay body %q", body)
	}

	srv.replaying.Store(false)
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after replay: code %d", resp.StatusCode)
	}
}

// TestEventsEndpointsOnBareServer verifies that a server built with no
// options has the one server shape: /v1/events streams the live feed off
// the default store-less log, /v1/progress and /v1/slo answer, and
// /v1/status reports lifecycle counts.
func TestEventsEndpointsOnBareServer(t *testing.T) {
	ts, _, w, v := newTestServer(t)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events code %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}
	bootstrapUpload(t, ts, w, v, 3)
	frames := readSSE(t, resp.Body, 1)
	cancel()
	if len(frames) != 1 || frames[0].id != 1 {
		t.Fatalf("live frames after bootstrap: %+v, want seq 1 first", frames)
	}

	var status StatusResponse
	if code := getJSON(t, ts.URL+"/v1/status", &status); code != http.StatusOK {
		t.Fatalf("status code %d", code)
	}
	if status.Lifecycle.BatchesAccepted != 1 {
		t.Fatalf("status lifecycle %+v, want one accepted batch", status.Lifecycle)
	}
	var progress ProgressResponse
	if code := getJSON(t, ts.URL+"/v1/progress", &progress); code != http.StatusOK {
		t.Fatalf("progress code %d", code)
	}
	if progress.Counters != status.Lifecycle || len(progress.Points) != 1 {
		t.Fatalf("progress %+v, want the status counters and one point", progress)
	}
	var report slo.Report
	if code := getJSON(t, ts.URL+"/v1/slo", &report); code != http.StatusOK {
		t.Fatalf("slo code %d", code)
	}
	if len(report.Endpoints) != len(slo.DefaultObjectives()) {
		t.Fatalf("slo report %+v, want one row per default objective", report)
	}
}

// TestSSESlowSubscriberDuringUploads runs concurrent uploads against a
// deliberately slow subscriber (bus buffer of one, never drained) plus a
// live SSE reader. The owner path must never block: all uploads complete,
// the slow subscriber is evicted, and the SSE reader sees an ordered,
// gap-free stream. Run under -race, this is also the data-race check for
// the emit/subscribe/evict paths.
func TestSSESlowSubscriberDuringUploads(t *testing.T) {
	ts, _, log, w, v := newEventsTestServer(t, t.TempDir())

	// Bootstrap so photo uploads are meaningful.
	rng := rand.New(rand.NewSource(5))
	photos, err := core.BootstrapCapture(w, v, camera.DefaultIntrinsics(), rng)
	if err != nil {
		t.Fatal(err)
	}
	req := UploadRequest{Bootstrap: true}
	for _, p := range photos {
		req.Photos = append(req.Photos, PhotoToDTO(p))
	}
	if code := postJSON(t, ts.URL+"/v1/photos", req, new(UploadResponse)); code != http.StatusOK {
		t.Fatal("bootstrap failed")
	}

	// The deliberately slow consumer: buffer of one, never read.
	slow := log.Subscribe(1)
	defer log.Unsubscribe(slow)

	// A live SSE reader consuming from the current offset.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sseReq, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/events", nil)
	sseResp, err := http.DefaultClient.Do(sseReq)
	if err != nil {
		t.Fatal(err)
	}
	defer sseResp.Body.Close()
	var sseSeqs []uint64
	var sseDone sync.WaitGroup
	sseDone.Add(1)
	go func() {
		defer sseDone.Done()
		sc := bufio.NewScanner(sseResp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "id: ") {
				id, err := strconv.ParseUint(strings.TrimPrefix(line, "id: "), 10, 64)
				if err == nil {
					sseSeqs = append(sseSeqs, id)
				}
			}
		}
	}()

	// Concurrent uploads from several goroutines.
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
	errs := make(chan error, 8)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			upReq := UploadRequest{LocX: 5, LocY: 5}
			for _, p := range sweeps[i] {
				upReq.Photos = append(upReq.Photos, PhotoToDTO(p))
			}
			if code := postJSONNoFatal(ts.URL+"/v1/photos", upReq, new(UploadResponse)); code != http.StatusOK {
				errs <- fmt.Errorf("upload %d: code %d", i, code)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if !slow.Evicted() {
		t.Error("slow subscriber was not evicted")
	}
	cancel()
	sseDone.Wait()
	// The SSE reader must have seen a strictly increasing sequence — gaps
	// are allowed only via an eviction, which ends the stream.
	for i := 1; i < len(sseSeqs); i++ {
		if sseSeqs[i] <= sseSeqs[i-1] {
			t.Fatalf("SSE ids not strictly increasing: %v", sseSeqs)
		}
	}
}

// syncFailStore is a store whose Sync fails while fail is set, standing
// in for an fsync error or a full disk.
type syncFailStore struct {
	events.Store
	fail atomic.Bool
}

func (s *syncFailStore) Sync() error {
	if s.fail.Load() {
		return fmt.Errorf("simulated fsync failure")
	}
	return s.Store.Sync()
}

// journalServer starts a small-room server whose event log runs over the
// store wrap builds around a fresh directory store, and uploads the
// bootstrap capture.
func journalServer(t *testing.T, wrap func(events.Store) events.Store, m *telemetry.EventMetrics, policy events.CheckpointPolicy) (*httptest.Server, *camera.World, *venue.Venue, *rand.Rand) {
	t.Helper()
	v, err := venue.SmallRoom()
	if err != nil {
		t.Fatal(err)
	}
	w := camera.NewWorld(v, v.GenerateFeatures(rand.New(rand.NewSource(1))))
	sys, err := core.NewSystem(v, w, core.Config{Margin: 3})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := events.OpenDirStore(t.TempDir(), events.DirStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	srv, err := New(sys, rand.New(rand.NewSource(2)), WithEvents(events.OpenStore(wrap(ds), m, policy)))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	rng := rand.New(rand.NewSource(3))
	boot, err := core.BootstrapCapture(w, v, camera.DefaultIntrinsics(), rng)
	if err != nil {
		t.Fatal(err)
	}
	req := UploadRequest{Bootstrap: true}
	for _, p := range boot {
		req.Photos = append(req.Photos, PhotoToDTO(p))
	}
	var up UploadResponse
	if code := postJSON(t, ts.URL+"/v1/photos", req, &up); code != http.StatusOK {
		t.Fatalf("bootstrap code %d", code)
	}
	return ts, w, v, rng
}

// sweepUploader returns a function that claims a task for one registered
// worker and uploads its sweep, returning the upload's status code.
func sweepUploader(t *testing.T, ts *httptest.Server, w *camera.World, v *venue.Venue, rng *rand.Rand) func() int {
	worker := registerWorker(t, ts.URL)
	return func() int {
		t.Helper()
		claim, ok := claimTask(t, ts.URL, worker)
		if !ok {
			t.Fatal("no task to claim")
		}
		var body map[string]any
		return postJSON(t, ts.URL+"/v1/photos", sweepRequest(t, w, v, claim, rng), &body)
	}
}

// TestUploadFailsWhenJournalCommitFails pins that an upload whose events
// never reached disk is not acknowledged: the commit error answers 500,
// the model keeps the batch (and the read snapshot shows it), and uploads
// succeed again once the store recovers.
func TestUploadFailsWhenJournalCommitFails(t *testing.T) {
	store := &syncFailStore{}
	ts, w, v, rng := journalServer(t, func(st events.Store) events.Store {
		store.Store = st
		return store
	}, nil, events.CheckpointPolicy{})
	var before StatusResponse
	getJSON(t, ts.URL+"/v1/status", &before)
	sweepUpload := sweepUploader(t, ts, w, v, rng)

	store.fail.Store(true)
	if code := sweepUpload(); code != http.StatusInternalServerError {
		t.Fatalf("upload with failing journal commit: code %d, want 500", code)
	}
	var after StatusResponse
	getJSON(t, ts.URL+"/v1/status", &after)
	if after.PhotosProcessed <= before.PhotosProcessed {
		t.Errorf("photosProcessed %d -> %d: the model should keep the batch and the snapshot show it",
			before.PhotosProcessed, after.PhotosProcessed)
	}

	store.fail.Store(false)
	if code := sweepUpload(); code != http.StatusOK {
		t.Fatalf("upload after the store recovered: code %d, want 200", code)
	}
}

// checkpointFailStore is a store whose WriteCheckpoint fails while fail
// is set, standing in for a full disk under the checkpoint file.
type checkpointFailStore struct {
	events.Store
	fail atomic.Bool
}

func (s *checkpointFailStore) WriteCheckpoint(c events.Checkpoint) error {
	if s.fail.Load() {
		return fmt.Errorf("simulated checkpoint write failure")
	}
	return s.Store.WriteCheckpoint(c)
}

// TestFailedCheckpointFailsReadiness pins that a failed periodic
// checkpoint is not silent: the upload that triggered it is still
// acknowledged (its events are durable in the journal), the failure is
// counted, and /readyz answers 503 until a later checkpoint succeeds.
func TestFailedCheckpointFailsReadiness(t *testing.T) {
	store := &checkpointFailStore{}
	em := telemetry.NewEventMetrics(telemetry.NewRegistry())
	ts, w, v, rng := journalServer(t, func(st events.Store) events.Store {
		store.Store = st
		return store
	}, em, events.CheckpointPolicy{Every: 1})
	readyz := func() int {
		t.Helper()
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := readyz(); code != http.StatusOK {
		t.Fatalf("readyz before any failure: code %d", code)
	}
	sweepUpload := sweepUploader(t, ts, w, v, rng)
	written := em.Checkpoints.Value()
	if written == 0 {
		t.Fatal("no checkpoint written under Every: 1")
	}

	store.fail.Store(true)
	if code := sweepUpload(); code != http.StatusOK {
		t.Fatalf("upload with failing checkpoint: code %d, want 200", code)
	}
	failures := em.CheckpointFailures.Value()
	if failures == 0 {
		t.Fatal("failed checkpoint not counted")
	}
	if em.Checkpoints.Value() != written {
		t.Errorf("checkpoints %d -> %d while every write failed", written, em.Checkpoints.Value())
	}
	if code := readyz(); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after a failed checkpoint: code %d, want 503", code)
	}

	store.fail.Store(false)
	if code := sweepUpload(); code != http.StatusOK {
		t.Fatalf("upload after the store recovered: code %d, want 200", code)
	}
	if code := readyz(); code != http.StatusOK {
		t.Fatalf("readyz after a successful checkpoint: code %d, want 200", code)
	}
	if em.Checkpoints.Value() == written || em.CheckpointFailures.Value() != failures {
		t.Errorf("after recovery: checkpoints %d -> %d, failures %d -> %d",
			written, em.Checkpoints.Value(), failures, em.CheckpointFailures.Value())
	}
}
