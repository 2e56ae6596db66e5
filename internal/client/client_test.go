package client

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"snaptask/internal/geom"

	"snaptask/internal/camera"
	"snaptask/internal/core"
	"snaptask/internal/crowd"
	"snaptask/internal/dispatch"
	"snaptask/internal/server"
	"snaptask/internal/venue"
)

// harness spins up a backend over the small room and returns a ready
// client-side agent.
func harness(t *testing.T) (*Client, *Agent, *core.System) {
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
	srv, err := server.New(sys, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	gt, err := v.GroundTruthAt(sys.Layout())
	if err != nil {
		t.Fatal(err)
	}
	cl := New(ts.URL, nil)
	agent := &Agent{
		Client: cl,
		Worker: &crowd.GuidedWorker{
			World:      w,
			Venue:      v,
			Intrinsics: camera.DefaultIntrinsics(),
			Pos:        v.Entrance(),
		},
		Venue:   v,
		WalkMap: v.WalkMap(gt),
	}
	return cl, agent, sys
}

func TestEndToEndOverHTTP(t *testing.T) {
	cl, agent, sys := harness(t)
	rng := rand.New(rand.NewSource(3))

	reg, err := cl.RegisterWorker(server.RegisterWorkerRequest{})
	if err != nil {
		t.Fatal(err)
	}

	// No task before bootstrap.
	_, ok, err := cl.Claim(reg.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("task available before bootstrap")
	}

	// Bootstrap through the wire.
	boot, err := core.BootstrapCapture(agent.Worker.World, agent.Venue, agent.Worker.Intrinsics, rng)
	if err != nil {
		t.Fatal(err)
	}
	up, err := cl.UploadBootstrap(boot)
	if err != nil {
		t.Fatal(err)
	}
	if up.Registered == 0 {
		t.Fatalf("bootstrap: %+v", up)
	}

	// Run the agent until the venue is covered.
	stats, err := agent.RunWorker(reg.ID, 60, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Covered {
		st, _ := cl.Status()
		t.Fatalf("venue not covered after %d+%d tasks (status %+v)",
			stats.PhotoTasks, stats.AnnotationTasks, st)
	}
	if stats.PhotoTasks == 0 {
		t.Error("no photo tasks executed")
	}
	if !sys.Covered() {
		t.Error("system state disagrees with wire state")
	}

	// The map shows walls around the room.
	m, err := cl.FetchMap()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range m.Rows {
		for _, ch := range row {
			if ch == '#' {
				found = true
			}
		}
	}
	if !found {
		t.Error("final map has no obstacles")
	}

	// Status is coherent.
	st, err := cl.Status()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Covered || st.PhotosProcessed == 0 || st.Views == 0 {
		t.Errorf("final status: %+v", st)
	}

	// Asking for more tasks now reports coverage.
	task, ok, err := cl.Claim(reg.ID, nil)
	if err != nil || !ok || !task.Covered {
		t.Errorf("post-coverage task claim: %+v ok=%v err=%v", task, ok, err)
	}
}

func TestClientErrorSurfaceing(t *testing.T) {
	cl := New("http://127.0.0.1:1", nil) // nothing listens here
	if _, _, err := cl.Claim("w1", nil); err == nil {
		t.Error("unreachable backend should error")
	}
	if _, err := cl.Status(); err == nil {
		t.Error("unreachable backend should error")
	}
}

func TestAPIErrorFormatting(t *testing.T) {
	err := &APIError{Status: 422, Body: `{"error":"x"}`}
	if err.Error() == "" {
		t.Error("empty error string")
	}
}

// TestMultiAgentOverHTTP runs two guided agents against one backend: the
// paper's multi-participant deployment. Agents alternate (each registers
// and claims what the backend has pending), and the venue must still
// complete.
func TestMultiAgentOverHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("long multi-agent test")
	}
	cl, agentA, sys := harness(t)
	rng := rand.New(rand.NewSource(9))

	// A second participant with their own position and behaviour.
	agentB := &Agent{
		Client:  cl,
		Worker:  &crowd.GuidedWorker{World: agentA.Worker.World, Venue: agentA.Venue, Intrinsics: agentA.Worker.Intrinsics, Pos: agentA.Venue.Entrance()},
		Venue:   agentA.Venue,
		WalkMap: agentA.WalkMap,
	}

	boot, err := core.BootstrapCapture(agentA.Worker.World, agentA.Venue, agentA.Worker.Intrinsics, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.UploadBootstrap(boot); err != nil {
		t.Fatal(err)
	}

	agents := []*Agent{agentA, agentB}
	ids := make([]string, len(agents))
	for i := range agents {
		reg, err := cl.RegisterWorker(server.RegisterWorkerRequest{})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = reg.ID
	}

	// Alternate one task at a time until covered.
	covered := false
	for i := 0; i < 60 && !covered; i++ {
		for j, a := range agents {
			stats, err := a.RunWorker(ids[j], 1, rng)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Covered {
				covered = true
				break
			}
		}
	}
	if !covered {
		st, _ := cl.Status()
		t.Fatalf("two agents failed to cover the room: %+v", st)
	}
	if !sys.Covered() {
		t.Error("backend state inconsistent")
	}
}

// TestLocateOverHTTP exercises the positioning endpoint.
func TestLocateOverHTTP(t *testing.T) {
	cl, agent, _ := harness(t)
	rng := rand.New(rand.NewSource(10))
	boot, err := core.BootstrapCapture(agent.Worker.World, agent.Venue, agent.Worker.Intrinsics, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.UploadBootstrap(boot); err != nil {
		t.Fatal(err)
	}
	// A photo near the entrance should localise against the young model.
	photo, err := agent.Worker.World.Capture(
		camera.Pose{Pos: agent.Venue.Entrance(), Yaw: 1.2},
		agent.Worker.Intrinsics, camera.CaptureOptions{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Locate(photo)
	if err != nil {
		t.Fatal(err)
	}
	est := geom.V2(resp.X, resp.Y)
	if est.Dist(agent.Venue.Entrance()) > 1.1 {
		t.Errorf("localised %.2f m from the true position", est.Dist(agent.Venue.Entrance()))
	}
	if resp.Matched < 8 {
		t.Errorf("matched only %d features", resp.Matched)
	}
	// A photo of nothing cannot localise.
	empty := camera.Photo{}
	if _, err := cl.Locate(empty); err == nil {
		t.Error("empty photo localised")
	}
}

// TestAimPointOriginSeed is the seed-sentinel regression: a discovery
// frontier can legitimately sit at the world origin, and before HasSeed was
// wired through the API the client would treat such a task as seedless and
// aim at the task location instead.
func TestAimPointOriginSeed(t *testing.T) {
	loc := geom.V2(5, 5)
	withSeed := Task{Location: loc, Seed: geom.Vec2{}, HasSeed: true}
	if got := withSeed.aimPoint(); got != (geom.Vec2{}) {
		t.Errorf("origin seed ignored: aimPoint() = %v, want (0, 0)", got)
	}
	without := Task{Location: loc, HasSeed: false}
	if got := without.aimPoint(); got != loc {
		t.Errorf("seedless task: aimPoint() = %v, want location %v", got, loc)
	}
}

// TestClaimSeedRoundTrip checks the HasSeed flag survives the wire: the
// DTO carries it explicitly instead of clients inferring it from a nonzero
// seed vector.
func TestClaimSeedRoundTrip(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/task/claim", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(server.ClaimResponse{
			Task: server.TaskDTO{
				ID: 7, Kind: "annotation", X: 3, Y: 4,
				SeedX: 0, SeedY: 0, HasSeed: true,
			},
			WorkerID: "w1", LeaseID: "l1",
		})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	task, ok, err := New(ts.URL, nil).Claim("w1", nil)
	if err != nil || !ok {
		t.Fatalf("Claim: ok=%v err=%v", ok, err)
	}
	if !task.HasSeed {
		t.Fatal("HasSeed lost over the wire")
	}
	if task.Seed != (geom.Vec2{}) || task.aimPoint() != (geom.Vec2{}) {
		t.Errorf("origin seed not honoured: seed=%v aim=%v", task.Seed, task.aimPoint())
	}
}

// TestWorkerFleetWithCrashes drives the lease-aware loop the way the paper's
// crowd behaves: one worker that always vanishes mid-lease plus two reliable
// workers running concurrently. The abandoned leases must expire and requeue,
// and the reliable pair must still cover the venue.
func TestWorkerFleetWithCrashes(t *testing.T) {
	if testing.Short() {
		t.Skip("long fleet test")
	}
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
	srv, err := server.New(sys, rand.New(rand.NewSource(2)),
		server.WithDispatch(dispatch.New(dispatch.Config{LeaseTTL: 3 * time.Second})))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	cl := New(ts.URL, nil)

	gt, err := v.GroundTruthAt(sys.Layout())
	if err != nil {
		t.Fatal(err)
	}
	walkMap := v.WalkMap(gt)
	newAgent := func(crash float64) *Agent {
		return &Agent{
			Client: cl,
			Worker: &crowd.GuidedWorker{
				World: w, Venue: v, Intrinsics: camera.DefaultIntrinsics(), Pos: v.Entrance(),
			},
			Venue: v, WalkMap: walkMap,
			CrashProb: crash,
			Poll:      25 * time.Millisecond,
			MaxIdle:   400,
		}
	}

	rng := rand.New(rand.NewSource(3))
	boot, err := core.BootstrapCapture(w, v, camera.DefaultIntrinsics(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.UploadBootstrap(boot); err != nil {
		t.Fatal(err)
	}

	// The crasher claims twice and abandons both leases.
	crasher, err := cl.RegisterWorker(server.RegisterWorkerRequest{})
	if err != nil {
		t.Fatal(err)
	}
	crashStats, err := newAgent(1).RunWorker(crasher.ID, 2, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if crashStats.Crashes != 2 || crashStats.Claims != 2 {
		t.Fatalf("crasher stats: %+v", crashStats)
	}

	// Two reliable workers race to finish the venue.
	type result struct {
		stats AgentStats
		err   error
	}
	results := make(chan result, 2)
	for i := 0; i < 2; i++ {
		a := newAgent(0)
		seed := int64(10 + i)
		go func() {
			reg, err := cl.RegisterWorker(server.RegisterWorkerRequest{})
			if err != nil {
				results <- result{err: err}
				return
			}
			stats, err := a.RunWorker(reg.ID, 120, rand.New(rand.NewSource(seed)))
			results <- result{stats: stats, err: err}
		}()
	}
	covered := false
	var totalDone int
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("fleet worker: %v", r.err)
		}
		covered = covered || r.stats.Covered
		totalDone += r.stats.PhotoTasks + r.stats.AnnotationTasks
	}
	if !sys.Covered() {
		st, _ := cl.Status()
		t.Fatalf("fleet failed to cover the venue (covered flag %v): %+v", covered, st)
	}
	if totalDone == 0 {
		t.Fatal("reliable workers completed nothing")
	}

	st, err := cl.Status()
	if err != nil {
		t.Fatal(err)
	}
	d := st.Dispatch
	if d == nil || d.Expiries < 1 || d.Requeues < 1 {
		t.Fatalf("crashed leases never recycled: %+v", d)
	}
	if pw := d.PerWorker[crasher.ID]; pw.Completions != 0 {
		t.Fatalf("crasher completed work: %+v", pw)
	}
}
