package dispatch

import (
	"encoding/json"
	"testing"
	"time"

	"snaptask/internal/events"
	"snaptask/internal/geom"
	"snaptask/internal/taskgen"
)

// fakeClock is the injected time source: every expiry decision in the
// dispatcher is deterministic against it.
type fakeClock struct{ t time.Time }

func (c *fakeClock) Now() time.Time          { return c.t }
func (c *fakeClock) Advance(d time.Duration) { c.t = c.t.Add(d) }

// fakeSource is an in-memory task queue standing in for core.System.
type fakeSource struct{ tasks []taskgen.Task }

func (f *fakeSource) PendingTasks() []taskgen.Task {
	return append([]taskgen.Task(nil), f.tasks...)
}

func (f *fakeSource) TakeTask(id int) (taskgen.Task, bool) {
	for i, t := range f.tasks {
		if t.ID == id {
			f.tasks = append(f.tasks[:i], f.tasks[i+1:]...)
			return t, true
		}
	}
	return taskgen.Task{}, false
}

func newTestDispatcher(t *testing.T, cfg Config) (*Dispatcher, *fakeClock) {
	t.Helper()
	clk := &fakeClock{t: time.Unix(1000, 0).UTC()}
	cfg.Now = clk.Now
	if cfg.LeaseTTL == 0 {
		cfg.LeaseTTL = 30 * time.Second
	}
	return New(cfg), clk
}

func photoTask(id int, x, y float64) taskgen.Task {
	return taskgen.Task{ID: id, Kind: taskgen.KindPhoto, Location: geom.V2(x, y)}
}

func mustRegister(t *testing.T, d *Dispatcher, info WorkerInfo) WorkerInfo {
	t.Helper()
	out, err := d.Register(info)
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	return out
}

func TestRegisterAssignsAndKeepsIDs(t *testing.T) {
	d, _ := newTestDispatcher(t, Config{})
	a := mustRegister(t, d, WorkerInfo{})
	b := mustRegister(t, d, WorkerInfo{})
	if a.ID != "w1" || b.ID != "w2" {
		t.Fatalf("assigned IDs = %q, %q, want w1, w2", a.ID, b.ID)
	}
	// Re-registration refreshes info but keeps the registry entry.
	again := mustRegister(t, d, WorkerInfo{ID: "w1", Pos: geom.V2(3, 4), HasPos: true})
	if again.ID != "w1" {
		t.Fatalf("re-register changed ID to %q", again.ID)
	}
	if st := d.Status(); st.Workers != 2 {
		t.Fatalf("workers = %d, want 2", st.Workers)
	}
	// An explicit high ID bumps the counter past it.
	mustRegister(t, d, WorkerInfo{ID: "w9"})
	c := mustRegister(t, d, WorkerInfo{})
	if c.ID != "w10" {
		t.Fatalf("post-bump ID = %q, want w10", c.ID)
	}
}

func TestRegisterRejectsBadIncentiveParams(t *testing.T) {
	d, _ := newTestDispatcher(t, Config{})
	if _, err := d.Register(WorkerInfo{Reliability: 1.5}); err == nil {
		t.Fatal("reliability > 1 accepted")
	}
	if _, err := d.Register(WorkerInfo{BaseReward: -1}); err == nil {
		t.Fatal("negative base reward accepted")
	}
}

func TestClaimUploadLifecycle(t *testing.T) {
	d, _ := newTestDispatcher(t, Config{})
	src := &fakeSource{tasks: []taskgen.Task{photoTask(1, 0, 0), photoTask(2, 5, 5)}}
	w := mustRegister(t, d, WorkerInfo{})

	task, lease, err := d.Claim(w.ID, nil, src)
	if err != nil {
		t.Fatalf("claim: %v", err)
	}
	if task.ID != 1 || lease.Worker != w.ID || lease.TaskID != 1 {
		t.Fatalf("claim = task %d lease %+v", task.ID, lease)
	}
	if len(src.tasks) != 1 {
		t.Fatalf("claim did not pop the source queue: %d left", len(src.tasks))
	}

	// Re-claim while holding a lease is idempotent: same task, same lease.
	task2, lease2, err := d.Claim(w.ID, nil, src)
	if err != nil {
		t.Fatalf("re-claim: %v", err)
	}
	if task2.ID != task.ID || lease2.ID != lease.ID {
		t.Fatalf("re-claim handed out a different lease: %+v vs %+v", lease2, lease)
	}
	if st := d.Status(); st.Claims != 1 {
		t.Fatalf("idempotent re-claim counted: claims = %d", st.Claims)
	}

	dup, err := d.BeginUpload(w.ID, lease.ID)
	if err != nil || dup {
		t.Fatalf("begin upload: dup=%v err=%v", dup, err)
	}
	d.FinishUpload(w.ID, lease.ID, true)

	st := d.Status()
	if st.Completions != 1 || st.ActiveLeases != 0 {
		t.Fatalf("after completion: %+v", st)
	}
	if pw := st.PerWorker[w.ID]; pw.Claims != 1 || pw.Completions != 1 {
		t.Fatalf("per-worker counters: %+v", pw)
	}

	// Duplicate completion is a no-op signalled via dup.
	dup, err = d.BeginUpload(w.ID, lease.ID)
	if err != nil || !dup {
		t.Fatalf("duplicate upload: dup=%v err=%v", dup, err)
	}
	if st := d.Status(); st.Completions != 1 {
		t.Fatal("duplicate upload double-counted")
	}

	// A different worker presenting the completed lease is foreign.
	other := mustRegister(t, d, WorkerInfo{})
	if _, err := d.BeginUpload(other.ID, lease.ID); err != ErrForeignLease {
		t.Fatalf("foreign duplicate: %v, want ErrForeignLease", err)
	}
	// And an unknown lease is unknown.
	if _, err := d.BeginUpload(w.ID, "l999"); err != ErrUnknownLease {
		t.Fatalf("unknown lease: %v, want ErrUnknownLease", err)
	}
}

func TestClaimErrors(t *testing.T) {
	d, _ := newTestDispatcher(t, Config{})
	src := &fakeSource{}
	if _, _, err := d.Claim("w1", nil, src); err != ErrUnknownWorker {
		t.Fatalf("unregistered claim: %v, want ErrUnknownWorker", err)
	}
	w := mustRegister(t, d, WorkerInfo{})
	if _, _, err := d.Claim(w.ID, nil, src); err != ErrNoTask {
		t.Fatalf("empty-queue claim: %v, want ErrNoTask", err)
	}
}

func TestLeaseExpiryRequeuesForOtherWorker(t *testing.T) {
	d, clk := newTestDispatcher(t, Config{LeaseTTL: 30 * time.Second})
	src := &fakeSource{tasks: []taskgen.Task{photoTask(1, 0, 0)}}
	w1 := mustRegister(t, d, WorkerInfo{})
	w2 := mustRegister(t, d, WorkerInfo{})

	_, lease, err := d.Claim(w1.ID, nil, src)
	if err != nil {
		t.Fatalf("claim: %v", err)
	}

	// The holder stops heartbeating; the deadline passes.
	clk.Advance(31 * time.Second)

	// A late heartbeat does not resurrect the lease.
	if _, active, err := d.Heartbeat(w1.ID); err != nil || active {
		t.Fatalf("late heartbeat: active=%v err=%v, want inactive", active, err)
	}
	st := d.Status()
	if st.Expiries != 1 || st.Requeues != 1 || st.RequeuedQueued != 1 || st.ActiveLeases != 0 {
		t.Fatalf("after expiry: %+v", st)
	}
	if pw := st.PerWorker[w1.ID]; pw.Expiries != 1 {
		t.Fatalf("per-worker expiries: %+v", pw)
	}

	// The expired lease's upload is refused as gone.
	if _, err := d.BeginUpload(w1.ID, lease.ID); err != ErrLeaseExpired {
		t.Fatalf("upload on expired lease: %v, want ErrLeaseExpired", err)
	}

	// The just-expired holder does not get the task back while another
	// worker is registered...
	if _, _, err := d.Claim(w1.ID, nil, src); err != ErrNoTask {
		t.Fatalf("ex-holder re-claim: %v, want ErrNoTask", err)
	}
	// ...but the other worker does, served from the requeue buffer.
	task, _, err := d.Claim(w2.ID, nil, src)
	if err != nil || task.ID != 1 {
		t.Fatalf("second worker claim: task=%+v err=%v", task, err)
	}
	if st := d.Status(); st.RequeuedQueued != 0 {
		t.Fatalf("buffer not drained: %+v", st)
	}
}

func TestLoneWorkerGetsItsCrashedTaskBack(t *testing.T) {
	d, clk := newTestDispatcher(t, Config{LeaseTTL: 30 * time.Second})
	src := &fakeSource{tasks: []taskgen.Task{photoTask(1, 0, 0)}}
	w := mustRegister(t, d, WorkerInfo{})
	if _, _, err := d.Claim(w.ID, nil, src); err != nil {
		t.Fatalf("claim: %v", err)
	}
	clk.Advance(31 * time.Second)
	// Soft exclusion must not deadlock a single-worker campaign.
	task, _, err := d.Claim(w.ID, nil, src)
	if err != nil || task.ID != 1 {
		t.Fatalf("lone-worker re-claim: task=%+v err=%v", task, err)
	}
}

func TestHeartbeatExtendsLease(t *testing.T) {
	d, clk := newTestDispatcher(t, Config{LeaseTTL: 30 * time.Second})
	src := &fakeSource{tasks: []taskgen.Task{photoTask(1, 0, 0)}}
	w := mustRegister(t, d, WorkerInfo{})
	if _, _, err := d.Claim(w.ID, nil, src); err != nil {
		t.Fatalf("claim: %v", err)
	}
	// Keep heartbeating every 20s; the lease must survive well past the
	// original deadline.
	for i := 0; i < 5; i++ {
		clk.Advance(20 * time.Second)
		deadline, active, err := d.Heartbeat(w.ID)
		if err != nil || !active {
			t.Fatalf("heartbeat %d: active=%v err=%v", i, active, err)
		}
		if want := clk.Now().Add(30 * time.Second); !deadline.Equal(want) {
			t.Fatalf("heartbeat %d deadline = %v, want %v", i, deadline, want)
		}
	}
	if st := d.Status(); st.ActiveLeases != 1 || st.Expiries != 0 {
		t.Fatalf("lease lost despite heartbeats: %+v", st)
	}
}

func TestPinnedLeaseSurvivesExpirySweep(t *testing.T) {
	d, clk := newTestDispatcher(t, Config{LeaseTTL: 30 * time.Second})
	src := &fakeSource{tasks: []taskgen.Task{photoTask(1, 0, 0)}}
	w := mustRegister(t, d, WorkerInfo{})
	_, lease, err := d.Claim(w.ID, nil, src)
	if err != nil {
		t.Fatalf("claim: %v", err)
	}
	if _, err := d.BeginUpload(w.ID, lease.ID); err != nil {
		t.Fatalf("begin upload: %v", err)
	}
	// The deadline passes mid-upload; a sweep (via Register) runs.
	clk.Advance(31 * time.Second)
	mustRegister(t, d, WorkerInfo{})
	if st := d.Status(); st.Expiries != 0 || st.ActiveLeases != 1 {
		t.Fatalf("pinned lease expired mid-upload: %+v", st)
	}
	d.FinishUpload(w.ID, lease.ID, true)
	if st := d.Status(); st.Completions != 1 {
		t.Fatalf("pinned lease did not complete: %+v", st)
	}
}

func TestFailedUploadKeepsLease(t *testing.T) {
	d, _ := newTestDispatcher(t, Config{})
	src := &fakeSource{tasks: []taskgen.Task{photoTask(1, 0, 0)}}
	w := mustRegister(t, d, WorkerInfo{})
	_, lease, err := d.Claim(w.ID, nil, src)
	if err != nil {
		t.Fatalf("claim: %v", err)
	}
	if _, err := d.BeginUpload(w.ID, lease.ID); err != nil {
		t.Fatalf("begin upload: %v", err)
	}
	d.FinishUpload(w.ID, lease.ID, false) // pipeline error: retryable
	st := d.Status()
	if st.ActiveLeases != 1 || st.Completions != 0 {
		t.Fatalf("errored upload closed the lease: %+v", st)
	}
	// The worker may retry under the same lease.
	if dup, err := d.BeginUpload(w.ID, lease.ID); err != nil || dup {
		t.Fatalf("retry upload: dup=%v err=%v", dup, err)
	}
	d.FinishUpload(w.ID, lease.ID, true)
	if st := d.Status(); st.Completions != 1 {
		t.Fatalf("retry did not complete: %+v", st)
	}
}

func TestBlurExclusionIsForever(t *testing.T) {
	d, _ := newTestDispatcher(t, Config{})
	src := &fakeSource{tasks: []taskgen.Task{photoTask(7, 0, 0)}}
	w1 := mustRegister(t, d, WorkerInfo{})
	w2 := mustRegister(t, d, WorkerInfo{})

	d.NoteBlur(w1.ID, 7)
	if _, _, err := d.Claim(w1.ID, nil, src); err != ErrNoTask {
		t.Fatalf("blur-struck claim: %v, want ErrNoTask", err)
	}
	task, _, err := d.Claim(w2.ID, nil, src)
	if err != nil || task.ID != 7 {
		t.Fatalf("other worker claim: task=%+v err=%v", task, err)
	}
	if pw := d.Status().PerWorker[w1.ID]; pw.BlurStrikes != 1 {
		t.Fatalf("blur strikes: %+v", pw)
	}
}

func TestTaskExcludeListRespected(t *testing.T) {
	d, _ := newTestDispatcher(t, Config{})
	// The task itself carries the exclusion (taskgen's blur history), even
	// if this dispatcher never saw the blur.
	src := &fakeSource{tasks: []taskgen.Task{{
		ID: 3, Kind: taskgen.KindPhoto, Exclude: []string{"w1"},
	}}}
	mustRegister(t, d, WorkerInfo{}) // w1
	w2 := mustRegister(t, d, WorkerInfo{})
	if _, _, err := d.Claim("w1", nil, src); err != ErrNoTask {
		t.Fatalf("excluded claim: %v, want ErrNoTask", err)
	}
	if task, _, err := d.Claim(w2.ID, nil, src); err != nil || task.ID != 3 {
		t.Fatalf("non-excluded claim: task=%+v err=%v", task, err)
	}
}

func TestIncentiveAssignmentPicksBestScoreAndPays(t *testing.T) {
	d, _ := newTestDispatcher(t, Config{Budget: 100})
	// Two tasks: one near the worker, one far. Score = reliability/cost, so
	// the near task wins even though the far one was issued first.
	src := &fakeSource{tasks: []taskgen.Task{photoTask(1, 50, 0), photoTask(2, 1, 0)}}
	pos := geom.V2(0, 0)
	w := mustRegister(t, d, WorkerInfo{Pos: pos, HasPos: true, BaseReward: 2, PerMetre: 1, Reliability: 1})

	task, lease, err := d.Claim(w.ID, &pos, src)
	if err != nil {
		t.Fatalf("claim: %v", err)
	}
	if task.ID != 2 {
		t.Fatalf("incentive claim picked task %d, want the cheaper task 2", task.ID)
	}
	st := d.Status()
	if st.Incentive == nil {
		t.Fatal("incentive status missing")
	}
	if st.Incentive.Reserved != 3 { // base 2 + 1 metre
		t.Fatalf("reserved = %v, want 3", st.Incentive.Reserved)
	}

	if _, err := d.BeginUpload(w.ID, lease.ID); err != nil {
		t.Fatalf("begin upload: %v", err)
	}
	d.FinishUpload(w.ID, lease.ID, true)
	st = d.Status()
	if st.Incentive.Spent != 3 || st.Incentive.Reserved != 0 {
		t.Fatalf("after payment: %+v", st.Incentive)
	}
	if pw := st.PerWorker[w.ID]; pw.Paid != 3 {
		t.Fatalf("per-worker paid = %v, want 3", pw.Paid)
	}
}

func TestIncentiveBudgetExhausted(t *testing.T) {
	d, _ := newTestDispatcher(t, Config{Budget: 10})
	src := &fakeSource{tasks: []taskgen.Task{photoTask(1, 100, 0)}}
	pos := geom.V2(0, 0)
	// Cost = 5 + 100*1 = 105 > 10.
	w := mustRegister(t, d, WorkerInfo{Pos: pos, HasPos: true, BaseReward: 5, PerMetre: 1, Reliability: 1})
	if _, _, err := d.Claim(w.ID, &pos, src); err != ErrBudgetExhausted {
		t.Fatalf("unaffordable claim: %v, want ErrBudgetExhausted", err)
	}
	// A worker without a reported location bypasses incentive scoring.
	anon := mustRegister(t, d, WorkerInfo{})
	if task, _, err := d.Claim(anon.ID, nil, src); err != nil || task.ID != 1 {
		t.Fatalf("unlocated claim: task=%+v err=%v", task, err)
	}
}

func TestExpiryReleasesReservation(t *testing.T) {
	d, clk := newTestDispatcher(t, Config{Budget: 100, LeaseTTL: 30 * time.Second})
	src := &fakeSource{tasks: []taskgen.Task{photoTask(1, 1, 0)}}
	pos := geom.V2(0, 0)
	w := mustRegister(t, d, WorkerInfo{Pos: pos, HasPos: true, BaseReward: 2, PerMetre: 1, Reliability: 1})
	if _, _, err := d.Claim(w.ID, &pos, src); err != nil {
		t.Fatalf("claim: %v", err)
	}
	if r := d.Status().Incentive.Reserved; r != 3 {
		t.Fatalf("reserved = %v, want 3", r)
	}
	clk.Advance(31 * time.Second)
	d.Heartbeat(w.ID) // trigger the sweep
	inc := d.Status().Incentive
	if inc.Reserved != 0 || inc.Spent != 0 {
		t.Fatalf("expiry kept the reservation: %+v", inc)
	}
}

// TestRestoreReproducesStatus drives a full lifecycle — registrations,
// claims, a completion, an expiry with requeue, a blur strike — against a
// real journal, then folds the journal into a fresh dispatcher and demands
// the JSON-rendered Status be byte-identical.
func TestRestoreReproducesStatus(t *testing.T) {
	log, err := events.OpenDir(t.TempDir(), nil, events.DirStoreOptions{}, events.CheckpointPolicy{})
	if err != nil {
		t.Fatal(err)
	}

	clk := &fakeClock{t: time.Unix(1000, 0).UTC()}
	live := New(Config{LeaseTTL: 30 * time.Second, Budget: 50, Now: clk.Now})
	live.AttachLog(log)
	src := &fakeSource{tasks: []taskgen.Task{
		photoTask(1, 1, 0), photoTask(2, 2, 0),
		{ID: 3, Kind: taskgen.KindAnnotation, Location: geom.V2(3, 0), Seed: geom.V2(3, 1)},
	}}
	pos := geom.V2(0, 0)
	w1 := mustRegister(t, live, WorkerInfo{Pos: pos, HasPos: true, BaseReward: 1, PerMetre: 1, Reliability: 1})
	w2 := mustRegister(t, live, WorkerInfo{})

	// w1 completes task 1 (paid), w2 abandons task 2 (expiry + requeue),
	// and the blur path strikes w2 on task 3.
	_, lease1, err := live.Claim(w1.ID, &pos, src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := live.BeginUpload(w1.ID, lease1.ID); err != nil {
		t.Fatal(err)
	}
	live.FinishUpload(w1.ID, lease1.ID, true)
	// The server journals the completing batch event with the lease.
	log.Emit(events.Event{Kind: events.KindBatchAccepted, Worker: w1.ID, LeaseID: lease1.ID})

	if _, _, err := live.Claim(w2.ID, nil, src); err != nil {
		t.Fatal(err)
	}
	clk.Advance(31 * time.Second)
	live.Heartbeat(w2.ID) // sweep: expire + requeue task 2
	live.NoteBlur(w2.ID, 3)
	log.Emit(events.Event{Kind: events.KindBlurRetry, TaskID: 3, Worker: w2.ID})

	// w1 claims again and holds the lease across the "restart".
	if _, _, err := live.Claim(w1.ID, &pos, src); err != nil {
		t.Fatal(err)
	}
	if err := log.Commit(); err != nil {
		t.Fatal(err)
	}

	restored := New(Config{LeaseTTL: 30 * time.Second, Budget: 50, Now: clk.Now})
	if err := log.ReadAfter(0, func(e events.Event) error {
		restored.Restore(e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	liveJSON, err := json.Marshal(live.Status())
	if err != nil {
		t.Fatal(err)
	}
	restoredJSON, err := json.Marshal(restored.Status())
	if err != nil {
		t.Fatal(err)
	}
	if string(liveJSON) != string(restoredJSON) {
		t.Fatalf("restored status diverges:\nlive:     %s\nrestored: %s", liveJSON, restoredJSON)
	}

	// The restored dispatcher keeps the blur exclusion: w2 never gets task
	// 3 even though only the journal carried that fact.
	if _, _, err := restored.Claim(w2.ID, nil, src2(src)); err != ErrNoTask {
		t.Fatalf("restored blur exclusion: %v, want ErrNoTask", err)
	}
	// And ID counters moved past the journal: no lease ID is re-issued.
	restoredSrc := &fakeSource{tasks: []taskgen.Task{photoTask(9, 0, 0)}}
	_, lease, err := restored.Claim(w2.ID, nil, restoredSrc)
	if err != nil {
		t.Fatal(err)
	}
	if lease.ID == lease1.ID {
		t.Fatalf("restored dispatcher re-issued lease ID %q", lease.ID)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
}

// src2 hands the restored dispatcher a source containing only task 3 (the
// blur-struck annotation task), mirroring what the restored core queue
// would hold.
func src2(orig *fakeSource) *fakeSource {
	out := &fakeSource{}
	for _, t := range orig.tasks {
		if t.ID == 3 {
			out.tasks = append(out.tasks, t)
		}
	}
	return out
}
