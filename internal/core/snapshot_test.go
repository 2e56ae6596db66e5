package core

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"testing"

	"snaptask/internal/camera"
	"snaptask/internal/crowd"
	"snaptask/internal/metrics"
	"snaptask/internal/sfm"
	"snaptask/internal/venue"
)

// TestSnapshotRoundTrip runs part of a mapping session, snapshots the
// backend, restores it into a fresh world, and finishes the session there:
// the paper's "stored in a database for further iterations".
func TestSnapshotRoundTrip(t *testing.T) {
	v, err := venue.SmallRoom()
	if err != nil {
		t.Fatal(err)
	}
	mkWorld := func() *camera.World {
		return camera.NewWorld(v, v.GenerateFeatures(rand.New(rand.NewSource(1))))
	}
	world := mkWorld()
	sys, err := NewSystem(v, world, Config{Margin: 3})
	if err != nil {
		t.Fatal(err)
	}
	gt, err := v.GroundTruthAt(sys.Layout())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	boot, err := BootstrapCapture(world, v, camera.DefaultIntrinsics(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ProcessBootstrap(boot, rng); err != nil {
		t.Fatal(err)
	}
	// Execute a couple of tasks.
	worker := &crowd.GuidedWorker{World: world, Venue: v, Intrinsics: camera.DefaultIntrinsics(), Pos: v.Entrance()}
	walk := v.WalkMap(gt)
	for i := 0; i < 2; i++ {
		task, ok := sys.NextTask()
		if !ok {
			break
		}
		res, err := worker.DoPhotoTask(walk, task.Location, rng)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.ProcessPhotoBatch(task.Location, task.AimPoint(), res.Photos, rng); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := sys.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	// Restore into a FRESH world (as a server restart would).
	world2 := mkWorld()
	sys2, err := LoadSystem(&buf, v, world2)
	if err != nil {
		t.Fatal(err)
	}
	if sys2.PhotosProcessed() != sys.PhotosProcessed() {
		t.Errorf("photos processed: %d vs %d", sys2.PhotosProcessed(), sys.PhotosProcessed())
	}
	if sys2.Model().NumViews() != sys.Model().NumViews() {
		t.Errorf("views: %d vs %d", sys2.Model().NumViews(), sys.Model().NumViews())
	}
	if sys2.Model().NumPoints() != sys.Model().NumPoints() {
		t.Errorf("points: %d vs %d", sys2.Model().NumPoints(), sys.Model().NumPoints())
	}
	if sys2.Covered() != sys.Covered() {
		t.Error("covered flag lost")
	}
	if len(sys2.PendingTasks()) != len(sys.PendingTasks()) {
		t.Errorf("pending: %d vs %d", len(sys2.PendingTasks()), len(sys.PendingTasks()))
	}
	// Maps recomputed on load match the live system's.
	if sys2.Maps().Coverage.CountPositive() != sys.Maps().Coverage.CountPositive() {
		t.Errorf("coverage cells: %d vs %d",
			sys2.Maps().Coverage.CountPositive(), sys.Maps().Coverage.CountPositive())
	}

	// The restored backend can finish the session through the normal loop.
	worker2 := &crowd.GuidedWorker{World: world2, Venue: v, Intrinsics: camera.DefaultIntrinsics(), Pos: v.Entrance()}
	rng2 := rand.New(rand.NewSource(3))
	loopRes, err := RunGuidedLoop(sys2, worker2, walk, LoopOptions{MaxTasks: 50, SkipBootstrap: true}, rng2)
	if err != nil {
		t.Fatal(err)
	}
	if !loopRes.Covered {
		t.Fatalf("restored session did not finish (%d tasks)", len(loopRes.Iterations))
	}
	truthCov, err := gt.Coverage()
	if err != nil {
		t.Fatal(err)
	}
	cov, err := metrics.CoveragePercent(sys2.Maps().Coverage, truthCov)
	if err != nil {
		t.Fatal(err)
	}
	if cov < 85 {
		t.Errorf("post-restore coverage = %.1f%%", cov)
	}
}

func TestLoadSystemValidation(t *testing.T) {
	var buf bytes.Buffer
	if _, err := LoadSystem(&buf, nil, nil); err == nil {
		t.Error("nil venue accepted")
	}
	v, err := venue.SmallRoom()
	if err != nil {
		t.Fatal(err)
	}
	world := camera.NewWorld(v, nil)
	if _, err := LoadSystem(&buf, v, world); err == nil {
		t.Error("empty snapshot stream accepted")
	}

	// A snapshot from the retired multi-model layout carried its model in a
	// PModel field and left Model empty. Gob drops the unknown field, so
	// the restore must fail loudly instead of resuming with an empty model.
	type oldModel struct {
		K     int
		Parts []sfm.Snapshot
	}
	old := struct {
		Config          Config
		PModel          *oldModel
		PhotosProcessed int
	}{
		Config:          Config{Margin: 3},
		PModel:          &oldModel{K: 4, Parts: make([]sfm.Snapshot, 4)},
		PhotosProcessed: 120,
	}
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(old); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSystem(&buf, v, world); err == nil {
		t.Error("snapshot without a model accepted")
	}
}
