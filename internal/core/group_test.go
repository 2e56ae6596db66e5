package core

import (
	"math/rand"
	"testing"

	"snaptask/internal/camera"
	"snaptask/internal/venue"
)

// groupSweeps captures n registrable sweeps spread across the room, each a
// separate upload batch.
func groupSweeps(t *testing.T, w *camera.World, v *venue.Venue, n int, rng *rand.Rand) []UploadBatch {
	t.Helper()
	var batches []UploadBatch
	for i := 0; i < n; i++ {
		pos := v.Entrance()
		pos.X += 0.9 * float64(i%4)
		pos.Y += 1.2 + 0.8*float64(i/4)
		photos, err := w.Sweep(pos, camera.DefaultIntrinsics(), camera.CaptureOptions{}, rng)
		if err != nil {
			t.Fatal(err)
		}
		batches = append(batches, UploadBatch{TaskLoc: pos, TaskSeed: pos, Photos: photos})
	}
	return batches
}

// TestProcessPhotoBatchGroup exercises the grouped ingest path: sequential
// registration, one shared rebuild, per-batch results in input order, and
// rejection of malformed groups.
func TestProcessPhotoBatchGroup(t *testing.T) {
	sys, w, v := smallSystem(t)
	rng := rand.New(rand.NewSource(2))
	boot, err := BootstrapCapture(w, v, camera.DefaultIntrinsics(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ProcessBootstrap(boot, rng); err != nil {
		t.Fatal(err)
	}
	before := sys.PhotosProcessed()

	batches := groupSweeps(t, w, v, 8, rng)
	out, err := sys.ProcessPhotoBatchGroup(batches, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Batches) != len(batches) {
		t.Fatalf("group outcome has %d batch results, want %d", len(out.Batches), len(batches))
	}
	total, registered := 0, 0
	for _, b := range batches {
		total += len(b.Photos)
	}
	for _, r := range out.Batches {
		registered += len(r.Registered)
	}
	if registered == 0 {
		t.Fatal("group ingest registered no photos")
	}
	if sys.PhotosProcessed() != before+total {
		t.Fatalf("photos processed %d, want %d", sys.PhotosProcessed(), before+total)
	}
	if out.CoverageCells == 0 {
		t.Fatal("group ingest produced no coverage")
	}

	// Validation: empty group and empty batch inside a group are rejected.
	if _, err := sys.ProcessPhotoBatchGroup(nil, rng); err == nil {
		t.Error("empty group accepted")
	}
	if _, err := sys.ProcessPhotoBatchGroup([]UploadBatch{{TaskLoc: v.Entrance()}}, rng); err == nil {
		t.Error("group with an empty batch accepted")
	}
}

// TestProcessPhotoBatchGroupMonolithic checks that a small group of batches
// ingests through the single model and returns one result per batch.
func TestProcessPhotoBatchGroupMonolithic(t *testing.T) {
	sys, w, v := smallSystem(t)
	rng := rand.New(rand.NewSource(2))
	boot, err := BootstrapCapture(w, v, camera.DefaultIntrinsics(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ProcessBootstrap(boot, rng); err != nil {
		t.Fatal(err)
	}
	batches := groupSweeps(t, w, v, 4, rng)
	out, err := sys.ProcessPhotoBatchGroup(batches, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Batches) != len(batches) {
		t.Fatalf("group outcome has %d batch results, want %d", len(out.Batches), len(batches))
	}
	registered := 0
	for _, r := range out.Batches {
		registered += len(r.Registered)
	}
	if registered == 0 {
		t.Fatal("monolithic group ingest registered no photos")
	}
}
