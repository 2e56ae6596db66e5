package core

import (
	"bytes"
	"math/rand"
	"testing"

	"snaptask/internal/camera"
	"snaptask/internal/crowd"
	"snaptask/internal/grid"
	"snaptask/internal/venue"
)

// runIngestLoop executes the full guided loop on the given venue with the
// ingest path selected by fullRebuild, and returns the finished system.
func runIngestLoop(t *testing.T, v *venue.Venue, margin float64, maxTasks int, fullRebuild bool) (*System, LoopResult) {
	t.Helper()
	feats := v.GenerateFeatures(rand.New(rand.NewSource(11)))
	w := camera.NewWorld(v, feats)
	sys, err := NewSystem(v, w, Config{Margin: margin, FullRebuild: fullRebuild})
	if err != nil {
		t.Fatal(err)
	}
	gt, err := v.GroundTruthAt(sys.Layout())
	if err != nil {
		t.Fatal(err)
	}
	worker := &crowd.GuidedWorker{
		World:      w,
		Venue:      v,
		Intrinsics: camera.DefaultIntrinsics(),
		Pos:        v.Entrance(),
	}
	res, err := RunGuidedLoop(sys, worker, v.WalkMap(gt), LoopOptions{MaxTasks: maxTasks}, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	return sys, res
}

func modelBytes(t *testing.T, sys *System) []byte {
	t.Helper()
	b, err := sys.Model().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func requireMapEqual(t *testing.T, name string, a, b *grid.Map) {
	t.Helper()
	if !a.SameLayout(b) {
		t.Fatalf("%s: layouts differ", name)
	}
	bad := 0
	a.Each(func(c grid.Cell, v int) {
		if b.At(c) != v && bad == 0 {
			t.Errorf("%s: cell %v = %d (incremental) vs %d (full)", name, c, v, b.At(c))
		}
		if b.At(c) != v {
			bad++
		}
	})
	if bad > 0 {
		t.Fatalf("%s: %d cells differ", name, bad)
	}
}

// requireSystemsEqual asserts two systems reached bit-identical state:
// same serialized model and cell-identical mapping products.
func requireSystemsEqual(t *testing.T, inc, full *System) {
	t.Helper()
	if !bytes.Equal(modelBytes(t, inc), modelBytes(t, full)) {
		t.Fatal("model snapshots differ between incremental and full ingest")
	}
	requireMapEqual(t, "obstacles", inc.Maps().Obstacles, full.Maps().Obstacles)
	requireMapEqual(t, "visibility", inc.Maps().Visibility, full.Maps().Visibility)
	requireMapEqual(t, "aspects", inc.Maps().Aspects, full.Maps().Aspects)
	requireMapEqual(t, "coverage", inc.Maps().Coverage, full.Maps().Coverage)
	if inc.Covered() != full.Covered() || inc.PhotosProcessed() != full.PhotosProcessed() {
		t.Fatal("loop bookkeeping differs between incremental and full ingest")
	}
}

// TestIncrementalIngestMatchesFullSmallRoom runs the complete guided loop
// twice over the small room — once through the delta-driven ingest path,
// once forcing full recomputation — and requires bit-identical results.
func TestIncrementalIngestMatchesFullSmallRoom(t *testing.T) {
	v, err := venue.SmallRoom()
	if err != nil {
		t.Fatal(err)
	}
	inc, incRes := runIngestLoop(t, v, 3, 50, false)
	full, fullRes := runIngestLoop(t, v, 3, 50, true)
	if !incRes.Covered || !fullRes.Covered {
		t.Fatalf("loops did not finish: incremental=%v full=%v", incRes.Covered, fullRes.Covered)
	}
	requireSystemsEqual(t, inc, full)
}

// TestIncrementalIngestMatchesFullWithAnnotations runs both paths on a
// glass-walled office so annotation tasks fire, exercising the cache
// invalidation + full-recompute fallback mid-loop, and requires the end
// states to stay bit-identical.
func TestIncrementalIngestMatchesFullWithAnnotations(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	v, err := venue.GenerateOffice(rand.New(rand.NewSource(3)), 13, 9, 5)
	if err != nil {
		t.Fatal(err)
	}
	inc, incRes := runIngestLoop(t, v, 5, 70, false)
	full, fullRes := runIngestLoop(t, v, 5, 70, true)
	if incRes.AnnotationTasks == 0 {
		t.Error("office loop fired no annotation tasks; invalidation fallback untested")
	}
	if incRes.AnnotationTasks != fullRes.AnnotationTasks {
		t.Fatalf("annotation tasks: %d incremental vs %d full", incRes.AnnotationTasks, fullRes.AnnotationTasks)
	}
	requireSystemsEqual(t, inc, full)
}
