package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"snaptask/internal/annotation"
	"snaptask/internal/camera"
	"snaptask/internal/crowd"
	"snaptask/internal/geom"
	"snaptask/internal/grid"
	"snaptask/internal/metrics"
	"snaptask/internal/taskgen"
	"snaptask/internal/venue"
)

// smallSystem builds a system over the 10x10 test room with a modest map
// margin so tests run fast.
func smallSystem(t *testing.T) (*System, *camera.World, *venue.Venue) {
	t.Helper()
	v, err := venue.SmallRoom()
	if err != nil {
		t.Fatal(err)
	}
	feats := v.GenerateFeatures(rand.New(rand.NewSource(1)))
	w := camera.NewWorld(v, feats)
	sys, err := NewSystem(v, w, Config{Margin: 3})
	if err != nil {
		t.Fatal(err)
	}
	return sys, w, v
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(nil, nil, Config{}); err == nil {
		t.Error("nil venue should error")
	}
}

func TestSystemDefaults(t *testing.T) {
	sys, _, v := smallSystem(t)
	if sys.Layout().Res() != 0.15 {
		t.Errorf("default res = %v", sys.Layout().Res())
	}
	// Layout extends beyond the venue by the margin.
	b := sys.Layout().Bounds()
	if !b.Contains(geom.V2(-2.5, -2.5)) || !b.Contains(geom.V2(12.5, 12.5)) {
		t.Errorf("layout bounds %v do not include the margin", b)
	}
	if sys.Venue() != v {
		t.Error("venue accessor wrong")
	}
	if sys.Covered() {
		t.Error("fresh system covered")
	}
	if _, ok := sys.NextTask(); ok {
		t.Error("fresh system has tasks")
	}
}

func TestEntranceBarrier(t *testing.T) {
	sys, _, v := smallSystem(t)
	// The entrance gap cells are sealed in the system's obstacle map even
	// before any photos.
	segs := v.EntranceSegments()
	if len(segs) != 1 {
		t.Fatalf("entrances = %d", len(segs))
	}
	mid := segs[0].At(0.5)
	if sys.Maps().Obstacles.At(sys.Maps().Obstacles.CellOf(mid)) == 0 {
		t.Error("entrance barrier missing from obstacle map")
	}
}

func TestProcessBootstrap(t *testing.T) {
	sys, w, v := smallSystem(t)
	rng := rand.New(rand.NewSource(2))
	photos, err := BootstrapCapture(w, v, camera.DefaultIntrinsics(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(photos) < 60 {
		t.Fatalf("bootstrap capture produced %d photos, want sweep+calibration", len(photos))
	}
	out, err := sys.ProcessBootstrap(photos, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Batch.Registered) < 40 {
		t.Errorf("bootstrap registered %d photos", len(out.Batch.Registered))
	}
	if len(out.TasksIssued) == 0 && !out.VenueCovered {
		t.Error("bootstrap produced neither task nor coverage")
	}
	if sys.PhotosProcessed() != len(photos) {
		t.Error("photo accounting wrong")
	}
	// Double bootstrap rejected.
	if _, err := sys.ProcessBootstrap(photos, rng); err == nil {
		t.Error("second bootstrap accepted")
	}
}

func TestProcessPhotoBatchValidation(t *testing.T) {
	sys, _, _ := smallSystem(t)
	rng := rand.New(rand.NewSource(3))
	if _, err := sys.ProcessPhotoBatch(geom.V2(1, 1), geom.V2(1, 1), nil, rng); err == nil {
		t.Error("empty batch accepted")
	}
}

func TestProcessAnnotationValidation(t *testing.T) {
	sys, _, _ := smallSystem(t)
	rng := rand.New(rand.NewSource(4))
	if _, err := sys.ProcessAnnotation(annotation.Task{}, geom.Vec2{}, nil, rng); err == nil {
		t.Error("annotation without photos accepted")
	}
}

func TestMedianSharpness(t *testing.T) {
	if medianSharpness(nil) != 0 {
		t.Error("empty batch median should be 0")
	}
	photos := []camera.Photo{{Sharpness: 5}, {Sharpness: 1}, {Sharpness: 9}}
	if got := medianSharpness(photos); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	photos = append(photos, camera.Photo{Sharpness: 100})
	if got := medianSharpness(photos); got != 9 {
		t.Errorf("even-count median = %v, want 9 (upper)", got)
	}
}

func TestGrowthThresholdScales(t *testing.T) {
	sys, _, _ := smallSystem(t)
	if got := sys.growthThreshold(0); got != 30 {
		t.Errorf("threshold(0) = %d, want floor 30", got)
	}
	if got := sys.growthThreshold(100000); got != 500 {
		t.Errorf("threshold(100k) = %d, want 500", got)
	}
}

func TestGuidedLoopSmallRoom(t *testing.T) {
	sys, w, v := smallSystem(t)
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
	rng := rand.New(rand.NewSource(5))
	var iterations int
	res, err := RunGuidedLoop(sys, worker, v.WalkMap(gt), LoopOptions{
		MaxTasks:    50,
		OnIteration: func(it Iteration) { iterations++ },
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Covered {
		t.Fatalf("small room not covered after %d tasks", len(res.Iterations))
	}
	if iterations != len(res.Iterations) {
		t.Error("callback count mismatch")
	}
	if res.TotalPhotos == 0 || res.PhotoTasks == 0 {
		t.Errorf("result: %+v", res)
	}
	// Monotone photo accounting.
	prev := 0
	for _, it := range res.Iterations {
		if it.PhotosUsed < prev {
			t.Fatal("PhotosUsed not monotone")
		}
		prev = it.PhotosUsed
	}
	// Coverage quality: a brick room should reconstruct nearly fully.
	truthCov, err := gt.Coverage()
	if err != nil {
		t.Fatal(err)
	}
	pct, err := metrics.CoveragePercent(sys.Maps().Coverage, truthCov)
	if err != nil {
		t.Fatal(err)
	}
	if pct < 90 {
		t.Errorf("small-room coverage = %.1f%%, want > 90%%", pct)
	}
}

func TestGuidedLoopBlurryWorkerStillConverges(t *testing.T) {
	sys, w, v := smallSystem(t)
	gt, err := v.GroundTruthAt(sys.Layout())
	if err != nil {
		t.Fatal(err)
	}
	worker := &crowd.GuidedWorker{
		World:      w,
		Venue:      v,
		Intrinsics: camera.DefaultIntrinsics(),
		Pos:        v.Entrance(),
		BlurProb:   0.3, // some sweeps come out blurred; retries recover
	}
	rng := rand.New(rand.NewSource(6))
	res, err := RunGuidedLoop(sys, worker, v.WalkMap(gt), LoopOptions{MaxTasks: 60}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Covered {
		t.Errorf("blurry worker failed to finish: %d tasks", len(res.Iterations))
	}
}

func TestBootstrapCaptureShape(t *testing.T) {
	_, w, v := smallSystem(t)
	rng := rand.New(rand.NewSource(7))
	photos, err := BootstrapCapture(w, v, camera.DefaultIntrinsics(), rng)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's bootstrap: 46 video frames + 39 geo-calibration photos;
	// ours is one sweep (45) plus up to 39.
	if len(photos) < 45 || len(photos) > 45+39 {
		t.Errorf("bootstrap photos = %d", len(photos))
	}
}

func TestNextTaskOrder(t *testing.T) {
	sys, w, v := smallSystem(t)
	rng := rand.New(rand.NewSource(8))
	photos, err := BootstrapCapture(w, v, camera.DefaultIntrinsics(), rng)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sys.ProcessBootstrap(photos, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.TasksIssued) == 0 {
		t.Skip("bootstrap covered the room outright")
	}
	pending := sys.PendingTasks()
	task, ok := sys.NextTask()
	if !ok || task.ID != pending[0].ID {
		t.Error("NextTask does not pop FIFO")
	}
	if task.Kind != taskgen.KindPhoto {
		t.Error("first task should be a photo task")
	}
}

// cellsEqual compares two grid maps cell by cell.
func cellsEqual(a, b *grid.Map) bool {
	if !a.SameLayout(b) {
		return false
	}
	equal := true
	a.Each(func(c grid.Cell, v int) {
		if b.At(c) != v {
			equal = false
		}
	})
	return equal
}

// TestIncrementalRebuildDeterminism runs the same upload sequence through
// two systems — one on the default incremental rebuild path, one forced to
// a full recast before every batch — and requires identical maps, identical
// task sequences and identical coverage outcomes. This is the equivalence
// guarantee the read-path snapshot and the benchmark numbers rely on.
func TestIncrementalRebuildDeterminism(t *testing.T) {
	build := func() (*System, *camera.World, *venue.Venue) {
		t.Helper()
		return smallSystem(t)
	}
	sysInc, w1, v1 := build()
	sysFull, _, _ := build()

	rngCap := rand.New(rand.NewSource(21))
	boot, err := BootstrapCapture(w1, v1, camera.DefaultIntrinsics(), rngCap)
	if err != nil {
		t.Fatal(err)
	}
	// Two batches keep the test fast enough for -race while still covering
	// both interesting rebuilds: the first post-bootstrap batch (cache warm
	// from bootstrap) and a later one (cache warm from a mixed build).
	var sweeps [][]camera.Photo
	for i := 0; i < 2; i++ {
		pos := v1.Entrance()
		pos.X += 0.7 * float64(i)
		pos.Y += 1.2
		s, err := w1.Sweep(pos, camera.DefaultIntrinsics(), camera.CaptureOptions{}, rngCap)
		if err != nil {
			t.Fatal(err)
		}
		sweeps = append(sweeps, s)
	}

	rngInc := rand.New(rand.NewSource(22))
	rngFull := rand.New(rand.NewSource(22))
	if _, err := sysInc.ProcessBootstrap(boot, rngInc); err != nil {
		t.Fatal(err)
	}
	sysFull.vis.Invalidate()
	if _, err := sysFull.ProcessBootstrap(boot, rngFull); err != nil {
		t.Fatal(err)
	}
	for i, s := range sweeps {
		loc := v1.Entrance()
		loc.X += 0.7 * float64(i)
		loc.Y += 1.2
		outInc, err := sysInc.ProcessPhotoBatch(loc, loc, s, rngInc)
		if err != nil {
			t.Fatal(err)
		}
		sysFull.vis.Invalidate() // force the full-rebuild path
		outFull, err := sysFull.ProcessPhotoBatch(loc, loc, s, rngFull)
		if err != nil {
			t.Fatal(err)
		}
		if outInc.CoverageCells != outFull.CoverageCells ||
			outInc.CoverageIncreased != outFull.CoverageIncreased ||
			outInc.VenueCovered != outFull.VenueCovered ||
			len(outInc.TasksIssued) != len(outFull.TasksIssued) {
			t.Fatalf("batch %d: outcomes diverge: %+v vs %+v", i, outInc, outFull)
		}
		if !cellsEqual(sysInc.Maps().Obstacles, sysFull.Maps().Obstacles) ||
			!cellsEqual(sysInc.Maps().Visibility, sysFull.Maps().Visibility) ||
			!cellsEqual(sysInc.Maps().Aspects, sysFull.Maps().Aspects) ||
			!cellsEqual(sysInc.Maps().Coverage, sysFull.Maps().Coverage) {
			t.Fatalf("batch %d: incremental maps diverge from full rebuild", i)
		}
	}
	pInc, pFull := sysInc.PendingTasks(), sysFull.PendingTasks()
	if len(pInc) != len(pFull) {
		t.Fatalf("pending queues diverge: %d vs %d", len(pInc), len(pFull))
	}
	for i := range pInc {
		if !reflect.DeepEqual(pInc[i], pFull[i]) {
			t.Fatalf("pending task %d diverges: %+v vs %+v", i, pInc[i], pFull[i])
		}
	}
}

// TestMinCoverageGrowthSentinel covers the config convention: zero means
// the default (30), a negative value selects an explicit threshold of 0.
func TestMinCoverageGrowthSentinel(t *testing.T) {
	sysDefault, _, _ := smallSystem(t)
	if got := sysDefault.growthThreshold(0); got != 30 {
		t.Errorf("default growth threshold = %d, want 30", got)
	}

	v, err := venue.SmallRoom()
	if err != nil {
		t.Fatal(err)
	}
	w := camera.NewWorld(v, v.GenerateFeatures(rand.New(rand.NewSource(1))))
	sysZero, err := NewSystem(v, w, Config{Margin: 3, MinCoverageGrowth: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got := sysZero.growthThreshold(0); got != 0 {
		t.Errorf("explicit-zero growth threshold = %d, want 0", got)
	}
	// The relative term still applies at scale.
	if got := sysZero.growthThreshold(10000); got != 50 {
		t.Errorf("relative growth threshold = %d, want 50", got)
	}

	// The sentinel survives a snapshot round trip: -1 must not come back
	// as the 30-cell default.
	var buf bytes.Buffer
	if err := sysZero.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadSystem(&buf, v, w)
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.growthThreshold(0); got != 0 {
		t.Errorf("restored growth threshold = %d, want 0", got)
	}
}
