package core

import (
	"math/rand"
	"testing"

	"snaptask/internal/camera"
	"snaptask/internal/crowd"
	"snaptask/internal/geom"
	"snaptask/internal/metrics"
	"snaptask/internal/taskgen"
	"snaptask/internal/venue"
)

// TestLibraryIntegration runs the first stretch of the paper's field test
// on the full library replica and checks the behaviours the paper reports:
// walls reconstruct solidly, coverage grows monotonically per productive
// task, and the loop makes steady progress. (The full run to declared
// coverage takes ~8 minutes and is exercised by cmd/snaptask-bench and the
// examples/library binary.)
func TestLibraryIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	v, err := venue.Library()
	if err != nil {
		t.Fatal(err)
	}
	feats := v.GenerateFeatures(rand.New(rand.NewSource(7)))
	w := camera.NewWorld(v, feats)
	sys, err := NewSystem(v, w, Config{})
	if err != nil {
		t.Fatal(err)
	}
	gt, err := v.GroundTruthAt(sys.Layout())
	if err != nil {
		t.Fatal(err)
	}
	truthCov, err := gt.Coverage()
	if err != nil {
		t.Fatal(err)
	}
	worker := &crowd.GuidedWorker{
		World:      w,
		Venue:      v,
		Intrinsics: camera.DefaultIntrinsics(),
		Pos:        v.Entrance(),
	}
	rng := rand.New(rand.NewSource(8))
	res, err := RunGuidedLoop(sys, worker, v.WalkMap(gt), LoopOptions{MaxTasks: 40}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) < 10 {
		t.Fatalf("loop stopped after %d tasks", len(res.Iterations))
	}

	cov, err := metrics.CoveragePercent(sys.Maps().Coverage, truthCov)
	if err != nil {
		t.Fatal(err)
	}
	if cov < 80 {
		t.Errorf("coverage after 40 tasks = %.1f%%, want > 80%% on the way to ~98%%", cov)
	}
	bounds, err := metrics.OuterBoundsPercent(sys.Maps().Obstacles, v.OuterSurfaces(), metrics.BoundsMatchThreshold)
	if err != nil {
		t.Fatal(err)
	}
	if bounds < 50 {
		t.Errorf("outer bounds after 40 tasks = %.1f%%", bounds)
	}

	// The brick walls must reconstruct as solid lines (obstacle points are
	// counted in the layout cell they fall in; pinholes here would leak the
	// flood fill).
	ob := sys.Maps().Obstacles
	holes := 0
	for _, s := range v.OuterSurfaces() {
		if s.Material != venue.Brick {
			continue
		}
		n := int(s.Seg.Len() / 0.15)
		for i := 0; i <= n; i++ {
			p := s.Seg.At(float64(i) / float64(n))
			// Skip the entrance gap.
			if p.Dist(geom.V2(1.75, 0)) < 0.9 {
				continue
			}
			if ob.At(ob.CellOf(p)) == 0 && ob.At(ob.CellOf(p.Add(geom.V2(0, 0.15)))) == 0 &&
				ob.At(ob.CellOf(p.Sub(geom.V2(0, 0.15)))) == 0 &&
				ob.At(ob.CellOf(p.Add(geom.V2(0.15, 0)))) == 0 &&
				ob.At(ob.CellOf(p.Sub(geom.V2(0.15, 0)))) == 0 {
				holes++
			}
		}
	}
	// Early in the run distant wall stretches are legitimately unseen;
	// wholesale pinholing would produce hundreds.
	if holes > 150 {
		t.Errorf("brick walls have %d unreconstructed sample points", holes)
	}

	// Photo tasks dominate; annotation tasks may or may not have fired in
	// the first 40 tasks, but every fired one is at a real location.
	for _, it := range res.Iterations {
		if it.Task.Kind == taskgen.KindAnnotation && it.AnnotationTask == nil {
			t.Error("annotation iteration without task payload")
		}
	}
}

// TestOfficeGeneralization runs the loop on a generated office — a venue
// the system was never tuned on — and expects completion with high
// coverage, including the glass east wall via annotation.
func TestOfficeGeneralization(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	v, err := venue.GenerateOffice(rand.New(rand.NewSource(3)), 16, 11, 7)
	if err != nil {
		t.Fatal(err)
	}
	feats := v.GenerateFeatures(rand.New(rand.NewSource(4)))
	w := camera.NewWorld(v, feats)
	sys, err := NewSystem(v, w, Config{Margin: 10})
	if err != nil {
		t.Fatal(err)
	}
	gt, err := v.GroundTruthAt(sys.Layout())
	if err != nil {
		t.Fatal(err)
	}
	truthCov, err := gt.Coverage()
	if err != nil {
		t.Fatal(err)
	}
	worker := &crowd.GuidedWorker{
		World:      w,
		Venue:      v,
		Intrinsics: camera.DefaultIntrinsics(),
		Pos:        v.Entrance(),
	}
	res, err := RunGuidedLoop(sys, worker, v.WalkMap(gt), LoopOptions{MaxTasks: 120}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	cov, err := metrics.CoveragePercent(sys.Maps().Coverage, truthCov)
	if err != nil {
		t.Fatal(err)
	}
	if cov < 90 {
		t.Errorf("office coverage = %.1f%% after %d tasks (covered=%v)", cov, len(res.Iterations), res.Covered)
	}
	// The glass east wall requires the annotation path on this venue too.
	if res.AnnotationTasks == 0 {
		t.Error("office with a glass wall should trigger annotation tasks")
	}
}
