// Package snaptask's root benchmark harness: one benchmark per table and
// figure of the paper's evaluation (scaled to benchmark-friendly venues —
// the full library numbers come from cmd/snaptask-bench), plus
// micro-benchmarks of every substrate on the hot path.
package snaptask

import (
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"snaptask/internal/annotation"
	"snaptask/internal/camera"
	"snaptask/internal/cluster"
	"snaptask/internal/core"
	"snaptask/internal/crowd"
	"snaptask/internal/experiments"
	"snaptask/internal/geom"
	"snaptask/internal/grid"
	"snaptask/internal/imaging"
	"snaptask/internal/mapping"
	"snaptask/internal/metrics"
	"snaptask/internal/nav"
	"snaptask/internal/pointcloud"
	"snaptask/internal/sfm"
	"snaptask/internal/taskgen"
	"snaptask/internal/telemetry"
	"snaptask/internal/telemetry/slo"
	"snaptask/internal/venue"
)

// benchSetup prepares the small-room experiment state shared by the
// figure-level benchmarks.
func benchSetup(b *testing.B) *experiments.Setup {
	b.Helper()
	v, err := venue.SmallRoom()
	if err != nil {
		b.Fatal(err)
	}
	setup, err := experiments.NewSetup(v, 1, core.Config{Margin: 3})
	if err != nil {
		b.Fatal(err)
	}
	return setup
}

// BenchmarkFig10GuidedLoop regenerates the Figure 10 experiment: the full
// guided loop from bootstrap to declared coverage.
func BenchmarkFig10GuidedLoop(b *testing.B) {
	setup := benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := setup.RunGuided(int64(i+2), experiments.GuidedOptions{MaxTasks: 50})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Covered {
			b.Fatal("loop did not converge")
		}
	}
}

// BenchmarkFig11Unguided regenerates the Figure 11a/11b unguided series:
// dataset build plus incremental evaluation.
func BenchmarkFig11Unguided(b *testing.B) {
	setup := benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		photos, err := setup.BuildUnguided(int64(i+3), 300)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := setup.EvaluateIncremental(photos, 100, int64(i+4)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11Opportunistic regenerates the Figure 11a/11b opportunistic
// series.
func BenchmarkFig11Opportunistic(b *testing.B) {
	setup := benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		photos, _, err := setup.BuildOpportunistic(int64(i+5), 15, 300)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := setup.EvaluateIncremental(photos, 100, int64(i+6)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12Render regenerates the Figure 12 map rendering.
func BenchmarkFig12Render(b *testing.B) {
	setup := benchSetup(b)
	res, err := setup.RunGuided(9, experiments.GuidedOptions{MaxTasks: 50})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := metrics.RenderASCII(res.FinalMaps.Obstacles, res.FinalMaps.Visibility, setup.TruthCov); err != nil {
			b.Fatal(err)
		}
	}
}

// glassRoomWorld builds the Table I benchmark scene.
func glassRoomWorld(b *testing.B) (*venue.Venue, *camera.World) {
	b.Helper()
	bld := venue.NewBuilder("bench-glass", geom.Rect(geom.V2(0, 0), geom.V2(12, 10)), 3.0)
	bld.WallMaterial(1, venue.Glass)
	bld.Entrance(0, 0.1, 0.2)
	bld.Obstacle("shelf", geom.Rect(geom.V2(8, 1), geom.V2(11, 1.6)), 2.0, venue.Wood, 10)
	bld.Obstacle("shelf2", geom.Rect(geom.V2(8, 8.4), geom.V2(11, 9)), 2.0, venue.Wood, 10)
	v, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	return v, camera.NewWorld(v, v.GenerateFeatures(rand.New(rand.NewSource(1))))
}

// BenchmarkTable1Featureless regenerates the Table I experiment: the whole
// annotation pipeline for one featureless surface.
func BenchmarkTable1Featureless(b *testing.B) {
	v, world := glassRoomWorld(b)
	rng := rand.New(rand.NewSource(2))
	seed := sfm.NewModel(sfm.Config{}, world.Features())
	for _, pos := range []geom.Vec2{{X: 9.5, Y: 5}, {X: 7, Y: 5}} {
		photos, err := world.Sweep(pos, camera.DefaultIntrinsics(), camera.CaptureOptions{}, rng)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := seed.RegisterBatch(photos, rng); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		task, err := annotation.CollectPhotos(world, v, geom.V2(10.5, 5), camera.DefaultIntrinsics(), rng)
		if err != nil {
			b.Fatal(err)
		}
		anns, err := annotation.SimulateWorkers(task, v, annotation.WorkerOptions{Workers: 15}, rng)
		if err != nil {
			b.Fatal(err)
		}
		bounds, err := annotation.MarkedObstacleBounds(anns, len(task.Photos), annotation.BoundsConfig{}, rng)
		if err != nil {
			b.Fatal(err)
		}
		nextID := annotation.ArtificialIDBase + uint64(i*10000)
		if _, err := annotation.Reconstruct(seed, world, task, bounds,
			imaging.TextureDB{}, annotation.ReconConfig{}, &nextID, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8OpportunisticPaths regenerates the Figure 8 trip
// generation.
func BenchmarkFig8OpportunisticPaths(b *testing.B) {
	setup := benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := setup.BuildOpportunistic(int64(i+7), 15, 200); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9TaskGeneration regenerates the Figure 9 task placement: one
// Algorithm 1 iteration over half-covered maps.
func BenchmarkFig9TaskGeneration(b *testing.B) {
	ob, err := grid.New(geom.V2(0, 0), 0.15, 200, 120)
	if err != nil {
		b.Fatal(err)
	}
	vis := grid.NewLike(ob)
	// Cover the left half with 4 views.
	vis.Each(func(c grid.Cell, _ int) {
		if c.I < 100 {
			vis.Set(c, 4)
		}
	})
	gen := taskgen.NewGenerator(taskgen.Config{})
	in := taskgen.StepInput{
		Obstacles:         ob,
		Visibility:        vis,
		Start:             geom.V2(1, 1),
		BatchRegistered:   true,
		CoverageIncreased: true,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := gen.Step(in)
		if err != nil {
			b.Fatal(err)
		}
		if len(out.Tasks) == 0 {
			b.Fatal("no task")
		}
	}
}

// ---- substrate micro-benchmarks ----

func BenchmarkCameraCapture(b *testing.B) {
	v, err := venue.Library()
	if err != nil {
		b.Fatal(err)
	}
	world := camera.NewWorld(v, v.GenerateFeatures(rand.New(rand.NewSource(1))))
	rng := rand.New(rand.NewSource(2))
	pose := camera.Pose{Pos: geom.V2(12, 7), Yaw: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := world.Capture(pose, camera.DefaultIntrinsics(), camera.CaptureOptions{}, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSfMRegisterSweep(b *testing.B) {
	v, err := venue.Library()
	if err != nil {
		b.Fatal(err)
	}
	world := camera.NewWorld(v, v.GenerateFeatures(rand.New(rand.NewSource(1))))
	rng := rand.New(rand.NewSource(2))
	photos, err := world.Sweep(geom.V2(12, 7), camera.DefaultIntrinsics(), camera.CaptureOptions{}, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model := sfm.NewModel(sfm.Config{}, world.Features())
		if _, err := model.RegisterBatch(photos, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkObstaclesMap(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	cloud := pointcloud.NewCloud(nil)
	for i := 0; i < 20000; i++ {
		cloud.Add(pointcloud.Point{
			Pos:       geom.V3(rng.Float64()*25, rng.Float64()*14, rng.Float64()*2.5),
			FeatureID: uint64(i + 1),
		})
	}
	layout, err := grid.New(geom.V2(0, 0), 0.15, 180, 100)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mapping.ObstaclesMap(cloud, layout, mapping.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVisibilityMap(b *testing.B) {
	layout, err := grid.New(geom.V2(0, 0), 0.15, 180, 100)
	if err != nil {
		b.Fatal(err)
	}
	obstacles := grid.NewLike(layout)
	for x := 0.0; x < 27; x += 0.1 {
		obstacles.Set(obstacles.CellOf(geom.V2(x, 7)), 5)
	}
	var views []mapping.View
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 45; i++ {
		views = append(views, mapping.View{
			Pose:       camera.Pose{Pos: geom.V2(5+rng.Float64()*15, 2+rng.Float64()*4), Yaw: rng.Float64() * 6.28},
			Intrinsics: camera.DefaultIntrinsics(),
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := mapping.VisibilityMap(views, obstacles, mapping.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFindUnvisited(b *testing.B) {
	ob, err := grid.New(geom.V2(0, 0), 0.15, 200, 120)
	if err != nil {
		b.Fatal(err)
	}
	vis := grid.NewLike(ob)
	vis.Each(func(c grid.Cell, _ int) {
		if (c.I/40+c.J/40)%2 == 0 {
			vis.Set(c, 5)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := taskgen.FindUnvisited(ob, vis, geom.V2(1, 1), taskgen.Config{}, 4); len(got) == 0 {
			b.Fatal("no regions")
		}
	}
}

func BenchmarkSOR(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	cloud := pointcloud.NewCloud(nil)
	for i := 0; i < 5000; i++ {
		cloud.Add(pointcloud.Point{Pos: geom.V3(rng.Float64()*20, rng.Float64()*12, rng.Float64()*3)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := pointcloud.StatisticalOutlierRemoval(cloud, pointcloud.SOROptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDBSCAN(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	var pts []geom.Vec2
	for i := 0; i < 600; i++ {
		center := geom.V2(float64(i%4), float64(i%3))
		pts = append(pts, center.Add(geom.V2(rng.NormFloat64()*0.05, rng.NormFloat64()*0.05)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.DBSCAN(pts, 0.2, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKMeans(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	var pts []geom.Vec2
	for i := 0; i < 240; i++ {
		corner := geom.V2(float64(i%2), float64((i/2)%2))
		pts = append(pts, corner.Add(geom.V2(rng.NormFloat64()*0.03, rng.NormFloat64()*0.03)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.KMeans(pts, 4, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLaplacianVariance(b *testing.B) {
	img, err := imaging.NewGray(48, 48)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	img.AddNoise(rng, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if img.LaplacianVariance() < 0 {
			b.Fatal("negative variance")
		}
	}
}

func BenchmarkAStar(b *testing.B) {
	v, err := venue.Library()
	if err != nil {
		b.Fatal(err)
	}
	gt, err := v.GroundTruth(0.15)
	if err != nil {
		b.Fatal(err)
	}
	walk := v.WalkMap(gt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nav.PlanPath(walk, geom.V2(1.75, 1.2), geom.V2(23, 13)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGuidedSweep(b *testing.B) {
	v, err := venue.Library()
	if err != nil {
		b.Fatal(err)
	}
	world := camera.NewWorld(v, v.GenerateFeatures(rand.New(rand.NewSource(1))))
	gt, err := v.GroundTruth(0.15)
	if err != nil {
		b.Fatal(err)
	}
	walk := v.WalkMap(gt)
	rng := rand.New(rand.NewSource(9))
	worker := &crowd.GuidedWorker{
		World:      world,
		Venue:      v,
		Intrinsics: camera.DefaultIntrinsics(),
		Pos:        v.Entrance(),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		worker.Pos = v.Entrance()
		if _, err := worker.DoPhotoTask(walk, geom.V2(12.8, 6.5), rng); err != nil {
			b.Fatal(err)
		}
	}
}

// benchIngest measures one owner-path photo-batch ingest per iteration on a
// bootstrapped small-room system — bare or carrying the full observability
// bundle (tracer, metrics, request/trace IDs, SLO tracker). The pair backs
// the instrumented-ingest overhead budget in EXPERIMENTS.md; CI smokes both
// at -benchtime=1x and cmd/snaptask-bench -exp overhead gates the ratio.
func benchIngest(b *testing.B, instrumented bool) {
	v, err := venue.SmallRoom()
	if err != nil {
		b.Fatal(err)
	}
	world := camera.NewWorld(v, v.GenerateFeatures(rand.New(rand.NewSource(1))))
	sys, err := core.NewSystem(v, world, core.Config{Margin: 3})
	if err != nil {
		b.Fatal(err)
	}
	var sloT *slo.Tracker
	if instrumented {
		quiet, err := telemetry.NewLogger(io.Discard, "error", "text")
		if err != nil {
			b.Fatal(err)
		}
		tel := telemetry.New(quiet, 64)
		sys.SetTelemetry(tel)
		sloT = slo.New(tel.Registry)
	}
	rng := rand.New(rand.NewSource(2))
	boot, err := core.BootstrapCapture(world, v, camera.DefaultIntrinsics(), rng)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sys.ProcessBootstrap(boot, rng); err != nil {
		b.Fatal(err)
	}
	var free []geom.Vec2
	bounds := v.Bounds()
	for y := bounds.Min.Y + 0.7; y < bounds.Max.Y; y += 1.1 {
		for x := bounds.Min.X + 0.7; x < bounds.Max.X; x += 1.1 {
			if p := geom.V2(x, y); !v.Blocked(p) {
				free = append(free, p)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pos := free[i%len(free)]
		photos, err := world.Sweep(pos, camera.DefaultIntrinsics(), camera.CaptureOptions{}, rng)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if instrumented {
			sys.SetAttribution(core.Attribution{RequestID: telemetry.NewRequestID(),
				Trace: telemetry.NewTraceContext()})
		}
		t0 := time.Now()
		if _, err := sys.ProcessPhotoBatch(pos, pos, photos, rng); err != nil {
			b.Fatal(err)
		}
		if sloT != nil {
			sloT.Record("upload", time.Since(t0), false)
		}
	}
}

func BenchmarkIngestBare(b *testing.B)         { benchIngest(b, false) }
func BenchmarkIngestInstrumented(b *testing.B) { benchIngest(b, true) }

// rebuildScene builds the synthetic rebuild-benchmark inputs: the
// BenchmarkVisibilityMap wall scene as a point cloud (so ObstaclesMap
// reconstructs the wall) plus n camera views scattered south of it.
func rebuildScene(b *testing.B, n int) (*pointcloud.Cloud, []mapping.View, *grid.Map) {
	b.Helper()
	layout, err := grid.New(geom.V2(0, 0), 0.15, 180, 100)
	if err != nil {
		b.Fatal(err)
	}
	cloud := pointcloud.NewCloud(nil)
	id := uint64(1)
	for x := 0.0; x < 27; x += 0.05 {
		for _, z := range []float64{0.4, 0.9, 1.4, 1.9, 2.3} {
			cloud.Add(pointcloud.Point{Pos: geom.V3(x, 7, z), FeatureID: id})
			id++
		}
	}
	rng := rand.New(rand.NewSource(4))
	views := make([]mapping.View, n)
	for i := range views {
		views[i] = mapping.View{
			Pose:       camera.Pose{Pos: geom.V2(5+rng.Float64()*15, 2+rng.Float64()*4), Yaw: rng.Float64() * 6.28},
			Intrinsics: camera.DefaultIntrinsics(),
		}
	}
	return cloud, views, layout
}

// BenchmarkRebuildFull measures a from-scratch mapping.Build at growing view
// counts: the cost every batch paid before the incremental builder.
func BenchmarkRebuildFull(b *testing.B) {
	for _, n := range []int{100, 500, 1000} {
		b.Run(fmt.Sprintf("views=%d", n), func(b *testing.B) {
			cloud, views, layout := rebuildScene(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mapping.Build(cloud, views, layout, mapping.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRebuildIncremental measures the same rebuild through the
// incremental builder with a warm cache: one batch lands 45 new views on top
// of n-45 cached ones, the shape of every post-bootstrap rebuild. Only the
// Update call is timed.
func BenchmarkRebuildIncremental(b *testing.B) {
	for _, n := range []int{100, 500, 1000} {
		b.Run(fmt.Sprintf("views=%d", n), func(b *testing.B) {
			cloud, views, layout := rebuildScene(b, n)
			warm := views[:n-45]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				inc, err := mapping.NewIncremental(layout, mapping.Config{})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := inc.Update(cloud, warm); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := inc.Update(cloud, views); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
