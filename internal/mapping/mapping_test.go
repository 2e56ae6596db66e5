package mapping

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"snaptask/internal/camera"
	"snaptask/internal/geom"
	"snaptask/internal/grid"
	"snaptask/internal/pointcloud"
)

func layout10(t *testing.T) *grid.Map {
	t.Helper()
	m, err := grid.New(geom.V2(0, 0), 0.15, 70, 70) // 10.5 x 10.5 m
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// wallCloud builds a dense point wall along y=5 from x=2..8 with `per`
// points per 15 cm cell (z spread 0.3..2.0).
func wallCloud(per int) *pointcloud.Cloud {
	c := pointcloud.NewCloud(nil)
	id := uint64(0)
	for x := 2.0; x < 8.0; x += 0.15 {
		for k := 0; k < per; k++ {
			id++
			z := 0.3 + 1.7*float64(k)/float64(per)
			c.Add(pointcloud.Point{
				Pos:       geom.V3(x+0.01, 5.05, z),
				FeatureID: id,
				Views:     3,
			})
		}
	}
	return c
}

func TestObstaclesMapThreshold(t *testing.T) {
	layout := layout10(t)
	dense := wallCloud(6)
	m, err := ObstaclesMap(dense, layout, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if m.CountPositive() == 0 {
		t.Fatal("dense wall produced no obstacle cells")
	}
	// A cell in the middle of the wall must be marked.
	if m.At(m.CellOf(geom.V2(5, 5.05))) == 0 {
		t.Error("wall centre cell not an obstacle")
	}
	// Empty floor is not.
	if m.At(m.CellOf(geom.V2(5, 2))) != 0 {
		t.Error("open floor marked as obstacle")
	}

	// Sparse cloud (below OBSTACLE_THRESHOLD=4 per column) yields nothing.
	sparse := wallCloud(2)
	m2, err := ObstaclesMap(sparse, layout, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := m2.CountPositive(); got != 0 {
		t.Errorf("sparse wall produced %d obstacle cells, want 0", got)
	}
	// With threshold 1 the sparse wall appears.
	m3, err := ObstaclesMap(sparse, layout, Config{ObstacleThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m3.CountPositive() == 0 {
		t.Error("threshold 1 should keep sparse wall")
	}
}

func TestObstaclesMapHeightBand(t *testing.T) {
	layout := layout10(t)
	c := pointcloud.NewCloud(nil)
	for i := 0; i < 10; i++ {
		// Ceiling points at z=2.9 must be excluded by the default band.
		c.Add(pointcloud.Point{Pos: geom.V3(5, 5, 2.9), FeatureID: uint64(i + 1)})
	}
	m, err := ObstaclesMap(c, layout, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if m.CountPositive() != 0 {
		t.Error("ceiling points registered as obstacles")
	}
	// Custom band including them.
	m2, err := ObstaclesMap(c, layout, Config{MinZ: 0.05, MaxZ: 3.0})
	if err != nil {
		t.Fatal(err)
	}
	if m2.CountPositive() == 0 {
		t.Error("custom band should include ceiling points")
	}
}

func TestObstaclesMapEmptyAndNil(t *testing.T) {
	layout := layout10(t)
	m, err := ObstaclesMap(pointcloud.NewCloud(nil), layout, Config{})
	if err != nil || m.CountPositive() != 0 {
		t.Errorf("empty cloud: %v, %d cells", err, m.CountPositive())
	}
	if _, err := ObstaclesMap(nil, layout, Config{}); err != nil {
		t.Errorf("nil cloud should act as empty, got %v", err)
	}
	if _, err := ObstaclesMap(pointcloud.NewCloud(nil), nil, Config{}); err == nil {
		t.Error("nil layout should error")
	}
}

func TestObstaclesMapIgnoresFarPoints(t *testing.T) {
	layout := layout10(t)
	c := pointcloud.NewCloud(nil)
	for i := 0; i < 10; i++ {
		c.Add(pointcloud.Point{Pos: geom.V3(500, 500, 1), FeatureID: uint64(i + 1)})
	}
	m, err := ObstaclesMap(c, layout, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if m.CountPositive() != 0 {
		t.Error("far points leaked into the map")
	}
}

func TestVisibilityMapOpenFloor(t *testing.T) {
	layout := layout10(t)
	obstacles := grid.NewLike(layout)
	views := []View{{
		Pose:       camera.Pose{Pos: geom.V2(5, 2), Yaw: math.Pi / 2},
		Intrinsics: camera.DefaultIntrinsics(),
	}}
	vis, aspects, err := VisibilityMap(views, obstacles, Config{})
	_ = aspects
	if err != nil {
		t.Fatal(err)
	}
	// Straight ahead is visible.
	if vis.At(vis.CellOf(geom.V2(5, 6))) == 0 {
		t.Error("cell dead ahead not visible")
	}
	// Behind the camera is not.
	if vis.At(vis.CellOf(geom.V2(5, 0.5))) != 0 {
		t.Error("cell behind camera visible")
	}
	// Beyond range (9 m) is not.
	if vis.At(vis.CellOf(geom.V2(5, 11.5))) != 0 {
		t.Error("cell beyond range visible (also out of map)")
	}
	// Far off-axis is not.
	if vis.At(vis.CellOf(geom.V2(0.5, 2))) != 0 {
		t.Error("cell at 90° off-axis visible")
	}
}

func TestVisibilityMapBlockedByObstacle(t *testing.T) {
	layout := layout10(t)
	obstacles := grid.NewLike(layout)
	// A wall across y=5, x=3..7.
	for x := 3.0; x < 7.0; x += 0.1 {
		obstacles.Set(obstacles.CellOf(geom.V2(x, 5)), 10)
	}
	views := []View{{
		Pose:       camera.Pose{Pos: geom.V2(5, 2), Yaw: math.Pi / 2},
		Intrinsics: camera.DefaultIntrinsics(),
	}}
	vis, aspects, err := VisibilityMap(views, obstacles, Config{})
	_ = aspects
	if err != nil {
		t.Fatal(err)
	}
	// In front of the wall: visible.
	if vis.At(vis.CellOf(geom.V2(5, 4))) == 0 {
		t.Error("cell before the wall not visible")
	}
	// The wall cell itself is seen (aspect coverage of the near side).
	if vis.At(vis.CellOf(geom.V2(5, 5))) == 0 {
		t.Error("wall cell itself should be covered")
	}
	// Behind the wall: shadowed.
	if vis.At(vis.CellOf(geom.V2(5, 6.5))) != 0 {
		t.Error("cell behind the wall visible")
	}
}

func TestVisibilityMapCountsCameras(t *testing.T) {
	layout := layout10(t)
	obstacles := grid.NewLike(layout)
	in := camera.DefaultIntrinsics()
	views := []View{
		{Pose: camera.Pose{Pos: geom.V2(5, 2), Yaw: math.Pi / 2}, Intrinsics: in},
		{Pose: camera.Pose{Pos: geom.V2(5, 8), Yaw: -math.Pi / 2}, Intrinsics: in},
		{Pose: camera.Pose{Pos: geom.V2(2, 5), Yaw: 0}, Intrinsics: in},
	}
	vis, aspects, err := VisibilityMap(views, obstacles, Config{})
	_ = aspects
	if err != nil {
		t.Fatal(err)
	}
	center := vis.At(vis.CellOf(geom.V2(5, 5)))
	if center != 3 {
		t.Errorf("centre covered by %d cameras, want 3", center)
	}
}

func TestVisibilityMapValidation(t *testing.T) {
	if _, _, err := VisibilityMap(nil, nil, Config{}); err == nil {
		t.Error("nil obstacles should error")
	}
	layout := layout10(t)
	bad := []View{{Pose: camera.Pose{}, Intrinsics: camera.Intrinsics{}}}
	if _, _, err := VisibilityMap(bad, grid.NewLike(layout), Config{}); err == nil {
		t.Error("invalid intrinsics should error")
	}
}

func TestBuildEndToEnd(t *testing.T) {
	layout := layout10(t)
	cloud := wallCloud(6)
	in := camera.DefaultIntrinsics()
	views := []View{
		{Pose: camera.Pose{Pos: geom.V2(5, 2), Yaw: math.Pi / 2}, Intrinsics: in},
	}
	maps, err := Build(cloud, views, layout, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if maps.Obstacles.CountPositive() == 0 {
		t.Error("no obstacles")
	}
	if maps.Visibility.CountPositive() == 0 {
		t.Error("no visibility")
	}
	// Coverage is the union: at least as big as either.
	cc := maps.CoverageCells()
	if cc < maps.Obstacles.CountPositive() || cc < maps.Visibility.CountPositive() {
		t.Error("coverage smaller than a component")
	}
	// The wall shadows the area behind it.
	if maps.Visibility.At(maps.Visibility.CellOf(geom.V2(5, 7))) != 0 {
		t.Error("area behind reconstructed wall should be shadowed")
	}
	if _, err := Build(cloud, views, nil, Config{}); err == nil {
		t.Error("nil layout should error")
	}
}

func TestCoverageHelper(t *testing.T) {
	layout := layout10(t)
	a := grid.NewLike(layout)
	b := grid.NewLike(layout)
	a.Set(grid.Cell{I: 1, J: 1}, 5)
	b.Set(grid.Cell{I: 2, J: 2}, 1)
	u, err := Coverage(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if u.CountPositive() != 2 {
		t.Errorf("union cells = %d", u.CountPositive())
	}
	other, _ := grid.New(geom.V2(0, 0), 0.15, 5, 5)
	if _, err := Coverage(a, other); err == nil {
		t.Error("mismatched layouts should error")
	}
}

// Property: visibility is monotone — adding a camera never reduces any
// cell's count.
func TestVisibilityMonotone(t *testing.T) {
	layout := layout10(t)
	obstacles := grid.NewLike(layout)
	rng := rand.New(rand.NewSource(12))
	in := camera.DefaultIntrinsics()
	var views []View
	prev := grid.NewLike(layout)
	for i := 0; i < 5; i++ {
		views = append(views, View{
			Pose:       camera.Pose{Pos: geom.V2(1+rng.Float64()*8, 1+rng.Float64()*8), Yaw: rng.Float64() * 2 * math.Pi},
			Intrinsics: in,
		})
		vis, aspects, err := VisibilityMap(views, obstacles, Config{})
		_ = aspects
		if err != nil {
			t.Fatal(err)
		}
		bad := false
		vis.Each(func(c grid.Cell, v int) {
			if v < prev.At(c) {
				bad = true
			}
		})
		if bad {
			t.Fatalf("adding camera %d reduced visibility somewhere", i)
		}
		prev = vis
	}
}

func TestAspectCoverage(t *testing.T) {
	layout := layout10(t)
	obstacles := grid.NewLike(layout)
	in := camera.DefaultIntrinsics()
	// One camera looking east: covered cells have a single aspect.
	views := []View{{Pose: camera.Pose{Pos: geom.V2(2, 5), Yaw: 0}, Intrinsics: in}}
	maps, err := Build(pointcloud.NewCloud(nil), views, layout, Config{})
	if err != nil {
		t.Fatal(err)
	}
	target := maps.Aspects.CellOf(geom.V2(6, 5))
	if got := popcount4(maps.Aspects.At(target)); got != 1 {
		t.Errorf("single view aspects = %d, want 1", got)
	}
	ac := maps.AspectCoverage()
	if ac.At(target) != 0 {
		t.Error("single-aspect cell must not count as aspect-covered")
	}
	// The camera's own cell is covered from all sides.
	own := maps.Aspects.CellOf(geom.V2(2, 5))
	if popcount4(maps.Aspects.At(own)) != 4 {
		t.Error("own cell should have all aspects")
	}
	if ac.At(own) == 0 {
		t.Error("own cell must be aspect-covered")
	}

	// Add an opposing camera: the middle cell now has two aspects.
	views = append(views, View{Pose: camera.Pose{Pos: geom.V2(10, 5), Yaw: 3.14159}, Intrinsics: in})
	maps, err = Build(pointcloud.NewCloud(nil), views, layout, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := popcount4(maps.Aspects.At(target)); got != 2 {
		t.Errorf("two opposing views aspects = %d, want 2", got)
	}
	if maps.AspectCoverage().At(target) == 0 {
		t.Error("two-aspect cell must be aspect-covered")
	}
	_ = obstacles
}

func TestAspectCoverageCountsObstacles(t *testing.T) {
	layout := layout10(t)
	maps, err := Build(wallCloud(6), nil, layout, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ac := maps.AspectCoverage()
	if ac.At(ac.CellOf(geom.V2(5, 5.05))) == 0 {
		t.Error("obstacle cells always count as covered")
	}
}

func TestQuadrantBit(t *testing.T) {
	cam := geom.V2(0, 0)
	tests := []struct {
		cell geom.Vec2
		want int
	}{
		{geom.V2(1, 0), 1 << 0},  // east
		{geom.V2(0, 1), 1 << 1},  // north
		{geom.V2(-1, 0), 1 << 2}, // west
		{geom.V2(0, -1), 1 << 3}, // south
	}
	for _, tt := range tests {
		if got := quadrantBit(cam, tt.cell); got != tt.want {
			t.Errorf("quadrantBit(->%v) = %b, want %b", tt.cell, got, tt.want)
		}
	}
	if got := quadrantBit(cam, cam); got != 0xF {
		t.Errorf("zero offset = %b, want all bits", got)
	}
}

func TestPopcount4(t *testing.T) {
	tests := []struct{ mask, want int }{
		{0, 0}, {1, 1}, {0xF, 4}, {0b1010, 2}, {0b0111, 3},
	}
	for _, tt := range tests {
		if got := popcount4(tt.mask); got != tt.want {
			t.Errorf("popcount4(%b) = %d, want %d", tt.mask, got, tt.want)
		}
	}
}

// gridsEqual compares two maps cell by cell.
func gridsEqual(a, b *grid.Map) bool {
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

func mapsEqual(a, b *Maps) bool {
	return gridsEqual(a.Obstacles, b.Obstacles) &&
		gridsEqual(a.Visibility, b.Visibility) &&
		gridsEqual(a.Aspects, b.Aspects) &&
		gridsEqual(a.Coverage, b.Coverage)
}

// TestIncrementalMatchesFull grows a scene batch by batch — new views AND a
// growing cloud that keeps flipping obstacle cells — and checks that the
// incremental builder's output is identical to a full Build at every step,
// while actually reusing cached casts once the obstacles settle.
func TestIncrementalMatchesFull(t *testing.T) {
	layout := layout10(t)
	rng := rand.New(rand.NewSource(11))
	inc, err := NewIncremental(layout, Config{})
	if err != nil {
		t.Fatal(err)
	}

	cloud := pointcloud.NewCloud(nil)
	var views []View
	id := uint64(0)
	for step := 0; step < 6; step++ {
		// Extend the wall a little (obstacle occupancy flips near it)
		// and add a few new views.
		x0 := 2.0 + float64(step)
		for x := x0; x < x0+1.0; x += 0.15 {
			for k := 0; k < 6; k++ {
				id++
				cloud.Add(pointcloud.Point{
					Pos:       geom.V3(x+0.01, 5.05, 0.3+0.28*float64(k)),
					FeatureID: id,
					Views:     3,
				})
			}
		}
		for v := 0; v < 4; v++ {
			views = append(views, View{
				Pose: camera.Pose{
					Pos: geom.V2(1+rng.Float64()*8, 1+rng.Float64()*3),
					Yaw: rng.Float64() * 2 * math.Pi,
				},
				Intrinsics: camera.DefaultIntrinsics(),
			})
		}

		got, err := inc.Update(cloud, views)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Build(cloud, views, layout, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !mapsEqual(got, want) {
			t.Fatalf("step %d: incremental maps differ from full build", step)
		}
		if len(inc.views) != len(views) {
			t.Fatalf("step %d: cached %d views, want %d", step, len(inc.views), len(views))
		}
	}

	// A second update with no changes must replay the cache exactly.
	again, err := inc.Update(cloud, views)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Build(cloud, views, layout, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !mapsEqual(again, want) {
		t.Fatal("no-op update diverged from full build")
	}

	// Invalidate forces a full recast, which must also match.
	inc.Invalidate()
	if len(inc.views) != 0 {
		t.Fatal("Invalidate left cached views behind")
	}
	full, err := inc.Update(cloud, views)
	if err != nil {
		t.Fatal(err)
	}
	if !mapsEqual(full, want) {
		t.Fatal("post-invalidate update diverged from full build")
	}
}

// TestIncrementalObstacleChangeRecast verifies the invalidation rule: an
// obstacle appearing inside a cached view's range changes that view's cast.
func TestIncrementalObstacleChangeRecast(t *testing.T) {
	layout := layout10(t)
	inc, err := NewIncremental(layout, Config{})
	if err != nil {
		t.Fatal(err)
	}
	views := []View{{
		Pose:       camera.Pose{Pos: geom.V2(5, 3), Yaw: math.Pi / 2}, // facing the future wall
		Intrinsics: camera.DefaultIntrinsics(),
	}}
	empty := pointcloud.NewCloud(nil)
	before, err := inc.Update(empty, views)
	if err != nil {
		t.Fatal(err)
	}
	// A wall at y=5 now blocks the view; the cached cast must be redone.
	after, err := inc.Update(wallCloud(6), views)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Build(wallCloud(6), views, layout, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !mapsEqual(after, want) {
		t.Fatal("recast after obstacle change diverged from full build")
	}
	if gridsEqual(before.Visibility, after.Visibility) {
		t.Fatal("obstacle change did not affect visibility — invalidation untested")
	}
}

// TestConfigExplicitZeroHeightBand covers the negative-means-zero sentinel:
// a negative MinZ/MaxZ selects an explicit 0.0 bound, which the zero value
// cannot express because 0/0 means "use the defaults". Points merge by
// voxel-centre height (0.075 m for the floor voxel at 15 cm resolution).
func TestConfigExplicitZeroHeightBand(t *testing.T) {
	layout := layout10(t)
	floor := pointcloud.NewCloud(nil)
	for i := 0; i < 8; i++ {
		floor.Add(pointcloud.Point{
			Pos:       geom.V3(5.02, 5.02, 0.01), // floor voxel, centre 0.075
			FeatureID: uint64(i + 1),
			Views:     3,
		})
	}
	raised, err := ObstaclesMap(floor, layout, Config{MinZ: 0.3, MaxZ: 2.6})
	if err != nil {
		t.Fatal(err)
	}
	if raised.CountPositive() != 0 {
		t.Fatal("MinZ=0.3 unexpectedly kept floor-voxel points")
	}
	explicit, err := ObstaclesMap(floor, layout, Config{MinZ: -1, MaxZ: 2.6})
	if err != nil {
		t.Fatal(err)
	}
	if explicit.CountPositive() == 0 {
		t.Fatal("explicit MinZ=0 (negative sentinel) dropped floor-voxel points")
	}
	// An explicit empty band (-1/-1 → 0/0) must stay empty, not be
	// re-defaulted to 0.05–2.6 — not by ObstaclesMap, and not by Build
	// passing an already-resolved config back through withDefaults.
	maps, err := Build(floor, nil, layout, Config{MinZ: -1, MaxZ: -1})
	if err != nil {
		t.Fatal(err)
	}
	if maps.Obstacles.CountPositive() != 0 {
		t.Fatal("explicit empty height band (-1/-1) was re-defaulted")
	}
}

// castOne casts one view against obstacles with a fresh scratch.
func castOne(v View, obstacles *grid.Map, step float64) []int32 {
	return newCastScratch(obstacles).cast(v, obstacles, obstacles.Occupancy(), step)
}

// expandRuns lists the cells of a cast's runs, in order.
func expandRuns(cast []int32) []int32 {
	var out []int32
	for k := 0; k+1 < len(cast); k += 2 {
		for i := cast[k]; i < cast[k+1]; i++ {
			out = append(out, i)
		}
	}
	return out
}

// castViewRef is the map-based reference cast castScratch replaced: every
// in-bounds cell a ray reaches (obstacle cells included, rays stop there)
// hashed into a set, then emitted with its viewing-quadrant mask binned by
// angle.
func castViewRef(v View, obstacles *grid.Map, step float64) map[int32]uint8 {
	covered := make(map[grid.Cell]bool)
	own := obstacles.CellOf(v.Pose.Pos)
	hasOwn := obstacles.InBounds(own)
	if hasOwn {
		covered[own] = true
	}
	for a := -v.Intrinsics.HFOV / 2; a <= v.Intrinsics.HFOV/2; a += step {
		end := v.Pose.Pos.Add(geom.UnitFromAngle(v.Pose.Yaw + a).Scale(v.Intrinsics.Range))
		blocked := false
		obstacles.RasterizeSegment(geom.Seg(v.Pose.Pos, end), func(c grid.Cell) {
			if blocked || !obstacles.InBounds(c) {
				blocked = true
				return
			}
			covered[c] = true
			if obstacles.At(c) > 0 {
				blocked = true
			}
		})
	}
	out := make(map[int32]uint8, len(covered))
	for c := range covered {
		m := uint8(quadrantAngle(obstacles.CenterOf(c).Sub(v.Pose.Pos)))
		if hasOwn && c == own {
			m = 0xF
		}
		out[int32(c.J*obstacles.Width()+c.I)] = m
	}
	return out
}

func TestCastViewMatchesMapReference(t *testing.T) {
	layout := layout10(t)
	obstacles, err := ObstaclesMap(wallCloud(6), layout, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// A pillar so rays also stop on an isolated obstacle.
	for j := 20; j < 24; j++ {
		for i := 40; i < 43; i++ {
			obstacles.Set(grid.Cell{I: i, J: j}, 9)
		}
	}
	in := camera.DefaultIntrinsics()
	rng := rand.New(rand.NewSource(5))
	views := []View{
		{Pose: camera.Pose{Pos: geom.V2(0.01, 5.2), Yaw: 0.3}, Intrinsics: in},   // on the grid edge
		{Pose: camera.Pose{Pos: geom.V2(10.49, 0.02), Yaw: 2.4}, Intrinsics: in}, // lower-right corner cell
		{Pose: camera.Pose{Pos: geom.V2(-1.5, 3), Yaw: 0.1}, Intrinsics: in},     // outside, facing in
		{Pose: camera.Pose{Pos: geom.V2(12, 12), Yaw: 0.8}, Intrinsics: in},      // outside, facing away
		{Pose: camera.Pose{Pos: geom.V2(5, 4), Yaw: math.Pi / 2}, Intrinsics: in},
	}
	for i := 0; i < 40; i++ {
		views = append(views, View{
			Pose:       camera.Pose{Pos: geom.V2(rng.Float64()*10.5, rng.Float64()*10.5), Yaw: rng.Float64() * 2 * math.Pi},
			Intrinsics: in,
		})
	}
	step := resolveRayStep(Config{}, layout.Res(), views).RayStep
	for vi, v := range views {
		cast := castOne(v, obstacles, step)
		got := expandRuns(cast)
		want := castViewRef(v, obstacles, step)
		if len(got) != len(want) {
			t.Fatalf("view %d: %d cells, want %d", vi, len(got), len(want))
		}
		own := ownCell(v, obstacles)
		seen := make(map[int32]bool, len(got))
		for _, idx := range got {
			if seen[idx] {
				t.Fatalf("view %d: cell %d emitted twice", vi, idx)
			}
			seen[idx] = true
			if m, ok := want[idx]; !ok || int(m) != castMask(v, obstacles, own, idx) {
				t.Fatalf("view %d: cell %d mask %x, reference %x (present %v)", vi, idx, castMask(v, obstacles, own, idx), m, ok)
			}
		}
		again := castOne(v, obstacles, step)
		if !reflect.DeepEqual(cast, again) {
			t.Fatalf("view %d: two casts of the same view differ", vi)
		}
	}
	// The pooled path (one reused scratch per worker) agrees with
	// independent casts, slice for slice.
	casts := castViews(views, obstacles, obstacles.Occupancy(), step)
	for vi, v := range views {
		if !reflect.DeepEqual(casts[vi], castOne(v, obstacles, step)) {
			t.Fatalf("view %d: pooled cast differs from a fresh cast", vi)
		}
	}
}

// TestQuadrantBitMatchesAngle checks the comparison-based quadrant against
// the atan2 binning where they could part: cells exactly on a diagonal,
// one ulp to either side of it, on the axes, and at random.
func TestQuadrantBitMatchesAngle(t *testing.T) {
	check := func(cam, cell geom.Vec2) {
		t.Helper()
		if got, want := quadrantBit(cam, cell), quadrantAngle(cell.Sub(cam)); got != want {
			t.Fatalf("quadrantBit(%v -> %v) = %b, atan2 bins %b", cam, cell, got, want)
		}
	}
	cams := []geom.Vec2{geom.V2(0, 0), geom.V2(3.3, -1.7), geom.V2(-0.075, 12.525)}
	for _, cam := range cams {
		for _, r := range []float64{1e-5, 0.15, 0.7, 3, 8.95} {
			for _, sx := range []float64{1, -1} {
				for _, sy := range []float64{1, -1} {
					x := sx * r
					for _, y := range []float64{sy * r, math.Nextafter(sy*r, math.Inf(1)), math.Nextafter(sy*r, math.Inf(-1))} {
						check(cam, cam.Add(geom.V2(x, y)))
						check(cam, cam.Add(geom.V2(y, x)))
					}
				}
			}
			for _, d := range []geom.Vec2{geom.V2(r, 0), geom.V2(-r, 0), geom.V2(0, r), geom.V2(0, -r)} {
				check(cam, cam.Add(d))
			}
		}
		check(cam, cam)
	}
	// Cell centres seen from a camera on a diagonal through them.
	layout := layout10(t)
	for j := 0; j < layout.Height(); j += 3 {
		for i := 0; i < layout.Width(); i += 3 {
			c := layout.CenterOf(grid.Cell{I: i, J: j})
			for _, cam := range []geom.Vec2{geom.V2(0.075, 0.075), geom.V2(5.025, 5.025), geom.V2(10.425, 0.075)} {
				check(cam, c)
			}
		}
	}
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 10000; k++ {
		check(geom.V2(rng.Float64()*10, rng.Float64()*10), geom.V2(rng.Float64()*10, rng.Float64()*10))
	}
}

// TestIncrementalRestore writes a builder's merged state, restores it into
// a fresh builder and checks that the restored builder casts nothing until
// an occupancy flip, then casts each stale restored view once against the
// restored basis and stays equal to a full build.
func TestIncrementalRestore(t *testing.T) {
	layout := layout10(t)
	rng := rand.New(rand.NewSource(13))
	var views []View
	for v := 0; v < 12; v++ {
		views = append(views, View{
			Pose:       camera.Pose{Pos: geom.V2(1+rng.Float64()*8, 1+rng.Float64()*3), Yaw: rng.Float64() * 2 * math.Pi},
			Intrinsics: camera.DefaultIntrinsics(),
		})
	}
	live, err := NewIncremental(layout, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cloud := wallCloud(6)
	if _, err := live.Update(cloud, views); err != nil {
		t.Fatal(err)
	}
	if !live.Holds(len(views)) {
		t.Fatal("builder does not hold the views it built")
	}
	state := live.AppendState(nil)

	restored, err := NewIncremental(layout, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(views, state); err != nil {
		t.Fatal(err)
	}
	got, err := restored.Update(cloud, views)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Build(cloud, views, layout, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !mapsEqual(got, want) {
		t.Fatal("restored maps differ from a full build")
	}
	if c := restored.Casts(); c != (CastCounts{}) {
		t.Fatalf("restore cast %+v; want nothing", c)
	}
	if !reflect.DeepEqual(restored.AppendState(nil), state) {
		t.Fatal("restored state does not write back identically")
	}

	// A pillar appearing among the views makes some of them stale.
	grown := wallCloud(6)
	id := uint64(1 << 20)
	for k := 0; k < 8; k++ {
		id++
		grown.Add(pointcloud.Point{Pos: geom.V3(5.02, 3.52, 0.3+0.2*float64(k)), FeatureID: id, Views: 3})
	}
	views = append(views, View{Pose: camera.Pose{Pos: geom.V2(2, 2), Yaw: 0.4}, Intrinsics: camera.DefaultIntrinsics()})
	for _, b := range []*Incremental{restored, live} {
		if got, err = b.Update(grown, views); err != nil {
			t.Fatal(err)
		}
	}
	if want, err = Build(grown, views, layout, Config{}); err != nil {
		t.Fatal(err)
	}
	if !mapsEqual(got, want) {
		t.Fatal("restored builder diverged from a full build after an occupancy flip")
	}
	c := restored.Casts()
	if c.Stale == 0 || c.Restored != c.Stale || c.New != 1 {
		t.Fatalf("casts after the flip %+v; want every stale view restored-cast once and one new view", c)
	}
	if !reflect.DeepEqual(restored.AppendState(nil), live.AppendState(nil)) {
		t.Fatal("restored and live builders hold different state")
	}

	if err := restored.Restore(views, state[:len(state)-1]); err == nil {
		t.Error("truncated state accepted")
	}
	other, _ := NewIncremental(layout, Config{})
	if err := other.Restore(views[:12], state); err != nil {
		t.Fatal(err)
	}
	if _, err := other.Update(grown, views[:12]); err == nil || !strings.Contains(err.Error(), "occupancy") {
		t.Errorf("restore against other obstacles: err = %v, want an occupancy mismatch", err)
	}
}
