package mapping

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"snaptask/internal/camera"
	"snaptask/internal/geom"
	"snaptask/internal/grid"
	"snaptask/internal/pointcloud"
)

// pillarCloud adds n square pillars of one to three cells at random places
// on the layout, each with enough points per cell to be an obstacle.
func pillarCloud(cloud *pointcloud.Cloud, layout *grid.Map, rng *rand.Rand, n int, id *uint64) {
	res := layout.Res()
	for p := 0; p < n; p++ {
		i0, j0 := rng.Intn(layout.Width()), rng.Intn(layout.Height())
		side := 1 + rng.Intn(3)
		for i := i0; i < i0+side; i++ {
			for j := j0; j < j0+side; j++ {
				c := layout.CenterOf(grid.Cell{I: i, J: j})
				for k := 0; k < 5; k++ {
					*id++
					cloud.Add(pointcloud.Point{
						Pos:       geom.V3(c.X+0.2*res*rng.Float64(), c.Y-0.2*res*rng.Float64(), 0.3+0.3*float64(k)),
						FeatureID: *id,
						Views:     3,
					})
				}
			}
		}
	}
}

// randomViews returns views inside the layout, on its edges and corners,
// and outside it facing in or away, each with a random field of view.
func randomViews(layout *grid.Map, rng *rand.Rand, n int) []View {
	b := layout.Bounds()
	wd, ht := b.Max.X-b.Min.X, b.Max.Y-b.Min.Y
	var views []View
	for len(views) < n {
		var pos geom.Vec2
		switch rng.Intn(5) {
		case 0: // on an edge
			if rng.Intn(2) == 0 {
				pos = geom.V2(b.Min.X+[]float64{0.001, wd - 0.001}[rng.Intn(2)], b.Min.Y+rng.Float64()*ht)
			} else {
				pos = geom.V2(b.Min.X+rng.Float64()*wd, b.Min.Y+[]float64{0.001, ht - 0.001}[rng.Intn(2)])
			}
		case 1: // in a corner cell
			pos = geom.V2(b.Min.X+[]float64{0.02, wd - 0.02}[rng.Intn(2)], b.Min.Y+[]float64{0.02, ht - 0.02}[rng.Intn(2)])
		case 2: // outside, anywhere up to 3 m off the layout
			pos = geom.V2(b.Min.X-3+rng.Float64()*(wd+6), b.Min.Y-3+rng.Float64()*(ht+6))
			if layout.InBounds(layout.CellOf(pos)) {
				pos.X = b.Min.X - 0.5
			}
		default:
			pos = geom.V2(b.Min.X+rng.Float64()*wd, b.Min.Y+rng.Float64()*ht)
		}
		in := camera.DefaultIntrinsics()
		in.HFOV = 0.3 + rng.Float64()*2
		views = append(views, View{Pose: camera.Pose{Pos: pos, Yaw: rng.Float64() * 2 * math.Pi}, Intrinsics: in})
	}
	return views
}

// checkRuns checks a cast's run form against the reference cast: runs are
// non-empty, strictly increasing and never adjacent, lie on the layout,
// and expand to exactly the reference cells with the reference masks.
func checkRuns(t *testing.T, v View, obstacles *grid.Map, step float64, cast []int32) {
	t.Helper()
	if cast == nil {
		t.Fatalf("view %+v: nil cast", v.Pose)
	}
	if len(cast)%2 != 0 {
		t.Fatalf("view %+v: odd cast length %d", v.Pose, len(cast))
	}
	for k := 0; k < len(cast); k += 2 {
		if cast[k] >= cast[k+1] {
			t.Fatalf("view %+v: empty run [%d, %d)", v.Pose, cast[k], cast[k+1])
		}
		if k > 0 && cast[k] <= cast[k-1] {
			t.Fatalf("view %+v: run at %d starts at or before the previous end %d", v.Pose, cast[k], cast[k-1])
		}
	}
	if n := len(cast); n > 0 && (cast[0] < 0 || int(cast[n-1]) > obstacles.Width()*obstacles.Height()) {
		t.Fatalf("view %+v: runs %d..%d leave the layout", v.Pose, cast[0], cast[n-1])
	}
	want := castViewRef(v, obstacles, step)
	cells := expandRuns(cast)
	if len(cells) != len(want) {
		t.Fatalf("view %+v: %d cells, reference %d", v.Pose, len(cells), len(want))
	}
	own := ownCell(v, obstacles)
	for _, i := range cells {
		if m, ok := want[i]; !ok || int(m) != castMask(v, obstacles, own, i) {
			t.Fatalf("view %+v: cell %d mask %x, reference %x (present %v)", v.Pose, i, castMask(v, obstacles, own, i), m, ok)
		}
	}
}

// TestCastRunsRandomized checks the run form of casts over random pillars
// and views, and that a builder restored from those casts' counts follows
// occupancy flips exactly as a full visibility map does.
func TestCastRunsRandomized(t *testing.T) {
	layout := layout10(t)
	restoredCasts := 0
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var id uint64
		cloud := pointcloud.NewCloud(nil)
		pillarCloud(cloud, layout, rng, 10, &id)
		obstacles, err := ObstaclesMap(cloud, layout, Config{})
		if err != nil {
			t.Fatal(err)
		}
		views := randomViews(layout, rng, 40)
		// Outside the layout and facing away: a cast that covers no cell.
		views = append(views, View{Pose: camera.Pose{Pos: geom.V2(12, 12), Yaw: 0.8}, Intrinsics: camera.DefaultIntrinsics()})
		step := resolveRayStep(Config{}, layout.Res(), views).RayStep
		casts := castViews(views, layout, obstacles.Occupancy(), step)
		for k, v := range views {
			checkRuns(t, v, obstacles, step, casts[k])
			if !reflect.DeepEqual(casts[k], castOne(v, obstacles, step)) {
				t.Fatalf("seed %d view %d: pooled cast differs from a fresh cast", seed, k)
			}
		}
		if last := casts[len(casts)-1]; last == nil || len(last) != 0 {
			t.Fatalf("seed %d: view facing away from the layout cast %v, want an empty non-nil cast", seed, last)
		}

		// Restore half the views from their counts and adopt them, then
		// flip occupancy: dropping every third point clears some pillar
		// cells, and new pillars appear.
		half := len(views) / 2
		live, _ := NewIncremental(layout, Config{})
		if _, err := live.Update(cloud, views[:half]); err != nil {
			t.Fatal(err)
		}
		restored, _ := NewIncremental(layout, Config{})
		if err := restored.Restore(views[:half], live.AppendState(nil)); err != nil {
			t.Fatal(err)
		}
		if _, err := restored.Update(cloud, views[:half]); err != nil {
			t.Fatal(err)
		}
		grown := pointcloud.NewCloud(nil)
		cloud.Each(func(p pointcloud.Point) {
			if p.FeatureID%3 != 0 {
				grown.Add(p)
			}
		})
		pillarCloud(grown, layout, rng, 6, &id)
		got, err := restored.Update(grown, views)
		if err != nil {
			t.Fatal(err)
		}
		flipped, err := ObstaclesMap(grown, layout, Config{})
		if err != nil {
			t.Fatal(err)
		}
		vis, aspects, err := VisibilityMap(views, flipped, resolveRayStep(Config{}, layout.Res(), views))
		if err != nil {
			t.Fatal(err)
		}
		if !gridsEqual(got.Visibility, vis) || !gridsEqual(got.Aspects, aspects) {
			t.Fatalf("seed %d: restored builder after occupancy flips differs from VisibilityMap", seed)
		}
		restoredCasts += restored.Casts().Restored
	}
	if restoredCasts == 0 {
		t.Fatal("no restored view went stale; the restore path is untested")
	}
}

// TestCastRunsMergeAcrossRows checks that runs touching across a row end
// are one run: a camera seeing its whole small layout casts one run.
func TestCastRunsMergeAcrossRows(t *testing.T) {
	layout, err := grid.New(geom.V2(0, 0), 0.15, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	in := camera.Intrinsics{HFOV: 2 * math.Pi, Range: 3}
	v := View{Pose: camera.Pose{Pos: geom.V2(0.38, 0.31)}, Intrinsics: in}
	got := castOne(v, layout, 0.01)
	if want := []int32{0, 20}; !reflect.DeepEqual(got, want) {
		t.Fatalf("cast %v, want %v", got, want)
	}
}
