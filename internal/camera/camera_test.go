package camera

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"snaptask/internal/geom"
	"snaptask/internal/venue"
)

// testWorld builds a 10x10 room whose walls carry no features, plus
// hand-placed features so each test controls visibility exactly.
func testWorld(t *testing.T, features []venue.Feature, obstacles ...func(b *venue.Builder)) *World {
	t.Helper()
	b := venue.NewBuilder("cam-test", geom.Rect(geom.V2(0, 0), geom.V2(10, 10)), 3.0)
	b.Entrance(0, 0.1, 0.2)
	for _, add := range obstacles {
		add(b)
	}
	v, err := b.Build()
	if err != nil {
		t.Fatalf("build venue: %v", err)
	}
	return NewWorld(v, features)
}

func feat(id uint64, x, y, z float64) venue.Feature {
	return venue.Feature{ID: id, Pos: geom.V3(x, y, z)}
}

func sees(t *testing.T, w *World, pose Pose, id uint64) bool {
	t.Helper()
	photo, err := w.Capture(pose, DefaultIntrinsics(), CaptureOptions{DetectProb: 1}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	for _, o := range photo.Obs {
		if o.FeatureID == id {
			return true
		}
	}
	return false
}

func TestIntrinsicsValidate(t *testing.T) {
	good := DefaultIntrinsics()
	if err := good.Validate(); err != nil {
		t.Fatalf("default intrinsics invalid: %v", err)
	}
	bad := []Intrinsics{
		{HFOV: 0, VFOV: 1, Range: 5, EyeHeight: 1.4},
		{HFOV: 1, VFOV: 4, Range: 5, EyeHeight: 1.4},
		{HFOV: 1, VFOV: 1, Range: 0, EyeHeight: 1.4},
		{HFOV: 1, VFOV: 1, Range: 5, MinRange: 6, EyeHeight: 1.4},
		{HFOV: 1, VFOV: 1, Range: 5, EyeHeight: 0},
	}
	for i, in := range bad {
		if err := in.Validate(); err == nil {
			t.Errorf("bad intrinsics %d accepted", i)
		}
	}
}

func TestObserveInFrontOfCamera(t *testing.T) {
	w := testWorld(t, []venue.Feature{feat(1, 5, 5, 1.4)})
	if !sees(t, w, Pose{Pos: geom.V2(2, 5), Yaw: 0}, 1) {
		t.Error("feature straight ahead not observed")
	}
	if sees(t, w, Pose{Pos: geom.V2(2, 5), Yaw: math.Pi}, 1) {
		t.Error("feature behind the camera observed")
	}
}

func TestObserveFOVLimits(t *testing.T) {
	// Features at ±45° are outside the 65° HFOV (half-angle 32.5°).
	w := testWorld(t, []venue.Feature{
		feat(1, 5, 5, 1.4), // dead ahead from (2,5) facing +x
		feat(2, 5, 8, 1.4), // 45° left
	})
	pose := Pose{Pos: geom.V2(2, 5), Yaw: 0}
	if !sees(t, w, pose, 1) {
		t.Error("central feature missed")
	}
	if sees(t, w, pose, 2) {
		t.Error("feature outside HFOV observed")
	}
	// Vertical FOV: a ceiling feature right above the view direction at
	// short range exceeds the 50° VFOV.
	w2 := testWorld(t, []venue.Feature{feat(3, 3, 5, 2.9)})
	if sees(t, w2, pose, 3) {
		t.Error("ceiling feature inside VFOV at 1 m? should be outside")
	}
	// The same height is visible from farther away.
	if !sees(t, w2, Pose{Pos: geom.V2(8.9, 5), Yaw: math.Pi}, 3) {
		t.Error("high feature at distance should enter VFOV")
	}
}

func TestObserveRangeLimits(t *testing.T) {
	w := testWorld(t, []venue.Feature{
		feat(1, 9.5, 5, 1.4),  // beyond 9 m from (0.4,5)
		feat(2, 0.55, 5, 1.4), // too close (0.15 m)
	})
	pose := Pose{Pos: geom.V2(0.4, 5), Yaw: 0}
	if sees(t, w, pose, 1) {
		t.Error("feature beyond range observed")
	}
	if sees(t, w, pose, 2) {
		t.Error("feature inside min range observed")
	}
}

func TestOcclusionByWall(t *testing.T) {
	wall := func(b *venue.Builder) {
		b.Obstacle("divider", geom.Rect(geom.V2(4, 3), geom.V2(4.2, 7)), 2.5, venue.Wood, 0)
	}
	w := testWorld(t, []venue.Feature{feat(1, 7, 5, 1.4)}, wall)
	if sees(t, w, Pose{Pos: geom.V2(1, 5), Yaw: 0}, 1) {
		t.Error("feature observed through an opaque wall")
	}
	// From the other side it is visible.
	if !sees(t, w, Pose{Pos: geom.V2(9, 5), Yaw: math.Pi}, 1) {
		t.Error("feature missed with clear line of sight")
	}
}

func TestSightPassesOverLowFurniture(t *testing.T) {
	table := func(b *venue.Builder) {
		b.Obstacle("table", geom.Rect(geom.V2(4, 4), geom.V2(5, 6)), 0.75, venue.Wood, 0)
	}
	w := testWorld(t, []venue.Feature{feat(1, 7, 5, 1.4)}, table)
	if !sees(t, w, Pose{Pos: geom.V2(1, 5), Yaw: 0}, 1) {
		t.Error("eye-level sight blocked by a 0.75 m table")
	}
	// A floor-level feature behind the table IS blocked.
	w2 := testWorld(t, []venue.Feature{feat(2, 7, 5, 0.2)}, table)
	if sees(t, w2, Pose{Pos: geom.V2(1, 5), Yaw: 0}, 2) {
		t.Error("floor-level feature seen through a table")
	}
}

func TestSightThroughGlass(t *testing.T) {
	glass := func(b *venue.Builder) {
		b.Obstacle("glass-divider", geom.Rect(geom.V2(4, 3), geom.V2(4.1, 7)), 2.5, venue.Glass, 0)
	}
	w := testWorld(t, []venue.Feature{feat(1, 7, 5, 1.4)}, glass)
	if !sees(t, w, Pose{Pos: geom.V2(1, 5), Yaw: 0}, 1) {
		t.Error("sight blocked by transparent glass")
	}
}

func TestGrazingIncidenceRejected(t *testing.T) {
	// A feature whose surface normal is nearly parallel to the viewing
	// direction (seen edge-on).
	f := venue.Feature{ID: 1, Pos: geom.V3(5, 5, 1.4), Normal: geom.V2(0, 1), SurfaceID: 1}
	w := testWorld(t, []venue.Feature{f})
	// Viewing along +x; the normal (0,1) is perpendicular → |dot| ≈ 0.
	if sees(t, w, Pose{Pos: geom.V2(1, 5), Yaw: 0}, 1) {
		t.Error("edge-on surface feature observed")
	}
	// Viewing face-on from below (+y direction → dot = ±1).
	if !sees(t, w, Pose{Pos: geom.V2(5, 2), Yaw: math.Pi / 2}, 1) {
		t.Error("face-on surface feature missed")
	}
}

func TestMotionBlurDegradesPhoto(t *testing.T) {
	var feats []venue.Feature
	for i := uint64(1); i <= 200; i++ {
		feats = append(feats, feat(i, 5+math.Cos(float64(i))*2, 5+math.Sin(float64(i))*2, 1.0+math.Mod(float64(i), 10)/10))
	}
	w := testWorld(t, feats)
	pose := Pose{Pos: geom.V2(1, 5), Yaw: 0}
	sharp, err := w.Capture(pose, DefaultIntrinsics(), CaptureOptions{DetectProb: 1}, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	blurry, err := w.Capture(pose, DefaultIntrinsics(), CaptureOptions{DetectProb: 1, MotionBlurLen: 12}, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if len(blurry.Obs) >= len(sharp.Obs) {
		t.Errorf("blur kept %d of %d features", len(blurry.Obs), len(sharp.Obs))
	}
	if blurry.Sharpness >= sharp.Sharpness {
		t.Errorf("blurry sharpness %v >= sharp %v", blurry.Sharpness, sharp.Sharpness)
	}
}

func TestCaptureDeterministic(t *testing.T) {
	v, err := venue.Library()
	if err != nil {
		t.Fatal(err)
	}
	feats := v.GenerateFeatures(rand.New(rand.NewSource(7)))
	w := NewWorld(v, feats)
	pose := Pose{Pos: v.Entrance(), Yaw: math.Pi / 2}
	a, err := w.Capture(pose, DefaultIntrinsics(), CaptureOptions{}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.Capture(pose, DefaultIntrinsics(), CaptureOptions{}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Obs) != len(b.Obs) || a.Sharpness != b.Sharpness {
		t.Fatal("capture not deterministic")
	}
}

func TestSweep(t *testing.T) {
	v, err := venue.Library()
	if err != nil {
		t.Fatal(err)
	}
	feats := v.GenerateFeatures(rand.New(rand.NewSource(7)))
	w := NewWorld(v, feats)
	photos, err := w.Sweep(geom.V2(12.8, 2.5), DefaultIntrinsics(), CaptureOptions{}, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if len(photos) != 45 {
		t.Fatalf("sweep produced %d photos, want 45 (360/8)", len(photos))
	}
	// Yaws must cover the full circle.
	if photos[0].Pose.Yaw != 0 {
		t.Error("first sweep photo should face yaw 0")
	}
	total := 0
	for _, p := range photos {
		total += len(p.Obs)
	}
	if total < 200 {
		t.Errorf("sweep in a feature-rich library observed only %d features", total)
	}
}

func TestCaptureInvalidIntrinsics(t *testing.T) {
	w := testWorld(t, nil)
	if _, err := w.Capture(Pose{}, Intrinsics{}, CaptureOptions{}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("invalid intrinsics accepted")
	}
}

func TestAddFeatures(t *testing.T) {
	w := testWorld(t, []venue.Feature{feat(1, 5, 5, 1.4)})
	if w.NumFeatures() != 1 {
		t.Fatal("initial count wrong")
	}
	w.AddFeatures([]venue.Feature{feat(2, 6, 5, 1.4)})
	if w.NumFeatures() != 2 {
		t.Fatal("AddFeatures did not extend")
	}
	if !sees(t, w, Pose{Pos: geom.V2(2, 5), Yaw: 0}, 2) {
		t.Error("added feature not observable")
	}
	fs := w.Features()
	fs[0].ID = 99
	if w.Features()[0].ID == 99 {
		t.Error("Features must return a copy")
	}
}

func TestFeaturesView(t *testing.T) {
	w := testWorld(t, []venue.Feature{feat(1, 5, 5, 1.4), feat(2, 6, 5, 1.4)})
	w.AddFeatures([]venue.Feature{feat(3, 7, 5, 1.4)}) // leaves spare capacity
	view := w.FeaturesView()
	if !slices.Equal(view, w.Features()) {
		t.Fatalf("view %v, features %v", view, w.Features())
	}
	if cap(view) != len(view) {
		t.Errorf("view cap %d > len %d: appending to it would write into the world", cap(view), len(view))
	}
}

func TestWorldCloneIsolation(t *testing.T) {
	w := testWorld(t, []venue.Feature{feat(1, 5, 5, 1.4)})
	c := w.Clone()
	c.AddFeatures([]venue.Feature{feat(2, 6, 5, 1.4)})
	if w.NumFeatures() != 1 {
		t.Error("clone mutation leaked into the original")
	}
	if c.NumFeatures() != 2 {
		t.Error("clone did not receive the new feature")
	}
	// The clone's index works: the added feature is observable.
	photo, err := c.Capture(Pose{Pos: geom.V2(2, 5), Yaw: 0}, DefaultIntrinsics(),
		CaptureOptions{DetectProb: 1}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, o := range photo.Obs {
		if o.FeatureID == 2 {
			found = true
		}
	}
	if !found {
		t.Error("clone index missing added feature")
	}
}

// TestCandidatesOrder pins the bucket index's visiting order, which decides
// the order of a capture's detection draws: every feature within range of
// the query point comes out, once, ordered by floor-plane bucket (x-major)
// and then by feature index. A feature outside the venue counts in the
// nearest bucket inside it. The world mixes generated library features,
// features added later and some placed outside the venue, and queries
// start inside and outside it.
func TestCandidatesOrder(t *testing.T) {
	v, err := venue.Library()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	w := NewWorld(v, v.GenerateFeatures(rng))
	b := v.Bounds()
	var extra []venue.Feature
	for i := 0; i < 300; i++ {
		extra = append(extra, feat(uint64(1e6+i),
			b.Min.X-8+rng.Float64()*(b.Width()+16), b.Min.Y-8+rng.Float64()*(b.Height()+16), 1))
	}
	w.AddFeatures(extra)
	cell := func(v, lo, hi float64) float64 {
		return geom.Clamp(math.Floor(v/featureCell), math.Floor(lo/featureCell), math.Floor(hi/featureCell))
	}
	key := func(p geom.Vec2) [2]float64 {
		return [2]float64{cell(p.X, b.Min.X, b.Max.X), cell(p.Y, b.Min.Y, b.Max.Y)}
	}
	const r = 6.0
	for q := 0; q < 200; q++ {
		pos := geom.V2(b.Min.X-10+rng.Float64()*(b.Width()+20), b.Min.Y-10+rng.Float64()*(b.Height()+20))
		var want []int
		for i, f := range w.features {
			if f.Pos.XY().Dist(pos) <= r {
				want = append(want, i)
			}
		}
		slices.SortStableFunc(want, func(i, j int) int {
			ki, kj := key(w.features[i].Pos.XY()), key(w.features[j].Pos.XY())
			return cmp.Or(cmp.Compare(ki[0], kj[0]), cmp.Compare(ki[1], kj[1]))
		})
		var got []uint64
		w.candidates(pos, r, func(f venue.Feature) {
			if f.Pos.XY().Dist(pos) <= r {
				got = append(got, f.ID)
			}
		})
		if len(got) != len(want) {
			t.Fatalf("query %v: %d features in range, want %d", pos, len(got), len(want))
		}
		for k, i := range want {
			if got[k] != w.features[i].ID {
				t.Fatalf("query %v: candidate %d is feature %d, want %d", pos, k, got[k], w.features[i].ID)
			}
		}
	}
}
