package sfm

import (
	"math"
	"math/rand"
	"testing"

	"snaptask/internal/camera"
	"snaptask/internal/geom"
	"snaptask/internal/venue"
)

// gridFeatures builds a dense wall of features along y=8 facing -y, ideal
// for multi-view capture from below.
func gridFeatures(n int) []venue.Feature {
	out := make([]venue.Feature, 0, n)
	for i := 0; i < n; i++ {
		x := 1 + 8*float64(i%40)/40
		z := 0.3 + 2.2*float64(i/40)/float64(n/40+1)
		out = append(out, venue.Feature{
			ID:        uint64(i + 1),
			Pos:       geom.V3(x, 8, z),
			Normal:    geom.V2(0, -1),
			SurfaceID: 1,
		})
	}
	return out
}

func testScene(t *testing.T) (*camera.World, []venue.Feature) {
	t.Helper()
	b := venue.NewBuilder("sfm-test", geom.Rect(geom.V2(0, 0), geom.V2(10, 10)), 3.0)
	b.Entrance(0, 0.1, 0.2)
	v, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	feats := gridFeatures(400)
	return camera.NewWorld(v, feats), feats
}

// capture takes a sharp photo facing the feature wall from (x, 2).
func capture(t *testing.T, w *camera.World, x float64, rng *rand.Rand) camera.Photo {
	t.Helper()
	p, err := w.Capture(camera.Pose{Pos: geom.V2(x, 2), Yaw: math.Pi / 2},
		camera.DefaultIntrinsics(), camera.CaptureOptions{DetectProb: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRegisterBatchSeedsAndTriangulates(t *testing.T) {
	w, feats := testScene(t)
	m := NewModel(Config{}, feats)
	rng := rand.New(rand.NewSource(1))
	photos := []camera.Photo{
		capture(t, w, 4.0, rng),
		capture(t, w, 4.5, rng),
		capture(t, w, 5.0, rng),
	}
	res, err := m.RegisterBatch(photos, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Registered) != 3 {
		t.Fatalf("registered %d of 3: %+v", len(res.Registered), res)
	}
	if m.NumViews() != 3 {
		t.Errorf("views = %d", m.NumViews())
	}
	if res.NewPoints < 50 {
		t.Errorf("triangulated only %d points from 3 overlapping views", res.NewPoints)
	}
	if len(res.RejectedBlurry) != 0 || len(res.Unregistered) != 0 || len(res.Registered) == 0 {
		t.Error("every photo should register")
	}
}

func TestTwoViewsAreNotEnough(t *testing.T) {
	// The paper's pipeline needs 3 observations per 3D point.
	w, feats := testScene(t)
	m := NewModel(Config{MatchDropProb: 1e-12, OutlierProb: 1e-12}, feats)
	rng := rand.New(rand.NewSource(2))
	res, err := m.RegisterBatch([]camera.Photo{
		capture(t, w, 4.0, rng),
		capture(t, w, 5.0, rng),
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Registered) != 2 {
		t.Fatalf("seed pair did not register: %+v", res)
	}
	if res.NewPoints != 0 {
		t.Errorf("two views triangulated %d points, want 0", res.NewPoints)
	}
	// A third view unlocks triangulation.
	res2, err := m.RegisterBatch([]camera.Photo{capture(t, w, 4.5, rng)}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res2.NewPoints == 0 {
		t.Error("third view should triangulate points")
	}
}

func TestBaselineRequired(t *testing.T) {
	// Three photos from the same position (pure rotation) must not
	// triangulate anything even though every feature has 3 views.
	w, feats := testScene(t)
	m := NewModel(Config{PoseNoiseSigma: 1e-9, MatchDropProb: 1e-12, OutlierProb: 1e-12}, feats)
	rng := rand.New(rand.NewSource(3))
	pose := camera.Pose{Pos: geom.V2(5, 2), Yaw: math.Pi / 2}
	var photos []camera.Photo
	for i := 0; i < 3; i++ {
		p, err := w.Capture(pose, camera.DefaultIntrinsics(), camera.CaptureOptions{DetectProb: 1}, rng)
		if err != nil {
			t.Fatal(err)
		}
		photos = append(photos, p)
	}
	res, err := m.RegisterBatch(photos, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.NewPoints != 0 {
		t.Errorf("zero-baseline views triangulated %d points", res.NewPoints)
	}
}

func TestDisconnectedPhotoDoesNotRegister(t *testing.T) {
	w, feats := testScene(t)
	m := NewModel(Config{}, feats)
	rng := rand.New(rand.NewSource(4))
	// Seed a model looking at the wall.
	if _, err := m.RegisterBatch([]camera.Photo{
		capture(t, w, 4.0, rng), capture(t, w, 4.6, rng),
	}, rng); err != nil {
		t.Fatal(err)
	}
	// A photo facing the opposite (featureless) direction shares nothing.
	away, err := w.Capture(camera.Pose{Pos: geom.V2(5, 8.5), Yaw: -math.Pi / 2},
		camera.DefaultIntrinsics(), camera.CaptureOptions{DetectProb: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Note: facing -y from (5,8.5) sees features on wall y=8 edge-on → none.
	res, err := m.RegisterBatch([]camera.Photo{away}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unregistered) != 1 {
		t.Errorf("disconnected photo result: %+v", res)
	}
}

func TestBlurryPhotoRejected(t *testing.T) {
	w, feats := testScene(t)
	m := NewModel(Config{}, feats)
	rng := rand.New(rand.NewSource(5))
	p, err := w.Capture(camera.Pose{Pos: geom.V2(5, 2), Yaw: math.Pi / 2},
		camera.DefaultIntrinsics(), camera.CaptureOptions{DetectProb: 1, MotionBlurLen: 20}, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.RegisterBatch([]camera.Photo{p}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RejectedBlurry) != 1 {
		t.Errorf("blurry photo not rejected: %+v (sharpness %v)", res, p.Sharpness)
	}
}

func TestFeaturelessSceneFailsToSeed(t *testing.T) {
	// Photos with almost no features (glass wall) cannot seed a model —
	// the situation that triggers annotation tasks.
	b := venue.NewBuilder("glass-test", geom.Rect(geom.V2(0, 0), geom.V2(10, 10)), 3.0)
	b.Entrance(0, 0.1, 0.2)
	v, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Only 3 features in the whole scene: far too few to seed.
	feats := gridFeatures(3)
	w := camera.NewWorld(v, feats)
	m := NewModel(Config{}, feats)
	rng := rand.New(rand.NewSource(6))
	var photos []camera.Photo
	for _, x := range []float64{4, 4.5, 5} {
		p, err := w.Capture(camera.Pose{Pos: geom.V2(x, 2), Yaw: math.Pi / 2},
			camera.DefaultIntrinsics(), camera.CaptureOptions{DetectProb: 1}, rng)
		if err != nil {
			t.Fatal(err)
		}
		photos = append(photos, p)
	}
	res, err := m.RegisterBatch(photos, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Registered) != 0 || len(res.Unregistered) != 3 {
		t.Errorf("featureless batch should not register: %+v", res)
	}
	if m.NumPoints() != 0 {
		t.Error("no points expected")
	}
}

func TestPointAccuracy(t *testing.T) {
	w, feats := testScene(t)
	m := NewModel(Config{}, feats)
	rng := rand.New(rand.NewSource(7))
	var photos []camera.Photo
	for _, x := range []float64{3.5, 4.2, 4.9, 5.6} {
		photos = append(photos, capture(t, w, x, rng))
	}
	if _, err := m.RegisterBatch(photos, rng); err != nil {
		t.Fatal(err)
	}
	truth := make(map[uint64]geom.Vec3)
	for _, f := range feats {
		truth[f.ID] = f.Pos
	}
	cloud := m.Cloud()
	if cloud.Len() == 0 {
		t.Fatal("empty cloud")
	}
	for _, p := range cloud.Points() {
		if p.FeatureID == 0 {
			continue // outlier
		}
		if d := p.Pos.Dist(truth[p.FeatureID]); d > 0.2 {
			t.Errorf("point %d off by %v m", p.FeatureID, d)
		}
		if p.Views < 3 {
			t.Errorf("point %d has %d views, want >= 3", p.FeatureID, p.Views)
		}
	}
}

func TestOutliersAppearAndAreMarked(t *testing.T) {
	w, feats := testScene(t)
	m := NewModel(Config{OutlierProb: 0.9}, feats)
	rng := rand.New(rand.NewSource(8))
	var photos []camera.Photo
	for _, x := range []float64{3.5, 4.2, 4.9, 5.6, 6.3} {
		photos = append(photos, capture(t, w, x, rng))
	}
	if _, err := m.RegisterBatch(photos, rng); err != nil {
		t.Fatal(err)
	}
	outliers := 0
	for _, p := range m.Cloud().Points() {
		if p.FeatureID == 0 {
			outliers++
		}
	}
	if outliers == 0 {
		t.Error("expected spurious outlier points at OutlierProb 0.9")
	}
}

func TestPoseNoiseApplied(t *testing.T) {
	w, feats := testScene(t)
	m := NewModel(Config{PoseNoiseSigma: 0.5}, feats)
	rng := rand.New(rand.NewSource(9))
	truePhotos := []camera.Photo{capture(t, w, 4.0, rng), capture(t, w, 4.8, rng)}
	if _, err := m.RegisterBatch(truePhotos, rng); err != nil {
		t.Fatal(err)
	}
	views := m.Views()
	if len(views) != 2 {
		t.Fatal("views missing")
	}
	moved := false
	for i, v := range views {
		if v.Pose.Pos.Dist(truePhotos[i].Pose.Pos) > 1e-9 {
			moved = true
		}
	}
	if !moved {
		t.Error("estimated poses identical to truth despite noise")
	}
}

func TestRegisterBatchNilRNG(t *testing.T) {
	m := NewModel(Config{}, nil)
	if _, err := m.RegisterBatch(nil, nil); err == nil {
		t.Error("nil rng should error")
	}
}

func TestIncrementalGrowthAcrossBatches(t *testing.T) {
	w, feats := testScene(t)
	m := NewModel(Config{}, feats)
	rng := rand.New(rand.NewSource(10))
	if _, err := m.RegisterBatch([]camera.Photo{
		capture(t, w, 3.0, rng), capture(t, w, 3.5, rng), capture(t, w, 4.0, rng),
	}, rng); err != nil {
		t.Fatal(err)
	}
	before := m.NumPoints()
	// A later batch overlapping the first extends the model.
	res, err := m.RegisterBatch([]camera.Photo{
		capture(t, w, 4.5, rng), capture(t, w, 5.0, rng), capture(t, w, 5.5, rng),
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Registered) != 3 {
		t.Fatalf("second batch: %+v", res)
	}
	if m.NumPoints() <= before {
		t.Error("model did not grow")
	}
	// Photo IDs are unique across batches.
	seen := map[int]bool{}
	for _, v := range m.Views() {
		if seen[v.PhotoID] {
			t.Fatalf("duplicate photo ID %d", v.PhotoID)
		}
		seen[v.PhotoID] = true
	}
}

func TestConfigDefaults(t *testing.T) {
	m := NewModel(Config{}, nil)
	cfg := m.Config()
	if cfg.MinViewsForPoint != 3 {
		t.Errorf("MinViewsForPoint = %d, want 3 (paper)", cfg.MinViewsForPoint)
	}
	if cfg.MinBaseline <= 0 || cfg.SharpnessThreshold <= 0 {
		t.Error("defaults not applied")
	}
	// Explicit values survive.
	m2 := NewModel(Config{MinViewsForPoint: 5}, nil)
	if m2.Config().MinViewsForPoint != 5 {
		t.Error("explicit config overridden")
	}
}

func TestRemoveTwo(t *testing.T) {
	s := []int{10, 20, 30, 40, 50}
	got := removeTwo(s, 3, 1)
	want := []int{10, 30, 50}
	if len(got) != len(want) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("got[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestPoseNoiseDeterministic(t *testing.T) {
	p := camera.Pose{Pos: geom.V2(3.25, 7.5), Yaw: 1.2}
	x1, y1 := poseNoise(p)
	x2, y2 := poseNoise(p)
	if x1 != x2 || y1 != y2 {
		t.Fatal("pose noise not deterministic for the same pose")
	}
	q := p
	q.Pos.X += 0.01
	x3, y3 := poseNoise(q)
	if x1 == x3 && y1 == y3 {
		t.Error("different poses should get different noise")
	}
	// The noise is standard-normal-ish: sample many poses and check the
	// empirical moments loosely.
	var sum, sumSq float64
	n := 0
	for i := 0; i < 500; i++ {
		r := camera.Pose{Pos: geom.V2(float64(i)*0.37, float64(i)*0.11), Yaw: float64(i) * 0.05}
		a, b := poseNoise(r)
		sum += a + b
		sumSq += a*a + b*b
		n += 2
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.15 {
		t.Errorf("noise mean = %v, want ~0", mean)
	}
	if variance < 0.6 || variance > 1.5 {
		t.Errorf("noise variance = %v, want ~1", variance)
	}
}

func TestRegisterSamePoseSameEstimate(t *testing.T) {
	// Re-uploading photos from identical poses must produce identical
	// estimated poses (no visibility inflation across repeats).
	w, feats := testScene(t)
	cfgBase := Config{}
	rngA := rand.New(rand.NewSource(31))
	photosA := []camera.Photo{capture(t, w, 4.0, rngA), capture(t, w, 4.6, rngA), capture(t, w, 5.2, rngA)}
	mA := NewModel(cfgBase, feats)
	if _, err := mA.RegisterBatch(photosA, rngA); err != nil {
		t.Fatal(err)
	}
	mB := NewModel(cfgBase, feats)
	rngB := rand.New(rand.NewSource(99)) // different rng state
	if _, err := mB.RegisterBatch(photosA, rngB); err != nil {
		t.Fatal(err)
	}
	va, vb := mA.Views(), mB.Views()
	if len(va) != len(vb) {
		t.Skip("match noise made registration counts differ; pose check not applicable")
	}
	for i := range va {
		if va[i].Pose.Pos != vb[i].Pose.Pos {
			t.Fatalf("view %d estimated pose differs across rng states: %v vs %v",
				i, va[i].Pose.Pos, vb[i].Pose.Pos)
		}
	}
}

// TestPointViewsMatchObservationReplay grows a model over batches that
// re-upload earlier photos and repeat observations, and after every batch
// checks the track bookkeeping against a replay of the registered
// observations: no triangulated feature keeps a track, a pending track
// lists one view per observation, and each point's Views equals its
// feature's observation count.
func TestPointViewsMatchObservationReplay(t *testing.T) {
	w, feats := testScene(t)
	known := make(map[uint64]bool, len(feats))
	for _, f := range feats {
		known[f.ID] = true
	}
	m := NewModel(Config{MatchDropProb: -1}, feats)
	rng := rand.New(rand.NewSource(9))
	count := make(map[uint64]int) // feature ID → registered observations
	var uploaded []camera.Photo
	nextID, pending := 0, 0
	for batch := 0; batch < 6; batch++ {
		var photos []camera.Photo
		for k := 0; k < 4; k++ {
			p := capture(t, w, 2+float64(batch)*0.9+float64(k)*0.35, rng)
			if k == 1 && len(p.Obs) > 0 {
				p.Obs = append(p.Obs, p.Obs[0]) // a repeated observation
			}
			photos = append(photos, p)
		}
		if batch > 0 {
			photos = append(photos, uploaded[rng.Intn(len(uploaded))]) // a re-upload
		}
		for i := range photos {
			nextID++
			photos[i].ID = nextID
		}
		res, err := m.RegisterBatch(photos, rng)
		if err != nil {
			t.Fatal(err)
		}
		registered := make(map[int]bool, len(res.Registered))
		for _, id := range res.Registered {
			registered[id] = true
		}
		for _, p := range photos {
			if !registered[p.ID] {
				continue
			}
			uploaded = append(uploaded, p)
			for _, o := range p.Obs {
				if known[o.FeatureID] {
					count[o.FeatureID]++
				}
			}
		}

		pending += len(m.tracks)
		for id, vs := range m.tracks {
			if _, ok := m.ptIdx[id]; ok {
				t.Fatalf("batch %d: triangulated feature %d keeps a track", batch, id)
			}
			if len(vs) != count[id] {
				t.Fatalf("batch %d: feature %d track lists %d views, replay counts %d", batch, id, len(vs), count[id])
			}
		}
		for _, p := range m.pts {
			if p.Views != count[p.FeatureID] {
				t.Fatalf("batch %d: point %d has %d views, replay counts %d", batch, p.FeatureID, p.Views, count[p.FeatureID])
			}
		}
		for id := range count {
			if !m.observed(id) {
				t.Fatalf("batch %d: observed feature %d neither triangulated nor tracked", batch, id)
			}
		}
	}
	regrown := 0
	for _, p := range m.pts {
		if p.Views > m.cfg.MinViewsForPoint {
			regrown++
		}
	}
	if len(m.pts) == 0 || regrown == 0 || pending == 0 {
		t.Fatalf("replay too small: %d points (%d regrown), no batch left a pending track: %v",
			len(m.pts), regrown, pending == 0)
	}
}
