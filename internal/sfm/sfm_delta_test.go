package sfm

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"snaptask/internal/camera"
	"snaptask/internal/geom"
	"snaptask/internal/pointcloud"
	"snaptask/internal/venue"
)

// referenceSweep is the pre-index registration fixpoint (rescan every
// pending candidate's matches against the model on every pass), kept as the
// behavioural reference for registerSweep.
func referenceSweep(m *Model, pending []cand, res *BatchResult, rng *rand.Rand) {
	for {
		progress := false
		var still []cand
		for _, c := range pending {
			shared := 0
			for _, id := range c.obs {
				if m.observed(id) {
					shared++
				}
			}
			if shared >= m.cfg.MinSharedForReg {
				m.register(c, rng)
				res.Registered = append(res.Registered, c.photo.ID)
				progress = true
			} else {
				still = append(still, c)
			}
		}
		pending = still
		if !progress {
			break
		}
	}
	for _, c := range pending {
		res.Unregistered = append(res.Unregistered, c.photo.ID)
	}
}

// referenceSeedPair is the O(n²·obs) pairwise scan findSeedPair replaced.
func referenceSeedPair(m *Model, pending []cand) (int, int, bool) {
	for i := 0; i < len(pending); i++ {
		seen := make(map[uint64]bool, len(pending[i].obs))
		for _, id := range pending[i].obs {
			seen[id] = true
		}
		for j := i + 1; j < len(pending); j++ {
			shared := 0
			for _, id := range pending[j].obs {
				if seen[id] {
					shared++
				}
			}
			if shared >= m.cfg.MinSeedMatches {
				return i, j, true
			}
		}
	}
	return 0, 0, false
}

// randCands fabricates pending candidates with random (occasionally
// duplicated) observations over feature IDs 1..nFeat.
func randCands(rng *rand.Rand, n, nFeat int) []cand {
	out := make([]cand, n)
	for i := range out {
		nObs := rng.Intn(14)
		obs := make([]uint64, 0, nObs+2)
		for o := 0; o < nObs; o++ {
			id := uint64(rng.Intn(nFeat) + 1)
			obs = append(obs, id)
			if rng.Float64() < 0.1 {
				obs = append(obs, id) // duplicate occurrence
			}
		}
		out[i] = cand{
			photo: camera.Photo{
				ID:   i + 1,
				Pose: camera.Pose{Pos: geom.V2(rng.Float64()*10, rng.Float64()*10), Yaw: rng.Float64()},
			},
			obs: obs,
		}
	}
	return out
}

func flatFeatures(n int) []venue.Feature {
	out := make([]venue.Feature, n)
	for i := range out {
		out[i] = venue.Feature{ID: uint64(i + 1), Pos: geom.V3(float64(i), 1, 1)}
	}
	return out
}

// TestRegisterSweepMatchesReference drives the indexed sweep and the rescan
// reference over identical randomized models and asserts identical
// registration order, unregistered sets, and resulting model state
// (including rng-driven pose noise and outlier draws).
func TestRegisterSweepMatchesReference(t *testing.T) {
	cfg := Config{MinSharedForReg: 3, MinSeedMatches: 4}
	for trial := 0; trial < 50; trial++ {
		seedRng := rand.New(rand.NewSource(int64(trial)))
		feats := flatFeatures(40)
		mNew := NewModel(cfg, feats)
		mRef := NewModel(cfg, feats)

		// Pre-activate a random set of tracks through a normal register
		// on both models so sweeps start from a non-empty state.
		base := cand{photo: camera.Photo{ID: 1000, Pose: camera.Pose{Pos: geom.V2(1, 1)}}}
		for f := 1; f <= 40; f++ {
			if seedRng.Float64() < 0.3 {
				base.obs = append(base.obs, uint64(f))
			}
		}
		rngA := rand.New(rand.NewSource(int64(trial) + 500))
		rngB := rand.New(rand.NewSource(int64(trial) + 500))
		mNew.register(base, rngA)
		mRef.register(base, rngB)

		pending := randCands(seedRng, 3+seedRng.Intn(25), 40)
		var resNew, resRef BatchResult
		mNew.registerSweep(slices.Clone(pending), &resNew, rngA)
		referenceSweep(mRef, slices.Clone(pending), &resRef, rngB)

		if !slices.Equal(resNew.Registered, resRef.Registered) {
			t.Fatalf("trial %d: registered %v, reference %v", trial, resNew.Registered, resRef.Registered)
		}
		if !slices.Equal(resNew.Unregistered, resRef.Unregistered) {
			t.Fatalf("trial %d: unregistered %v, reference %v", trial, resNew.Unregistered, resRef.Unregistered)
		}
		if !bytes.Equal(mustMarshal(t, mNew), mustMarshal(t, mRef)) {
			t.Fatalf("trial %d: model state diverged from reference", trial)
		}
	}
}

// TestFindSeedPairMatchesReference checks the inverted-index seed search
// returns exactly the pair the pairwise scan picks, across randomized
// candidate sets including no-pair cases.
func TestFindSeedPairMatchesReference(t *testing.T) {
	m := NewModel(Config{MinSeedMatches: 4}, nil)
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		pending := randCands(rng, rng.Intn(20), 25)
		gi, gj, gok := m.findSeedPair(pending)
		wi, wj, wok := referenceSeedPair(m, pending)
		if gi != wi || gj != wj || gok != wok {
			t.Fatalf("trial %d: findSeedPair = (%d,%d,%v), reference (%d,%d,%v)",
				trial, gi, gj, gok, wi, wj, wok)
		}
	}
}

// TestNegativeSentinelsDisableNoise covers the withDefaults zero-value trap:
// negative MatchDropProb / OutlierProb / PoseNoiseSigma / PointNoiseSigma
// must select an explicit zero, yielding a fully noiseless run.
func TestNegativeSentinelsDisableNoise(t *testing.T) {
	w, feats := testScene(t)
	m := NewModel(Config{
		MatchDropProb:   -1,
		OutlierProb:     -1,
		PoseNoiseSigma:  -1,
		PointNoiseSigma: -1,
	}, feats)
	rng := rand.New(rand.NewSource(3))
	photos := []camera.Photo{
		capture(t, w, 4.0, rng),
		capture(t, w, 4.5, rng),
		capture(t, w, 5.0, rng),
	}
	res, err := m.RegisterBatch(photos, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RejectedBlurry) != 0 || len(res.Unregistered) != 0 || len(res.Registered) == 0 {
		t.Fatalf("batch did not fully register: %+v", res)
	}
	for i, v := range m.Views() {
		if v.Pose != photos[i].Pose {
			t.Errorf("view %d pose %+v != exact photo pose %+v", i, v.Pose, photos[i].Pose)
		}
		if v.NumObs != len(photos[i].Obs) {
			t.Errorf("view %d: %d obs survived of %d — matches dropped despite MatchDropProb<0",
				i, v.NumObs, len(photos[i].Obs))
		}
	}
	c := m.Cloud()
	if c.Len() != m.NumPoints() {
		t.Errorf("%d outlier points produced despite OutlierProb<0", c.Len()-m.NumPoints())
	}
	byID := make(map[uint64]geom.Vec3, len(feats))
	for _, f := range feats {
		byID[f.ID] = f.Pos
	}
	c.Each(func(p pointcloud.Point) {
		if p.Pos != byID[p.FeatureID] {
			t.Errorf("point %d at %+v, want exact %+v", p.FeatureID, p.Pos, byID[p.FeatureID])
		}
	})
}

// TestWithDefaultsSentinels pins the sentinel semantics: zero resolves to
// the paper default, negative stays negative in the stored config (so
// resolution is idempotent across snapshot round-trips) and clamps to zero
// at use time.
func TestWithDefaultsSentinels(t *testing.T) {
	d := DefaultConfig()
	z := Config{}.withDefaults()
	if z.MatchDropProb != d.MatchDropProb || z.OutlierProb != d.OutlierProb ||
		z.PoseNoiseSigma != d.PoseNoiseSigma || z.PointNoiseSigma != d.PointNoiseSigma {
		t.Errorf("zero config did not resolve to defaults: %+v", z)
	}
	neg := Config{MatchDropProb: -1, OutlierProb: -0.5, PoseNoiseSigma: -2, PointNoiseSigma: -3}.withDefaults()
	if neg.MatchDropProb >= 0 || neg.OutlierProb >= 0 || neg.PoseNoiseSigma >= 0 || neg.PointNoiseSigma >= 0 {
		t.Errorf("negative sentinels were overwritten: %+v", neg)
	}
	if again := neg.withDefaults(); again != neg {
		t.Errorf("withDefaults not idempotent: %+v != %+v", again, neg)
	}
	m := NewModel(Config{OutlierProb: -1}, nil)
	m2 := NewModel(Config{}, nil)
	if err := m2.UnmarshalBinary(mustMarshal(t, m)); err != nil {
		t.Fatal(err)
	}
	if m2.cfg != m.cfg {
		t.Errorf("snapshot round-trip changed config: %+v != %+v", m2.cfg, m.cfg)
	}
	for _, v := range []float64{-1, 0, 0.25} {
		want := v
		if v < 0 {
			want = 0
		}
		if nonneg(v) != want {
			t.Errorf("nonneg(%v) = %v", v, nonneg(v))
		}
	}
}

// TestCloudIncrementalDeltas grows a model over several batches and checks
// the deltas reported by CloudIncremental reassemble exactly the cloud's two
// segments, with nothing reported twice.
func TestCloudIncrementalDeltas(t *testing.T) {
	w, _ := testScene(t)
	m := NewModel(Config{}, nil)
	// Use the world's real features so captures observe them.
	m.AddWorldFeatures(w.Features())
	rng := rand.New(rand.NewSource(5))
	var gotPts []uint64
	var nPts, nOut int
	for batch := 0; batch < 4; batch++ {
		var photos []camera.Photo
		for k := 0; k < 3; k++ {
			photos = append(photos, capture(t, w, 3+float64(batch)*0.9+float64(k)*0.45, rng))
		}
		if _, err := m.RegisterBatch(photos, rng); err != nil {
			t.Fatal(err)
		}
		c, newPts, newOutliers := m.CloudIncremental()
		if c.Len() != len(m.pts)+len(m.outliers) {
			t.Fatalf("batch %d: cloud len %d != %d pts + %d outliers", batch, c.Len(), len(m.pts), len(m.outliers))
		}
		if !slices.Equal(c.Points(), m.Cloud().Points()) {
			t.Fatalf("batch %d: CloudIncremental cloud differs from Cloud()", batch)
		}
		for _, p := range newPts {
			gotPts = append(gotPts, p.FeatureID)
		}
		nOut += len(newOutliers)
		nPts += len(newPts)
		// A second call with no model change must report empty deltas.
		_, again, againOut := m.CloudIncremental()
		if len(again) != 0 || len(againOut) != 0 {
			t.Fatalf("batch %d: unchanged model reported deltas (%d,%d)", batch, len(again), len(againOut))
		}
	}
	if nPts != m.NumPoints() || nOut != len(m.outliers) {
		t.Fatalf("deltas covered (%d,%d) of (%d,%d) points", nPts, nOut, m.NumPoints(), len(m.outliers))
	}
	var wantPts []uint64
	for _, p := range m.pts {
		wantPts = append(wantPts, p.FeatureID)
	}
	if !slices.Equal(gotPts, wantPts) {
		t.Fatal("concatenated point deltas differ from the cloud's point segment")
	}
}
