// Package sfm simulates the incremental Structure-from-Motion pipeline
// SnapTask's backend runs (the paper uses OpenMVG). The simulation
// reproduces the behavioural contract the system depends on rather than the
// numerics of bundle adjustment:
//
//   - photos register into a model only when they share enough matched
//     features with already-registered views (or, for a fresh model, when a
//     seed pair with enough mutual matches exists);
//   - a scene feature becomes a 3D point only when at least MinViewsForPoint
//     registered views observe it with a sufficient triangulation baseline —
//     the reason the paper sets COVERED_VIEW_TOLERANCE to 3;
//   - featureless surfaces yield no features, hence no points;
//   - reconstructed positions and camera poses carry noise, and occasional
//     spurious outlier points appear, exercising the statistical outlier
//     filter of Algorithm 1;
//   - blurry photos (low Laplacian variance) contribute nothing.
//
// The feature-position oracle (the world's true feature locations) plays
// the role that epipolar geometry plays for a real pipeline: it tells the
// simulator where a multiply-observed feature is.
package sfm

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"snaptask/internal/camera"
	"snaptask/internal/geom"
	"snaptask/internal/pointcloud"
	"snaptask/internal/telemetry"
	"snaptask/internal/venue"
)

// Config tunes the simulated pipeline. Zero fields take defaults.
type Config struct {
	// MinViewsForPoint is the number of registered observations required
	// to triangulate a feature into a 3D point. The paper's pipeline
	// needs 3.
	MinViewsForPoint int
	// MinSharedForReg is the number of matched features with the current
	// model required to register a new photo.
	MinSharedForReg int
	// MinSeedMatches is the number of mutual matches required of the
	// initial photo pair when the model is empty.
	MinSeedMatches int
	// MinBaseline is the minimum spread (metres) among observing camera
	// positions for triangulation.
	MinBaseline float64
	// PointNoiseSigma is the std-dev of reconstructed point error. Zero
	// means the default; a negative value selects an explicit sigma of 0
	// (noiseless reconstruction), which the zero value cannot express.
	PointNoiseSigma float64
	// PoseNoiseSigma is the std-dev of estimated camera position error.
	// Zero means the default; a negative value selects an explicit sigma
	// of 0 (exact pose estimates).
	PoseNoiseSigma float64
	// MatchDropProb is the probability a true feature match is missed.
	// Zero means the default; a negative value selects an explicit
	// probability of 0 (no dropped matches).
	MatchDropProb float64
	// OutlierProb is the probability a registered photo spawns one
	// spurious far-off 3D point. Zero means the default; a negative value
	// selects an explicit probability of 0 (no spurious points).
	OutlierProb float64
	// SharpnessThreshold rejects photos whose Laplacian variance is
	// below it (blurred input).
	SharpnessThreshold float64
}

// DefaultConfig returns the configuration used throughout the evaluation.
func DefaultConfig() Config {
	return Config{
		MinViewsForPoint:   3,
		MinSharedForReg:    12,
		MinSeedMatches:     20,
		MinBaseline:        0.2,
		PointNoiseSigma:    0.03,
		PoseNoiseSigma:     0.05,
		MatchDropProb:      0.05,
		OutlierProb:        0.03,
		SharpnessThreshold: 150,
	}
}

// withDefaults resolves zero fields to the paper's defaults. Negative
// noise/probability fields are the documented negative-means-zero sentinel:
// they stay negative in the resolved config (so the resolution is
// idempotent across snapshot round-trips) and are clamped to 0 at the point
// of use via nonneg.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.MinViewsForPoint == 0 {
		c.MinViewsForPoint = d.MinViewsForPoint
	}
	if c.MinSharedForReg == 0 {
		c.MinSharedForReg = d.MinSharedForReg
	}
	if c.MinSeedMatches == 0 {
		c.MinSeedMatches = d.MinSeedMatches
	}
	if c.MinBaseline == 0 {
		c.MinBaseline = d.MinBaseline
	}
	if c.PointNoiseSigma == 0 {
		c.PointNoiseSigma = d.PointNoiseSigma
	}
	if c.PoseNoiseSigma == 0 {
		c.PoseNoiseSigma = d.PoseNoiseSigma
	}
	if c.MatchDropProb == 0 {
		c.MatchDropProb = d.MatchDropProb
	}
	if c.OutlierProb == 0 {
		c.OutlierProb = d.OutlierProb
	}
	if c.SharpnessThreshold == 0 {
		c.SharpnessThreshold = d.SharpnessThreshold
	}
	return c
}

// View is a photo registered into the model, with its estimated pose.
type View struct {
	PhotoID    int
	Pose       camera.Pose
	Intrinsics camera.Intrinsics
	NumObs     int
}

// Model is an incrementally growing SfM reconstruction: registered camera
// views plus triangulated 3D points. Not safe for concurrent use; the
// backend serialises access through its model-owner goroutine.
type Model struct {
	cfg Config

	// natural is the oracle's natural features, indexed by feature ID
	// (venue.GenerateFeatures numbers them densely from 1), and
	// artificial its artificial features in ascending ID order: an ID is
	// in one or the other, never both. natN and natSum are the count and
	// fingerprint (the wrapping sum of featureHash) of the natural
	// features. AddWorldFeatures keeps all four in step, so a snapshot
	// write or restore scans no oracle entry.
	natural      []naturalFeature
	natN, natSum uint64
	artificial   []venue.Feature
	views        []View
	// tracks maps a feature that has not triangulated to the indices of the
	// views observing it. A feature's list is dropped when it triangulates:
	// from then on its point's Views carries the count, the only thing
	// later steps read. (A bundle-adjustment step, which this simulation
	// does not run, would need the lists back.)
	tracks map[uint64][]int
	// pts holds triangulated points in insertion order (the deterministic
	// cloud order); ptIdx maps a feature ID to its index in pts.
	pts   []pointcloud.Point
	ptIdx map[uint64]int
	// outliers are spurious points not tied to any feature.
	outliers []pointcloud.Point

	// touched collects the untriangulated feature IDs whose track gained an
	// observation in the current batch — the only tracks whose
	// triangulation state can have changed, so triangulate visits just
	// these instead of re-sorting every track ID the model has ever seen.
	touched map[uint64]struct{}

	// cloudMarkPts/cloudMarkOut record how much of pts/outliers has been
	// reported through CloudIncremental.
	cloudMarkPts int
	cloudMarkOut int

	// trace is the stage-span sink of the batch currently being ingested;
	// nil (the default) disables span collection entirely.
	trace *telemetry.Trace

	nextPhotoID int
}

// naturalFeature is one slot of the ID-indexed natural oracle; known is
// false for an ID the oracle does not hold.
type naturalFeature struct {
	pos   geom.Vec3
	known bool
}

// maxNaturalID bounds the natural oracle's ID-indexed table: a natural
// feature's ID must be below it. Artificial IDs start there
// (annotation.ArtificialIDBase).
const maxNaturalID = uint64(1) << 32

// NewModel returns an empty model over the given world features. The
// feature set can grow later via AddWorldFeatures (annotation pipeline).
// It panics on a natural feature whose ID is not below 2^32.
func NewModel(cfg Config, features []venue.Feature) *Model {
	cfg = cfg.withDefaults()
	m := &Model{
		cfg:     cfg,
		natural: make([]naturalFeature, 0, len(features)+1),
		tracks:  make(map[uint64][]int),
		ptIdx:   make(map[uint64]int),
		touched: make(map[uint64]struct{}),
	}
	m.AddWorldFeatures(features)
	return m
}

// Config returns the model's configuration (defaults resolved).
func (m *Model) Config() Config { return m.cfg }

// AddWorldFeatures registers additional true feature positions (artificial
// texture features injected by the annotation pipeline). A feature whose
// ID the oracle already holds replaces the earlier one. It panics on a
// natural feature whose ID is not below 2^32.
func (m *Model) AddWorldFeatures(features []venue.Feature) {
	for _, f := range features {
		if m.isNatural(f.ID) {
			m.natN--
			m.natSum -= featureHash(f.ID, m.natural[f.ID].pos)
			m.natural[f.ID] = naturalFeature{}
		} else if i, ok := m.artificialIndex(f.ID); ok {
			m.artificial = slices.Delete(m.artificial, i, i+1)
		}
		if f.Artificial {
			i, _ := m.artificialIndex(f.ID)
			m.artificial = slices.Insert(m.artificial, i, venue.Feature{ID: f.ID, Pos: f.Pos, Artificial: true})
			continue
		}
		if f.ID >= maxNaturalID {
			panic(fmt.Sprintf("sfm: natural feature ID %d not below %d", f.ID, maxNaturalID))
		}
		for uint64(len(m.natural)) <= f.ID {
			m.natural = append(m.natural, naturalFeature{})
		}
		m.natural[f.ID] = naturalFeature{pos: f.Pos, known: true}
		m.natN++
		m.natSum += featureHash(f.ID, f.Pos)
	}
}

// isNatural reports whether id is a natural feature of the oracle.
func (m *Model) isNatural(id uint64) bool {
	return id < uint64(len(m.natural)) && m.natural[id].known
}

// artificialIndex returns where id is or would be in m.artificial, and
// whether it is there.
func (m *Model) artificialIndex(id uint64) (int, bool) {
	return slices.BinarySearchFunc(m.artificial, id, func(f venue.Feature, id uint64) int { return cmp.Compare(f.ID, id) })
}

// feature returns the oracle's position for id, whether the feature is
// artificial, and whether the oracle holds id at all.
func (m *Model) feature(id uint64) (pos geom.Vec3, artificial, ok bool) {
	if m.isNatural(id) {
		return m.natural[id].pos, false, true
	}
	if i, ok := m.artificialIndex(id); ok {
		return m.artificial[i].Pos, true, true
	}
	return geom.Vec3{}, false, false
}

// SetTrace sets the stage-span sink for subsequent RegisterBatch calls —
// the owner points it at the current batch's trace and clears it after.
// A nil trace (the default) makes every span a no-op.
func (m *Model) SetTrace(tr *telemetry.Trace) { m.trace = tr }

// NumViews returns the number of registered views.
func (m *Model) NumViews() int { return len(m.views) }

// NumPoints returns the number of triangulated points (excluding outliers).
func (m *Model) NumPoints() int { return len(m.pts) }

// NumOutliers returns the number of spurious outlier points in the cloud.
func (m *Model) NumOutliers() int { return len(m.outliers) }

// Views returns a copy of the registered views.
func (m *Model) Views() []View { return append([]View(nil), m.views...) }

// ViewsFrom returns the registered views starting at index from as a
// read-only subslice of the model's backing array — no copy. The model only
// ever appends views, so previously returned subslices stay valid; callers
// must not mutate or append to the result (the slice is capacity-clamped,
// so an append allocates rather than scribbling on model state).
func (m *Model) ViewsFrom(from int) []View {
	if from >= len(m.views) {
		return nil
	}
	return m.views[from:len(m.views):len(m.views)]
}

// EachCloudPoint calls fn for every cloud point (triangulated points in
// insertion order, then outliers) without materialising the cloud copy
// Cloud() builds — the read path for owner-side callers that only need to
// iterate.
func (m *Model) EachCloudPoint(fn func(pointcloud.Point)) {
	for i := range m.pts {
		fn(m.pts[i])
	}
	for i := range m.outliers {
		fn(m.outliers[i])
	}
}

// Cloud returns the reconstructed point cloud, including any spurious
// outlier points (callers filter with pointcloud.StatisticalOutlierRemoval,
// as Algorithm 1 does). The returned cloud is an independent copy.
func (m *Model) Cloud() *pointcloud.Cloud {
	return pointcloud.Wrap(m.cloudSlice())
}

// CloudIncremental returns the cloud exactly as Cloud does, plus the points
// appended since the previous CloudIncremental call: newly triangulated
// points (which slot in before the outlier block) and new outlier points.
// Updated view counts on pre-existing points are reflected in the returned
// cloud, not in the deltas. The delta slices share the model's backing
// storage and must be treated as read-only.
func (m *Model) CloudIncremental() (c *pointcloud.Cloud, newPts, newOutliers []pointcloud.Point) {
	c = pointcloud.Wrap(m.cloudSlice())
	newPts = m.pts[m.cloudMarkPts:len(m.pts):len(m.pts)]
	newOutliers = m.outliers[m.cloudMarkOut:len(m.outliers):len(m.outliers)]
	m.cloudMarkPts = len(m.pts)
	m.cloudMarkOut = len(m.outliers)
	return c, newPts, newOutliers
}

// cloudSlice materialises the cloud order (triangulated points, then
// outliers) with a straight copy — no per-point map lookups.
func (m *Model) cloudSlice() []pointcloud.Point {
	buf := make([]pointcloud.Point, 0, len(m.pts)+len(m.outliers))
	buf = append(buf, m.pts...)
	buf = append(buf, m.outliers...)
	return buf
}

// BatchResult reports what happened to one uploaded batch.
type BatchResult struct {
	// Registered lists the photo IDs successfully added to the model.
	Registered []int
	// RejectedBlurry lists photos failing the sharpness check.
	RejectedBlurry []int
	// Unregistered lists sharp photos that did not match the model.
	Unregistered []int
	// NewPoints is the number of 3D points created by this batch.
	NewPoints int
}

// RegisteredAll reports whether every photo in the batch registered.
func (r BatchResult) RegisteredAll() bool {
	return len(r.RejectedBlurry) == 0 && len(r.Unregistered) == 0 && len(r.Registered) > 0
}

// RegisterBatch folds a batch of photos into the model: the incremental
// SfM step of Algorithm 1 line 1 ("build an SfM model M1 from P and M").
// Photos are assigned model-unique IDs (returned via the result and set on
// the photos' ID fields if zero). rng drives match and noise sampling.
func (m *Model) RegisterBatch(photos []camera.Photo, rng *rand.Rand) (BatchResult, error) {
	if rng == nil {
		return BatchResult{}, fmt.Errorf("sfm: rng must not be nil")
	}
	var res BatchResult
	pointsBefore := len(m.pts)

	sp := m.trace.Span("sfm.match")
	var pending []cand
	for _, p := range photos {
		if p.ID == 0 {
			m.nextPhotoID++
			p.ID = m.nextPhotoID
		} else if p.ID > m.nextPhotoID {
			m.nextPhotoID = p.ID
		}
		if p.Sharpness < m.cfg.SharpnessThreshold {
			res.RejectedBlurry = append(res.RejectedBlurry, p.ID)
			continue
		}
		var obs []uint64
		for _, o := range p.Obs {
			if _, _, known := m.feature(o.FeatureID); !known {
				continue
			}
			if rng.Float64() < nonneg(m.cfg.MatchDropProb) {
				continue
			}
			obs = append(obs, o.FeatureID)
		}
		pending = append(pending, cand{photo: p, obs: obs})
	}
	sp.End()

	// Seed: an empty model needs an initial pair with enough mutual
	// matches.
	if len(m.views) == 0 {
		sp = m.trace.Span("sfm.seed")
		i, j, ok := m.findSeedPair(pending)
		if !ok {
			sp.End()
			for _, c := range pending {
				res.Unregistered = append(res.Unregistered, c.photo.ID)
			}
			return res, nil
		}
		m.register(pending[i], rng)
		m.register(pending[j], rng)
		res.Registered = append(res.Registered, pending[i].photo.ID, pending[j].photo.ID)
		pending = removeTwo(pending, i, j)
		sp.End()
	}

	sp = m.trace.Span("sfm.register_sweep")
	m.registerSweep(pending, &res, rng)
	sp.End()

	sp = m.trace.Span("sfm.triangulate")
	m.triangulate(rng)
	sp.End()
	res.NewPoints = len(m.pts) - pointsBefore
	return res, nil
}

// registerSweep runs the incremental-registration fixpoint: keep sweeping
// the pending candidates until no photo registers. Instead of rescanning
// every candidate's matches against m.tracks on every sweep, it maintains
// per-candidate shared-match counts and an inverted feature→candidate
// index: when a registration activates a feature (its first observation),
// only the candidates observing that feature have their counts bumped.
// Candidates are always visited in batch order, so registration order —
// and with it view indices and rng draws — is identical to the full
// rescan.
func (m *Model) registerSweep(pending []cand, res *BatchResult, rng *rand.Rand) {
	if len(pending) == 0 {
		return
	}
	// Inverted index: feature ID → pending-candidate indices observing it,
	// one entry per observation occurrence (shared counts are
	// per-occurrence, matching a direct scan of c.obs).
	index := make(map[uint64][]int)
	for ci, c := range pending {
		for _, id := range c.obs {
			index[id] = append(index[id], ci)
		}
	}
	// Initial shared counts against the tracks registered so far (the
	// model plus any seed pair registered this batch).
	shared := make([]int, len(pending))
	for ci, c := range pending {
		for _, id := range c.obs {
			if m.observed(id) {
				shared[ci]++
			}
		}
	}
	done := make([]bool, len(pending))
	var activated []uint64 // reused scratch
	for {
		progress := false
		for ci, c := range pending {
			if done[ci] || shared[ci] < m.cfg.MinSharedForReg {
				continue
			}
			// Features this registration observes for the first time,
			// deduped (an id observed twice still activates once).
			activated = activated[:0]
			for _, id := range c.obs {
				if !m.observed(id) && !slices.Contains(activated, id) {
					activated = append(activated, id)
				}
			}
			m.register(c, rng)
			res.Registered = append(res.Registered, c.photo.ID)
			done[ci] = true
			progress = true
			for _, id := range activated {
				for _, cj := range index[id] {
					if !done[cj] {
						shared[cj]++
					}
				}
			}
		}
		if !progress {
			break
		}
	}
	for ci, c := range pending {
		if !done[ci] {
			res.Unregistered = append(res.Unregistered, c.photo.ID)
		}
	}
}

// observed reports whether a registered view observes feature id: it has
// triangulated, or its pending track is non-empty.
func (m *Model) observed(id uint64) bool {
	if _, ok := m.ptIdx[id]; ok {
		return true
	}
	return len(m.tracks[id]) > 0
}

// cand is a sharp photo awaiting registration, with the feature matches
// that survived match-drop noise.
type cand struct {
	photo camera.Photo
	obs   []uint64
}

// findSeedPair locates two pending photos sharing at least MinSeedMatches
// features: the lowest-index photo i that has a partner, paired with its
// lowest-index partner j — the same pair a pairwise O(n²·obs) scan picks.
// Shared counts come from an inverted feature→candidate index, so each i
// only touches the candidates that actually co-observe one of its
// features; large first batches no longer pay for every empty pairing.
func (m *Model) findSeedPair(pending []cand) (int, int, bool) {
	// One index entry per observation occurrence: a pair's shared count is
	// the number of j-observations whose feature i also observes.
	index := make(map[uint64][]int)
	for ci, c := range pending {
		for _, id := range c.obs {
			index[id] = append(index[id], ci)
		}
	}
	counts := make([]int, len(pending))
	stamp := make([]int, len(pending)) // epoch marks, to skip O(n) clears
	for i := 0; i < len(pending); i++ {
		epoch := i + 1
		seen := make(map[uint64]bool, len(pending[i].obs))
		for _, id := range pending[i].obs {
			if seen[id] {
				continue
			}
			seen[id] = true
			for _, j := range index[id] {
				if j <= i {
					continue
				}
				if stamp[j] != epoch {
					stamp[j] = epoch
					counts[j] = 0
				}
				counts[j]++
			}
		}
		for j := i + 1; j < len(pending); j++ {
			if stamp[j] == epoch && counts[j] >= m.cfg.MinSeedMatches {
				return i, j, true
			}
		}
	}
	return 0, 0, false
}

// register adds a photo as a view with pose noise and records its
// observations: a triangulated feature's point gains a view, any other
// feature's track gains the view index and is touched. The
// noise is a deterministic function of the true pose: re-registering a
// photo taken from the same spot yields the same estimate, as a real
// pipeline's systematic (scene-driven) pose error does — independent noise
// per upload would let repeated uploads inflate the visibility map.
func (m *Model) register(c cand, rng *rand.Rand) {
	viewIdx := len(m.views)
	pose := c.photo.Pose
	nx, ny := poseNoise(pose)
	sigma := nonneg(m.cfg.PoseNoiseSigma)
	pose.Pos = pose.Pos.Add(geom.V2(nx*sigma, ny*sigma))
	m.views = append(m.views, View{
		PhotoID:    c.photo.ID,
		Pose:       pose,
		Intrinsics: c.photo.Intrinsics,
		NumObs:     len(c.obs),
	})
	for _, id := range c.obs {
		if i, ok := m.ptIdx[id]; ok {
			m.pts[i].Views++
			continue
		}
		m.tracks[id] = append(m.tracks[id], viewIdx)
		m.touched[id] = struct{}{}
	}
	// Occasional spurious structure from mismatches.
	if rng.Float64() < nonneg(m.cfg.OutlierProb) {
		dir := geom.UnitFromAngle(rng.Float64() * 2 * 3.141592653589793)
		dist := 12 + rng.Float64()*25
		m.outliers = append(m.outliers, pointcloud.Point{
			Pos:   pose.Pos.Add(dir.Scale(dist)).Lift(rng.Float64() * 3),
			Views: 2,
		})
	}
}

// triangulate promotes every sufficiently-observed feature to a 3D point
// and drops its track. Only tracks touched by the current batch are
// visited — a track's view list, and with it its triangulation state, can
// only change when one of the batch's photos observed the feature.
// Candidates are visited in feature-ID order: the untouched tracks a full
// scan would interleave contribute no rng draws, so the noise sequence
// (and the point insertion order) is identical to sorting every track ID
// the model holds.
func (m *Model) triangulate(rng *rand.Rand) {
	if len(m.touched) == 0 {
		return
	}
	ids := make([]uint64, 0, len(m.touched))
	for id := range m.touched {
		ids = append(ids, id)
	}
	clear(m.touched)
	slices.Sort(ids)
	sigma := nonneg(m.cfg.PointNoiseSigma)
	for _, id := range ids {
		viewIdxs := m.tracks[id]
		if len(viewIdxs) < m.cfg.MinViewsForPoint || !m.baselineOK(viewIdxs) {
			continue
		}
		pos, artificial, _ := m.feature(id)
		noise := geom.V3(
			rng.NormFloat64()*sigma,
			rng.NormFloat64()*sigma,
			rng.NormFloat64()*sigma,
		)
		m.ptIdx[id] = len(m.pts)
		m.pts = append(m.pts, pointcloud.Point{
			Pos:        pos.Add(noise),
			FeatureID:  id,
			Views:      len(viewIdxs),
			Artificial: artificial,
		})
		delete(m.tracks, id)
	}
}

// baselineOK reports whether the observing views spread far enough apart.
func (m *Model) baselineOK(viewIdxs []int) bool {
	for i := 0; i < len(viewIdxs); i++ {
		for j := i + 1; j < len(viewIdxs); j++ {
			a := m.views[viewIdxs[i]].Pose.Pos
			b := m.views[viewIdxs[j]].Pose.Pos
			if a.Dist(b) >= m.cfg.MinBaseline {
				return true
			}
		}
	}
	return false
}

// poseNoise derives two standard-normal values deterministically from a
// pose using a splitmix-style hash and the Box-Muller transform.
func poseNoise(p camera.Pose) (float64, float64) {
	h := math.Float64bits(p.Pos.X)*0x9E3779B97F4A7C15 ^
		math.Float64bits(p.Pos.Y)*0xC2B2AE3D27D4EB4F ^
		math.Float64bits(p.Yaw)*0x165667B19E3779F9
	next := func() float64 {
		h ^= h >> 30
		h *= 0xBF58476D1CE4E5B9
		h ^= h >> 27
		h *= 0x94D049BB133111EB
		h ^= h >> 31
		return float64(h>>11) / float64(1<<53)
	}
	u1 := next()
	u2 := next()
	if u1 < 1e-12 {
		u1 = 1e-12
	}
	r := math.Sqrt(-2 * math.Log(u1))
	return r * math.Cos(2*math.Pi*u2), r * math.Sin(2*math.Pi*u2)
}

// nonneg clamps a negative-means-zero sentinel config value at its point
// of use; the stored config keeps the sentinel so withDefaults stays
// idempotent across snapshot round-trips.
func nonneg(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

func removeTwo[T any](s []T, i, j int) []T {
	if i > j {
		i, j = j, i
	}
	out := make([]T, 0, len(s)-2)
	out = append(out, s[:i]...)
	out = append(out, s[i+1:j]...)
	out = append(out, s[j+1:]...)
	return out
}
