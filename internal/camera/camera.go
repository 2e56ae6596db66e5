// Package camera models the smartphone camera SnapTask's participants
// carry: a pinhole camera at eye height with horizontal/vertical fields of
// view and a detection range, observing the venue's feature points through
// 2.5D occlusion ray casting (sight passes over low furniture and through
// glass, exactly the cases that matter for the paper's library).
//
// A Photo records which scene features the frame captured, by feature ID —
// what the backend matches on to register it — plus a sharpness score
// computed from an actually rendered pixel patch, so blur detection
// downstream runs on real image data.
package camera

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"snaptask/internal/geom"
	"snaptask/internal/imaging"
	"snaptask/internal/venue"
)

// Intrinsics describes the fixed optical parameters of a device. The zero
// value is not usable; start from DefaultIntrinsics.
type Intrinsics struct {
	// HFOV and VFOV are the horizontal and vertical fields of view in
	// radians.
	HFOV, VFOV float64
	// Range is the maximum distance at which features are detected.
	Range float64
	// MinRange is the near limit below which features cannot focus.
	MinRange float64
	// EyeHeight is the camera height above the floor in metres.
	EyeHeight float64
}

// DefaultIntrinsics returns parameters typical of the smartphones used in
// the paper's field test (Galaxy S7 / iPhone 7 class).
func DefaultIntrinsics() Intrinsics {
	return Intrinsics{
		HFOV:      65 * math.Pi / 180,
		VFOV:      50 * math.Pi / 180,
		Range:     9,
		MinRange:  0.3,
		EyeHeight: 1.4,
	}
}

// Validate reports whether the intrinsics are usable.
func (in Intrinsics) Validate() error {
	if in.HFOV <= 0 || in.HFOV > math.Pi {
		return fmt.Errorf("camera: HFOV %v out of (0, pi]", in.HFOV)
	}
	if in.VFOV <= 0 || in.VFOV > math.Pi {
		return fmt.Errorf("camera: VFOV %v out of (0, pi]", in.VFOV)
	}
	if in.Range <= 0 || in.MinRange < 0 || in.MinRange >= in.Range {
		return fmt.Errorf("camera: range [%v, %v] invalid", in.MinRange, in.Range)
	}
	if in.EyeHeight <= 0 {
		return fmt.Errorf("camera: eye height %v must be positive", in.EyeHeight)
	}
	return nil
}

// Pose is a camera position and facing direction on the floor plane.
type Pose struct {
	Pos geom.Vec2
	// Yaw is the facing direction in radians (0 = +x, counter-clockwise).
	Yaw float64
}

// Dir returns the unit facing vector.
func (p Pose) Dir() geom.Vec2 { return geom.UnitFromAngle(p.Yaw) }

// Observation is one feature detected in a photo, named by its feature ID:
// the backend registers photos by matching IDs and reads nothing else of a
// detection.
type Observation struct {
	FeatureID uint64
}

// Photo is one captured frame.
type Photo struct {
	// ID is assigned by the dataset/batch that owns the photo; zero until
	// then.
	ID int
	// Pose is the true capture pose. The simulated SfM pipeline estimates
	// poses with noise; consumers other than sfm must not read this as an
	// estimate.
	Pose Pose
	// Intrinsics the photo was taken with (the paper reads these from
	// EXIF metadata).
	Intrinsics Intrinsics
	// Obs are the detected features.
	Obs []Observation
	// Sharpness is the variance of the Laplacian of the rendered patch;
	// low values mean motion blur.
	Sharpness float64
}

// CaptureOptions tunes a capture.
type CaptureOptions struct {
	// DetectProb is the probability that a geometrically visible feature
	// is actually extracted (sensor noise, lighting). Defaults to 0.92.
	DetectProb float64
	// MotionBlurLen simulates camera movement during exposure in pixels
	// of the rendered patch; 0 means a steady shot. Blur both reduces
	// Sharpness and destroys feature detections.
	MotionBlurLen int
	// PatchSize is the side length of the rendered sharpness patch.
	// Defaults to 48.
	PatchSize int
}

func (o CaptureOptions) withDefaults() CaptureOptions {
	if o.DetectProb == 0 {
		o.DetectProb = 0.92
	}
	if o.PatchSize == 0 {
		o.PatchSize = 48
	}
	return o
}

// featureCell is the side of a feature-index bucket, chosen close to the
// default camera range so a capture touches only a few buckets.
const featureCell = 4.0

// World is the subset of venue geometry a camera interacts with. Features
// are indexed in floor-plane buckets so captures only examine candidates
// within camera range.
type World struct {
	occluders []venue.Occluder
	features  []venue.Feature

	// The bucket index is one counting-sorted flat array (CSR) over the
	// venue's bucket range: x0, y0 is its lowest bucket and nx × ny its
	// size. Bucket b = (x-x0)*ny + (y-y0) lists the indices of its
	// features, ascending, in index[start[b]:start[b+1]], so candidates
	// walks buckets x-major and a column's buckets are one run of index.
	// A feature outside the venue is filed under the nearest edge bucket,
	// so no feature position can size the index.
	x0, y0, nx, ny int
	start, index   []int32
}

// NewWorld prepares capture state for a venue and its feature set. The
// world takes ownership of features without copying it: the caller must not
// modify the slice afterwards. Reading it is fine: the world never writes
// into it, and holds it clipped, so AddFeatures copies it rather than
// appending into the caller's spare capacity. Extra features
// (e.g. artificial ones injected by the annotation pipeline) can be added
// later with AddFeatures.
func NewWorld(v *venue.Venue, features []venue.Feature) *World {
	b := v.Bounds()
	w := &World{
		occluders: v.Occluders(),
		features:  slices.Clip(features),
		x0:        int(math.Floor(b.Min.X / featureCell)),
		y0:        int(math.Floor(b.Min.Y / featureCell)),
	}
	w.nx = int(math.Floor(b.Max.X/featureCell)) - w.x0 + 1
	w.ny = int(math.Floor(b.Max.Y/featureCell)) - w.y0 + 1
	w.buildIndex()
	return w
}

// bucket returns the index coordinates of the bucket holding floor point
// p, clamped into the index.
func (w *World) bucket(p geom.Vec2) (x, y int) {
	x = int(math.Floor(p.X/featureCell)) - w.x0
	y = int(math.Floor(p.Y/featureCell)) - w.y0
	return min(max(x, 0), w.nx-1), min(max(y, 0), w.ny-1)
}

// buildIndex counting-sorts every feature into its bucket.
func (w *World) buildIndex() {
	w.start = make([]int32, w.nx*w.ny+1)
	buckets := make([]int32, len(w.features))
	for i := range w.features {
		x, y := w.bucket(w.features[i].Pos.XY())
		buckets[i] = int32(x*w.ny + y)
		w.start[buckets[i]+1]++
	}
	for b := 1; b < len(w.start); b++ {
		w.start[b] += w.start[b-1]
	}
	next := slices.Clone(w.start[:len(w.start)-1])
	w.index = make([]int32, len(w.features))
	for i, b := range buckets {
		w.index[next[b]] = int32(i)
		next[b]++
	}
}

// AddFeatures appends additional world features (artificial texture points)
// and rebuilds the bucket index.
func (w *World) AddFeatures(fs []venue.Feature) {
	w.features = append(w.features, fs...)
	w.buildIndex()
}

// Clone returns an independent copy of the world: annotation pipelines
// mutate their world by injecting artificial features, so experiments that
// must not observe each other's reconstructions run on clones.
func (w *World) Clone() *World {
	out := *w
	out.occluders = slices.Clone(w.occluders)
	out.features = slices.Clone(w.features)
	out.start = slices.Clone(w.start)
	out.index = slices.Clone(w.index)
	return &out
}

// candidates calls fn for every feature within range r of pos (plus some
// slack from bucket granularity), bucket by bucket x-major and in feature
// order within a bucket.
func (w *World) candidates(pos geom.Vec2, r float64, fn func(f venue.Feature)) {
	x0, y0 := w.bucket(pos.Sub(geom.V2(r, r)))
	x1, y1 := w.bucket(pos.Add(geom.V2(r, r)))
	for x := x0; x <= x1; x++ {
		for _, i := range w.index[w.start[x*w.ny+y0]:w.start[x*w.ny+y1+1]] {
			fn(w.features[i])
		}
	}
}

// Features returns a copy of the world's feature set.
func (w *World) Features() []venue.Feature {
	return append([]venue.Feature(nil), w.features...)
}

// FeaturesView returns the world's feature set without copying it, for a
// caller that only reads it, such as sfm.NewModel. The caller must not
// modify it; a later AddFeatures does not show in it.
func (w *World) FeaturesView() []venue.Feature { return slices.Clip(w.features) }

// Capture takes a photo from the given pose. rng drives detection noise;
// identical state produces identical photos.
func (w *World) Capture(pose Pose, in Intrinsics, opts CaptureOptions, rng *rand.Rand) (Photo, error) {
	if err := in.Validate(); err != nil {
		return Photo{}, err
	}
	opts = opts.withDefaults()

	photo := Photo{Pose: pose, Intrinsics: in}
	// Blur reduces the chance a feature is usable at all.
	detect := opts.DetectProb
	if opts.MotionBlurLen > 1 {
		detect /= float64(opts.MotionBlurLen)
	}

	w.candidates(pose.Pos, in.Range, func(f venue.Feature) {
		if !w.observe(pose, in, f) || rng.Float64() > detect {
			return
		}
		photo.Obs = append(photo.Obs, Observation{FeatureID: f.ID})
	})

	// Render the sharpness patch from the observed feature IDs and apply
	// the motion blur, then measure the Laplacian variance as the paper's
	// quality check would.
	ids := make([]uint64, len(photo.Obs))
	for i, o := range photo.Obs {
		ids[i] = o.FeatureID
	}
	patch, err := imaging.RenderFeaturePatch(opts.PatchSize, opts.PatchSize, ids, 128)
	if err != nil {
		return Photo{}, fmt.Errorf("camera: render patch: %w", err)
	}
	if opts.MotionBlurLen > 1 {
		patch = patch.MotionBlur(opts.MotionBlurLen)
	}
	photo.Sharpness = patch.LaplacianVariance()
	return photo, nil
}

// observe reports whether the camera at pose can observe feature f: the
// feature lies inside the range and frustum (Project), is not seen
// edge-on, and is not hidden behind an opaque occluder.
func (w *World) observe(pose Pose, in Intrinsics, f venue.Feature) bool {
	if _, _, ok := Project(pose, in, f.Pos); !ok {
		return false
	}
	d := f.Pos.XY().Sub(pose.Pos)
	dist := d.Len()
	// Grazing incidence: surface features seen nearly edge-on are not
	// extractable.
	if f.Normal.Len2() > 0 {
		if math.Abs(d.Norm().Dot(f.Normal)) < 0.15 {
			return false
		}
	}
	// 2.5D occlusion: the sight line from the eye to the feature must
	// clear every opaque occluder it crosses.
	ray := geom.NewRay(pose.Pos, d)
	for _, occ := range w.occluders {
		if occ.Transparent {
			continue
		}
		t, hit := ray.IntersectSegment(occ.Seg)
		if !hit || t <= 1e-9 || t >= dist-1e-6 {
			continue
		}
		sightZ := in.EyeHeight + (f.Pos.Z-in.EyeHeight)*(t/dist)
		if sightZ < occ.Top {
			return false
		}
	}
	return true
}

// SweepStepDeg is the angular step of a guided 360° capture task: the
// paper's client takes a photo every 8 degrees.
const SweepStepDeg = 8

// SweepArmRadius is the distance between the rotation axis (the
// participant's body) and the phone during a 360° sweep. The offset gives
// the sweep a real baseline — pure rotation about the optical centre would
// leave SfM nothing to triangulate from.
const SweepArmRadius = 0.3

// Sweep performs the guided collection protocol: a full 360° rotation at
// the given position, capturing one photo every SweepStepDeg degrees
// (45 photos). The camera is held SweepArmRadius ahead of the rotation
// centre, as a handheld phone is.
func (w *World) Sweep(pos geom.Vec2, in Intrinsics, opts CaptureOptions, rng *rand.Rand) ([]Photo, error) {
	n := 360 / SweepStepDeg
	photos := make([]Photo, 0, n)
	for i := 0; i < n; i++ {
		yaw := float64(i) * SweepStepDeg * math.Pi / 180
		camPos := pos.Add(geom.UnitFromAngle(yaw).Scale(SweepArmRadius))
		p, err := w.Capture(Pose{Pos: camPos, Yaw: yaw}, in, opts, rng)
		if err != nil {
			return nil, fmt.Errorf("camera: sweep step %d: %w", i, err)
		}
		photos = append(photos, p)
	}
	return photos, nil
}

// Project returns the image coordinates (u, v) ∈ [0,1]² of the world point
// p as seen from the pose, ignoring occlusion. ok is false when the point
// is outside the view frustum or the usable range. Capture tests
// visibility with it, and the annotation tool places worker marks on photos
// with it.
func Project(pose Pose, in Intrinsics, p geom.Vec3) (u, v float64, ok bool) {
	d := p.XY().Sub(pose.Pos)
	dist := d.Len()
	if dist < in.MinRange || dist > in.Range {
		return 0, 0, false
	}
	hAngle := geom.AngleDiff(pose.Yaw, d.Angle())
	if math.Abs(hAngle) > in.HFOV/2 {
		return 0, 0, false
	}
	vAngle := math.Atan2(p.Z-in.EyeHeight, dist)
	if math.Abs(vAngle) > in.VFOV/2 {
		return 0, 0, false
	}
	return 0.5 + hAngle/in.HFOV, 0.5 - vAngle/in.VFOV, true
}

// RayThrough inverts Project: it returns the floor-plane ray leaving the
// camera through image coordinates (u, v), together with the tangent of the
// vertical angle (height gain per metre of horizontal travel). The
// featureless-surface pipeline back-projects annotated corners onto surface
// planes with it.
func RayThrough(pose Pose, in Intrinsics, u, v float64) (ray geom.Ray, zPerMetre float64) {
	hAngle := (u - 0.5) * in.HFOV
	vAngle := (0.5 - v) * in.VFOV
	dir := geom.UnitFromAngle(pose.Yaw + hAngle)
	return geom.NewRay(pose.Pos, dir), math.Tan(vAngle)
}
