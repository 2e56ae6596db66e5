package annotation

import (
	"fmt"
	"math"
	"math/rand"

	"snaptask/internal/camera"
	"snaptask/internal/geom"
	"snaptask/internal/imaging"
	"snaptask/internal/sfm"
	"snaptask/internal/venue"
)

// ArtificialIDBase is the first feature ID used for artificial texture
// features, far above any venue-generated ID so the two ranges never
// collide ("since we use distinctive colors, it is easy to locate the
// artificial points later on").
const ArtificialIDBase = uint64(1) << 32

// ReconConfig tunes Algorithm 6.
type ReconConfig struct {
	// TextureGridU and TextureGridV set how many artificial feature
	// points the imprinted texture contributes across each annotated
	// surface (columns × rows). Zero TextureGridU adapts the column count
	// to the span so every 15 cm obstacle-map cell along it receives at
	// least OBSTACLE_THRESHOLD points; TextureGridV defaults to 4.
	TextureGridU, TextureGridV int
	// MinTriangulationViews is how many photos must agree on a corner
	// for it to triangulate. Defaults to 2 (a corner is a single
	// explicitly corresponded point, unlike blind feature matches).
	MinTriangulationViews int
}

func (c ReconConfig) withDefaults() ReconConfig {
	if c.TextureGridV == 0 {
		c.TextureGridV = 4
	}
	if c.MinTriangulationViews == 0 {
		c.MinTriangulationViews = 2
	}
	return c
}

// gridColumns resolves the texture column count for a span length.
func (c ReconConfig) gridColumns(span float64) int {
	if c.TextureGridU > 0 {
		return c.TextureGridU
	}
	n := int(math.Ceil(span / 0.1))
	if n < 8 {
		n = 8
	}
	return n
}

// SurfaceRecon describes one reconstructed featureless object.
type SurfaceRecon struct {
	// Object is the Algorithm 5 cluster index.
	Object int
	// Corners3D are the triangulated world corners, in the consistent
	// per-photo order produced by imaging.OrderCorners.
	Corners3D [4]geom.Vec3
	// Features are the artificial texture features injected on the
	// surface.
	Features []venue.Feature
	// TextureID is the distinctive texture assigned from the database.
	TextureID int
}

// Span returns the reconstructed floor-plane extent of the surface (the
// projection of its first quad edge), which the obstacle map renders as a
// wall. For a vertical surface every horizontal edge projects to the same
// footprint.
func (s SurfaceRecon) Span() geom.Segment {
	return geom.Seg(s.Corners3D[0].XY(), s.Corners3D[1].XY())
}

// ReconResult reports one Algorithm 6 run.
type ReconResult struct {
	// Identified is the number of distinct objects Algorithm 5 produced.
	Identified int
	// Reconstructed is how many of them triangulated and entered the
	// model as artificial points.
	Reconstructed int
	// Surfaces describes each reconstructed object.
	Surfaces []SurfaceRecon
	// Batch is the SfM result of re-registering the textured photos.
	Batch sfm.BatchResult
}

// Reconstruct implements Algorithm 6 (featureless surfaces reconstruction).
// For every object identified by Algorithm 5 it:
//
//  1. triangulates the object's four corners from the per-photo quads
//     (in the real pipeline this correspondence is what the imprinted
//     texture gives the SfM matcher);
//  2. renders the distinctive texture into each photo's pixel patch
//     (projectTextureToPhoto) — the actual image operation the paper
//     performs with imagemagick;
//  3. injects a grid of artificial features across the world-space quad
//     and appends matching observations to the task photos;
//  4. re-runs incremental SfM over the textured photos so the new points
//     triangulate into the model.
//
// nextID supplies unique artificial feature IDs; pass a counter starting at
// ArtificialIDBase and reuse it across tasks.
func Reconstruct(
	model *sfm.Model,
	world *camera.World,
	task Task,
	bounds []ObjectBounds,
	texDB imaging.TextureDB,
	cfg ReconConfig,
	nextID *uint64,
	rng *rand.Rand,
) (ReconResult, error) {
	if model == nil || world == nil {
		return ReconResult{}, fmt.Errorf("annotation: nil model or world")
	}
	if nextID == nil {
		return ReconResult{}, fmt.Errorf("annotation: nil feature ID counter")
	}
	if *nextID < ArtificialIDBase {
		*nextID = ArtificialIDBase
	}
	cfg = cfg.withDefaults()

	res := ReconResult{Identified: len(bounds)}
	photos := append([]camera.Photo(nil), task.Photos...)

	for _, ob := range bounds {
		corners, ok := triangulateCorners(task.Photos, ob, cfg.MinTriangulationViews)
		if !ok {
			continue
		}
		tex := texDB.Get(ob.Object + 1)

		// Step 2: imprint the texture into each photo's patch image —
		// exercising the real pixel path (the SfM simulation keys on the
		// injected features below, as the real pipeline keys on the
		// texture's appearance).
		for pi := range photos {
			q, has := ob.QuadByPhoto[pi]
			if !has {
				continue
			}
			patch, err := imaging.NewGray(64, 64)
			if err != nil {
				return ReconResult{}, fmt.Errorf("annotation: patch: %w", err)
			}
			patch.Fill(128)
			pixQuad := imaging.Quad{
				scaleToPixels(q[0], 64), scaleToPixels(q[1], 64),
				scaleToPixels(q[2], 64), scaleToPixels(q[3], 64),
			}
			if _, err := imaging.ProjectTexture(patch, tex, pixQuad); err != nil {
				continue // degenerate annotation; skip imprint
			}
		}

		// Step 3: artificial features across the bilinear world quad,
		// dense enough that the obstacle map sees a solid wall.
		cols := cfg.gridColumns(corners[0].Dist(corners[1]))
		var feats []venue.Feature
		for iu := 0; iu < cols; iu++ {
			for iv := 0; iv < cfg.TextureGridV; iv++ {
				u := (float64(iu) + 0.5) / float64(cols)
				vv := (float64(iv) + 0.5) / float64(cfg.TextureGridV)
				pos := bilinear3(corners, u, vv)
				*nextID++
				feats = append(feats, venue.Feature{
					ID:         *nextID,
					Pos:        pos,
					Artificial: true,
				})
			}
		}
		world.AddFeatures(feats)
		model.AddWorldFeatures(feats)

		// Step 4: the textured photos now show the features; append the
		// corresponding observations.
		for pi := range photos {
			if _, has := ob.QuadByPhoto[pi]; !has {
				continue
			}
			pose := photos[pi].Pose
			in := photos[pi].Intrinsics
			for _, f := range feats {
				if _, _, ok := camera.Project(pose, in, f.Pos); ok {
					photos[pi].Obs = append(photos[pi].Obs, camera.Observation{FeatureID: f.ID})
				}
			}
		}

		res.Surfaces = append(res.Surfaces, SurfaceRecon{
			Object:    ob.Object,
			Corners3D: corners,
			Features:  feats,
			TextureID: tex.ID,
		})
	}

	// Re-run SfM with the textured photo set (Algorithm 6 line 8).
	batch, err := model.RegisterBatch(photos, rng)
	if err != nil {
		return ReconResult{}, fmt.Errorf("annotation: re-register: %w", err)
	}
	res.Batch = batch

	// Count objects whose artificial points actually made it into the
	// model.
	reconstructed := 0
	cloud := model.Cloud()
	inModel := make(map[uint64]bool)
	for _, p := range cloud.Points() {
		if p.Artificial {
			inModel[p.FeatureID] = true
		}
	}
	var kept []SurfaceRecon
	for _, s := range res.Surfaces {
		n := 0
		for _, f := range s.Features {
			if inModel[f.ID] {
				n++
			}
		}
		if n >= len(s.Features)/2 {
			reconstructed++
			kept = append(kept, s)
		}
	}
	res.Reconstructed = reconstructed
	res.Surfaces = kept
	return res, nil
}

// triangulateCorners recovers the four 3D corners of an object from its
// per-photo image quads by intersecting the corner rays of every photo
// (least-squares closest point to the bundle of 3D lines).
func triangulateCorners(photos []camera.Photo, ob ObjectBounds, minViews int) ([4]geom.Vec3, bool) {
	var out [4]geom.Vec3
	for ci := 0; ci < 4; ci++ {
		var origins, dirs []geom.Vec3
		for pi, photo := range photos {
			q, has := ob.QuadByPhoto[pi]
			if !has {
				continue
			}
			ray, zPerM := camera.RayThrough(photo.Pose, photo.Intrinsics, q[ci].X, q[ci].Y)
			origins = append(origins, ray.Origin.Lift(photo.Intrinsics.EyeHeight))
			dirs = append(dirs, geom.V3(ray.Dir.X, ray.Dir.Y, zPerM).Norm())
		}
		if len(origins) < minViews {
			return out, false
		}
		p, ok := closestPointToLines(origins, dirs)
		if !ok {
			return out, false
		}
		out[ci] = p
	}
	// Sanity: corners must be near each other (same object) and above
	// ground.
	span := out[0].Dist(out[1])
	if span > 30 || math.IsNaN(span) {
		return out, false
	}
	return out, true
}

// closestPointToLines solves min_x Σ ‖(I - d dᵀ)(x - o)‖² over lines
// (o_i, d_i), the standard linear triangulation.
func closestPointToLines(origins, dirs []geom.Vec3) (geom.Vec3, bool) {
	var a [3][3]float64
	var b [3]float64
	for i := range origins {
		d := dirs[i]
		o := origins[i]
		// M = I - d dᵀ
		m := [3][3]float64{
			{1 - d.X*d.X, -d.X * d.Y, -d.X * d.Z},
			{-d.Y * d.X, 1 - d.Y*d.Y, -d.Y * d.Z},
			{-d.Z * d.X, -d.Z * d.Y, 1 - d.Z*d.Z},
		}
		for r := 0; r < 3; r++ {
			for c := 0; c < 3; c++ {
				a[r][c] += m[r][c]
			}
			b[r] += m[r][0]*o.X + m[r][1]*o.Y + m[r][2]*o.Z
		}
	}
	x, ok := solve3(a, b)
	if !ok {
		return geom.Vec3{}, false
	}
	return geom.V3(x[0], x[1], x[2]), true
}

// solve3 solves a 3x3 linear system by Gaussian elimination with partial
// pivoting.
func solve3(a [3][3]float64, b [3]float64) ([3]float64, bool) {
	var x [3]float64
	for col := 0; col < 3; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < 3; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-12 {
			return x, false
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		for r := col + 1; r < 3; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c < 3; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	for r := 2; r >= 0; r-- {
		sum := b[r]
		for c := r + 1; c < 3; c++ {
			sum -= a[r][c] * x[c]
		}
		x[r] = sum / a[r][r]
	}
	return x, true
}

// bilinear3 interpolates inside the 3D quad, treating q0→q1 and q3→q2 as
// the two horizontal edges.
func bilinear3(q [4]geom.Vec3, u, v float64) geom.Vec3 {
	bottom := q[0].Add(q[1].Sub(q[0]).Scale(u))
	top := q[3].Add(q[2].Sub(q[3]).Scale(u))
	return bottom.Add(top.Sub(bottom).Scale(v))
}

func scaleToPixels(p geom.Vec2, size float64) geom.Vec2 {
	return geom.V2(p.X*size, p.Y*size)
}
