package venue

import (
	"fmt"
	"math"
	"math/rand"

	"snaptask/internal/geom"
)

// Surface is one vertical planar face in the venue: a stretch of outer wall
// or one side of a piece of furniture. Surfaces carry the material that
// determines their feature density and transparency.
type Surface struct {
	// ID is unique within the venue, starting at 1.
	ID int
	// Seg is the surface's footprint on the floor plane.
	Seg geom.Segment
	// Top is the height of the surface's upper edge in metres (the lower
	// edge is the floor).
	Top float64
	// Material of the face.
	Material Material
	// Outer marks outer-boundary walls, the subject of the paper's
	// outer-bounds reconstruction metric.
	Outer bool
	// ObstacleID is the obstacle this face belongs to, or 0 for walls.
	ObstacleID int
}

// Obstacle is a piece of furniture or an interior structure with a polygonal
// footprint. Its vertical faces become Surfaces; its top face may carry
// clutter features (books on shelves, items on tables).
type Obstacle struct {
	// ID is unique within the venue, starting at 1.
	ID int
	// Name describes the obstacle for rendering and debugging.
	Name string
	// Poly is the footprint.
	Poly geom.Polygon
	// Height in metres.
	Height float64
	// Material of the vertical faces.
	Material Material
	// TopClutter is the feature density (per m²) of the top face. Tall
	// shelves full of books are rich; bare tables are sparse — the paper
	// observes exactly this as holes inside table footprints.
	TopClutter float64
}

// Feature is one visual feature point an SfM extractor would detect,
// anchored in the world. Feature identity is what the simulated matcher
// keys on.
type Feature struct {
	// ID is unique within the venue's feature set, starting at 1.
	ID uint64
	// Pos is the feature's 3D world position.
	Pos geom.Vec3
	// Normal is the outward floor-plane normal of the surface carrying
	// the feature; the zero vector for top-face (clutter) features,
	// which are visible from any direction.
	Normal geom.Vec2
	// SurfaceID is the carrying surface, or 0 for top-face features.
	SurfaceID int
	// Artificial marks features injected by the annotation pipeline's
	// texture imprinting rather than generated from venue materials.
	Artificial bool
}

// Occluder is a floor-plane segment that may block sight. Transparent
// occluders (glass) never block sight; opaque ones block sight for rays at
// eye level below Top.
type Occluder struct {
	Seg         geom.Segment
	Top         float64
	Transparent bool
}

// Venue is an immutable indoor environment. Construct with Builder. All
// methods are safe for concurrent use.
type Venue struct {
	name      string
	height    float64
	outer     geom.Polygon
	entrances []geom.Segment
	surfaces  []Surface
	obstacles []Obstacle
	hotspots  []geom.Vec2
	entrance  geom.Vec2
}

// Name returns the venue's name.
func (v *Venue) Name() string { return v.name }

// Height returns the ceiling height in metres.
func (v *Venue) Height() float64 { return v.height }

// Outer returns the outer boundary polygon.
func (v *Venue) Outer() geom.Polygon { return append(geom.Polygon(nil), v.outer...) }

// Surfaces returns all vertical surfaces.
func (v *Venue) Surfaces() []Surface { return append([]Surface(nil), v.surfaces...) }

// Obstacles returns all obstacles.
func (v *Venue) Obstacles() []Obstacle { return append([]Obstacle(nil), v.obstacles...) }

// Hotspots returns the social hotspots participants gravitate to.
func (v *Venue) Hotspots() []geom.Vec2 { return append([]geom.Vec2(nil), v.hotspots...) }

// Entrance returns the bootstrap position just inside the entrance, where
// the paper shoots its initial video.
func (v *Venue) Entrance() geom.Vec2 { return v.entrance }

// EntranceSegments returns the entrance gap segments on the outer
// boundary. The backend anchors its initial model here and treats them as
// known boundary (the paper excludes the entrance from mapping because "the
// entrance was already included in the initial model").
func (v *Venue) EntranceSegments() []geom.Segment {
	return append([]geom.Segment(nil), v.entrances...)
}

// Bounds returns the floor-plane bounding box of the venue.
func (v *Venue) Bounds() geom.AABB { return v.outer.Bounds() }

// Area returns the floor area in m².
func (v *Venue) Area() float64 { return v.outer.Area() }

// OuterBoundsLength returns the total length of the outer walls, excluding
// entrance gaps — the paper's 98.89 m ground-truth quantity.
func (v *Venue) OuterBoundsLength() float64 {
	var sum float64
	for _, s := range v.surfaces {
		if s.Outer {
			sum += s.Seg.Len()
		}
	}
	return sum
}

// OuterSurfaces returns only the outer-wall surfaces.
func (v *Venue) OuterSurfaces() []Surface {
	var out []Surface
	for _, s := range v.surfaces {
		if s.Outer {
			out = append(out, s)
		}
	}
	return out
}

// FeaturelessSurfaces returns the surfaces whose material defeats SfM —
// the targets of annotation tasks.
func (v *Venue) FeaturelessSurfaces() []Surface {
	var out []Surface
	for _, s := range v.surfaces {
		if s.Material.Featureless() {
			out = append(out, s)
		}
	}
	return out
}

// Inside reports whether p lies inside the outer boundary.
func (v *Venue) Inside(p geom.Vec2) bool { return v.outer.Contains(p) }

// Blocked reports whether a person cannot stand at p: outside the venue or
// inside an obstacle footprint.
func (v *Venue) Blocked(p geom.Vec2) bool {
	if !v.outer.Contains(p) {
		return true
	}
	for _, o := range v.obstacles {
		if o.Poly.Contains(p) {
			return true
		}
	}
	return false
}

// Occluders returns the sight-blocking geometry for ray casting.
func (v *Venue) Occluders() []Occluder {
	out := make([]Occluder, 0, len(v.surfaces))
	for _, s := range v.surfaces {
		out = append(out, Occluder{
			Seg:         s.Seg,
			Top:         s.Top,
			Transparent: s.Material.Transparent(),
		})
	}
	return out
}

// RandomFreePoint returns a uniformly sampled unblocked interior point. It
// returns an error if none is found after many attempts (a malformed venue).
func (v *Venue) RandomFreePoint(rng *rand.Rand) (geom.Vec2, error) {
	b := v.Bounds()
	for i := 0; i < 10000; i++ {
		p := geom.V2(b.Min.X+rng.Float64()*b.Width(), b.Min.Y+rng.Float64()*b.Height())
		if !v.Blocked(p) {
			return p, nil
		}
	}
	return geom.Vec2{}, fmt.Errorf("venue: no free space found in %q", v.name)
}

// MullionSpacing is the distance between frame lines (mullions) on glass
// surfaces. Real glass walls are held by metal frames that do yield SfM
// features even though the panes themselves do not — the paper observes
// glass bounds reconstructing exactly where frames, posters or furniture
// sit against the panes.
const MullionSpacing = 1.2

// mullionFeatures is the number of feature points per frame line.
const mullionFeatures = 6

// GenerateFeatures deterministically places visual feature points on every
// surface and obstacle top according to material feature densities. Glass
// surfaces additionally carry sparse frame (mullion) features. The same
// venue and seed always produce the identical feature set; feature IDs
// start at 1 and are dense.
func (v *Venue) GenerateFeatures(rng *rand.Rand) []Feature {
	out := make([]Feature, 0, v.expectedFeatures())
	var id uint64
	for _, s := range v.surfaces {
		area := s.Seg.Len() * s.Top
		n := poissonRound(rng, area*s.Material.FeatureDensity())
		normal := s.Seg.Normal()
		for i := 0; i < n; i++ {
			id++
			t := rng.Float64()
			z := 0.15 + rng.Float64()*(s.Top-0.15)
			if s.Top <= 0.15 {
				z = s.Top * rng.Float64()
			}
			out = append(out, Feature{
				ID:        id,
				Pos:       s.Seg.At(t).Lift(z),
				Normal:    normal,
				SurfaceID: s.ID,
			})
		}
		if s.Material == Glass {
			// Frame lines every MullionSpacing metres, including both
			// ends of the surface.
			length := s.Seg.Len()
			for d := 0.0; d <= length; d += MullionSpacing {
				t := d / length
				for k := 0; k < mullionFeatures; k++ {
					id++
					z := 0.2 + (s.Top-0.4)*float64(k)/float64(mullionFeatures-1)
					out = append(out, Feature{
						ID:        id,
						Pos:       s.Seg.At(t).Lift(z),
						Normal:    normal,
						SurfaceID: s.ID,
					})
				}
			}
		}
	}
	for _, o := range v.obstacles {
		if o.TopClutter <= 0 {
			continue
		}
		n := poissonRound(rng, o.Poly.Area()*o.TopClutter)
		b := o.Poly.Bounds()
		placed := 0
		for attempts := 0; placed < n && attempts < n*40; attempts++ {
			p := geom.V2(b.Min.X+rng.Float64()*b.Width(), b.Min.Y+rng.Float64()*b.Height())
			if !o.Poly.Contains(p) {
				continue
			}
			id++
			out = append(out, Feature{
				ID:  id,
				Pos: p.Lift(o.Height),
			})
			placed++
		}
	}
	return out
}

// expectedFeatures sizes GenerateFeatures' output from the venue alone,
// without drawing from its rng: the mean feature count plus four standard
// deviations of the Poisson draws, so the slice almost never regrows.
func (v *Venue) expectedFeatures() int {
	mean := 0.0
	for _, s := range v.surfaces {
		mean += s.Seg.Len() * s.Top * s.Material.FeatureDensity()
		if s.Material == Glass {
			mean += (s.Seg.Len()/MullionSpacing + 1) * mullionFeatures
		}
	}
	for _, o := range v.obstacles {
		if o.TopClutter > 0 {
			mean += o.Poly.Area() * o.TopClutter
		}
	}
	return int(mean + 4*math.Sqrt(mean) + 1)
}

// poissonRound samples a Poisson-distributed count with the given mean,
// falling back to rounding for large means where the exact sampler would be
// slow.
func poissonRound(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 50 {
		// Normal approximation.
		n := int(mean + rng.NormFloat64()*math.Sqrt(mean) + 0.5)
		if n < 0 {
			return 0
		}
		return n
	}
	// Knuth's method.
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
