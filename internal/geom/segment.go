package geom

import (
	"fmt"
	"math"
)

// Segment is a 2D line segment between two endpoints.
type Segment struct {
	A, B Vec2
}

// Seg returns the segment from a to b.
func Seg(a, b Vec2) Segment { return Segment{A: a, B: b} }

// Len returns the length of the segment.
func (s Segment) Len() float64 { return s.A.Dist(s.B) }

// Dir returns the unit direction from A to B.
func (s Segment) Dir() Vec2 { return s.B.Sub(s.A).Norm() }

// Normal returns the unit normal of the segment (90° counter-clockwise from
// its direction).
func (s Segment) Normal() Vec2 { return s.Dir().Perp() }

// Mid returns the midpoint of the segment.
func (s Segment) Mid() Vec2 { return s.A.Lerp(s.B, 0.5) }

// At returns the point at parameter t along the segment (t=0 → A, t=1 → B).
func (s Segment) At(t float64) Vec2 { return s.A.Lerp(s.B, t) }

// String implements fmt.Stringer.
func (s Segment) String() string { return fmt.Sprintf("[%v -> %v]", s.A, s.B) }

// ClosestPoint returns the point on the segment closest to p and the
// parameter t in [0, 1] at which it occurs.
func (s Segment) ClosestPoint(p Vec2) (Vec2, float64) {
	d := s.B.Sub(s.A)
	l2 := d.Len2()
	if l2 < Eps {
		return s.A, 0
	}
	t := Clamp(p.Sub(s.A).Dot(d)/l2, 0, 1)
	return s.At(t), t
}

// DistToPoint returns the distance from p to the nearest point on s.
func (s Segment) DistToPoint(p Vec2) float64 {
	q, _ := s.ClosestPoint(p)
	return p.Dist(q)
}

// Ray is a half line starting at Origin in unit direction Dir.
type Ray struct {
	Origin Vec2
	Dir    Vec2
}

// NewRay returns a ray from origin towards dir (normalised internally).
func NewRay(origin, dir Vec2) Ray { return Ray{Origin: origin, Dir: dir.Norm()} }

// At returns the point at distance t along the ray.
func (r Ray) At(t float64) Vec2 { return r.Origin.Add(r.Dir.Scale(t)) }

// IntersectSegment returns the distance t ≥ 0 along the ray at which it hits
// the segment, and whether it hits at all. For collinear overlap it returns
// the nearest overlapping point.
func (r Ray) IntersectSegment(s Segment) (float64, bool) {
	d := s.B.Sub(s.A)
	denom := r.Dir.Cross(d)
	qp := s.A.Sub(r.Origin)
	if math.Abs(denom) < Eps {
		if math.Abs(qp.Cross(r.Dir)) > Eps {
			return 0, false
		}
		// Collinear: project both endpoints on the ray.
		ta := qp.Dot(r.Dir)
		tb := s.B.Sub(r.Origin).Dot(r.Dir)
		if ta > tb {
			ta, tb = tb, ta
		}
		if tb < -Eps {
			return 0, false
		}
		if ta < 0 {
			ta = 0
		}
		return ta, true
	}
	t := qp.Cross(d) / denom
	u := qp.Cross(r.Dir) / denom
	if t < -Eps || u < -Eps || u > 1+Eps {
		return 0, false
	}
	if t < 0 {
		t = 0
	}
	return t, true
}

// AABB is a 2D axis-aligned bounding box.
type AABB struct {
	Min, Max Vec2
}

// NewAABB returns the box spanning the two corner points in any order.
func NewAABB(a, b Vec2) AABB {
	return AABB{
		Min: Vec2{math.Min(a.X, b.X), math.Min(a.Y, b.Y)},
		Max: Vec2{math.Max(a.X, b.X), math.Max(a.Y, b.Y)},
	}
}

// EmptyAABB returns a box that contains nothing and extends under union.
func EmptyAABB() AABB {
	return AABB{
		Min: Vec2{math.Inf(1), math.Inf(1)},
		Max: Vec2{math.Inf(-1), math.Inf(-1)},
	}
}

// Empty reports whether the box contains no points.
func (b AABB) Empty() bool { return b.Min.X > b.Max.X || b.Min.Y > b.Max.Y }

// Width returns the x extent of the box (0 when empty).
func (b AABB) Width() float64 {
	if b.Empty() {
		return 0
	}
	return b.Max.X - b.Min.X
}

// Height returns the y extent of the box (0 when empty).
func (b AABB) Height() float64 {
	if b.Empty() {
		return 0
	}
	return b.Max.Y - b.Min.Y
}

// Area returns the area of the box.
func (b AABB) Area() float64 { return b.Width() * b.Height() }

// Center returns the centre point of the box.
func (b AABB) Center() Vec2 { return b.Min.Lerp(b.Max, 0.5) }

// Contains reports whether p lies inside or on the boundary of the box.
func (b AABB) Contains(p Vec2) bool {
	return p.X >= b.Min.X-Eps && p.X <= b.Max.X+Eps &&
		p.Y >= b.Min.Y-Eps && p.Y <= b.Max.Y+Eps
}

// Expand returns the box grown by d on every side.
func (b AABB) Expand(d float64) AABB {
	return AABB{
		Min: Vec2{b.Min.X - d, b.Min.Y - d},
		Max: Vec2{b.Max.X + d, b.Max.Y + d},
	}
}

// Union returns the smallest box containing both b and o.
func (b AABB) Union(o AABB) AABB {
	if b.Empty() {
		return o
	}
	if o.Empty() {
		return b
	}
	return AABB{
		Min: Vec2{math.Min(b.Min.X, o.Min.X), math.Min(b.Min.Y, o.Min.Y)},
		Max: Vec2{math.Max(b.Max.X, o.Max.X), math.Max(b.Max.Y, o.Max.Y)},
	}
}

// AddPoint returns the box extended to include p.
func (b AABB) AddPoint(p Vec2) AABB {
	return b.Union(AABB{Min: p, Max: p})
}

// Intersects reports whether the two boxes overlap (including touching).
func (b AABB) Intersects(o AABB) bool {
	return !(b.Max.X < o.Min.X || o.Max.X < b.Min.X ||
		b.Max.Y < o.Min.Y || o.Max.Y < b.Min.Y)
}
