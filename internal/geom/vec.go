// Package geom provides the 2D/3D geometric primitives that the rest of
// SnapTask is built on: vectors, line segments, rays, axis-aligned boxes and
// polygons, together with the intersection and distance predicates used by
// the venue model, the camera ray caster and the mapping algorithms.
//
// All coordinates are in metres in a right-handed coordinate system. The 2D
// plane is the floor (x, y); z points up.
package geom

import (
	"fmt"
	"math"
)

// Eps is the tolerance used by the approximate comparisons in this package.
// One tenth of a millimetre is far below the 15 cm grid resolution SnapTask
// operates at, so treating smaller differences as zero is always safe.
const Eps = 1e-9

// Vec2 is a 2D point or direction on the floor plane.
type Vec2 struct {
	X, Y float64
}

// V2 returns the vector (x, y). It exists to keep call sites short.
func V2(x, y float64) Vec2 { return Vec2{X: x, Y: y} }

// Add returns v + w.
func (v Vec2) Add(w Vec2) Vec2 { return Vec2{v.X + w.X, v.Y + w.Y} }

// Sub returns v - w.
func (v Vec2) Sub(w Vec2) Vec2 { return Vec2{v.X - w.X, v.Y - w.Y} }

// Scale returns v scaled by s.
func (v Vec2) Scale(s float64) Vec2 { return Vec2{v.X * s, v.Y * s} }

// Dot returns the dot product v·w.
func (v Vec2) Dot(w Vec2) float64 { return v.X*w.X + v.Y*w.Y }

// Cross returns the 2D cross product (the z component of the 3D cross
// product of the embedded vectors). Positive when w is counter-clockwise
// from v.
func (v Vec2) Cross(w Vec2) float64 { return v.X*w.Y - v.Y*w.X }

// Len returns the Euclidean length of v.
func (v Vec2) Len() float64 { return math.Hypot(v.X, v.Y) }

// Len2 returns the squared length of v.
func (v Vec2) Len2() float64 { return v.X*v.X + v.Y*v.Y }

// Dist returns the Euclidean distance between v and w.
func (v Vec2) Dist(w Vec2) float64 { return v.Sub(w).Len() }

// Dist2 returns the squared distance between v and w.
func (v Vec2) Dist2(w Vec2) float64 { return v.Sub(w).Len2() }

// Norm returns v scaled to unit length. The zero vector is returned
// unchanged so callers never divide by zero.
func (v Vec2) Norm() Vec2 {
	l := v.Len()
	if l < Eps {
		return Vec2{}
	}
	return Vec2{v.X / l, v.Y / l}
}

// Perp returns v rotated 90° counter-clockwise.
func (v Vec2) Perp() Vec2 { return Vec2{-v.Y, v.X} }

// Angle returns the angle of v in radians in (-π, π], measured
// counter-clockwise from the positive x axis.
func (v Vec2) Angle() float64 { return math.Atan2(v.Y, v.X) }

// Lerp returns the linear interpolation between v and w at parameter t,
// where t=0 yields v and t=1 yields w.
func (v Vec2) Lerp(w Vec2, t float64) Vec2 {
	return Vec2{v.X + (w.X-v.X)*t, v.Y + (w.Y-v.Y)*t}
}

// ApproxEq reports whether v and w are within Eps of each other in both
// coordinates.
func (v Vec2) ApproxEq(w Vec2) bool {
	return math.Abs(v.X-w.X) < Eps && math.Abs(v.Y-w.Y) < Eps
}

// String implements fmt.Stringer.
func (v Vec2) String() string { return fmt.Sprintf("(%.3f, %.3f)", v.X, v.Y) }

// UnitFromAngle returns the unit vector pointing in direction theta radians.
func UnitFromAngle(theta float64) Vec2 {
	s, c := math.Sincos(theta)
	return Vec2{c, s}
}

// Vec3 is a 3D point or direction.
type Vec3 struct {
	X, Y, Z float64
}

// V3 returns the vector (x, y, z).
func V3(x, y, z float64) Vec3 { return Vec3{X: x, Y: y, Z: z} }

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v scaled by s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Dot returns the dot product v·w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the cross product v×w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}

// Len returns the Euclidean length of v.
func (v Vec3) Len() float64 { return math.Sqrt(v.Dot(v)) }

// Len2 returns the squared length of v.
func (v Vec3) Len2() float64 { return v.Dot(v) }

// Dist returns the Euclidean distance between v and w.
func (v Vec3) Dist(w Vec3) float64 { return v.Sub(w).Len() }

// Dist2 returns the squared distance between v and w.
func (v Vec3) Dist2(w Vec3) float64 { return v.Sub(w).Len2() }

// Norm returns v scaled to unit length; the zero vector is returned
// unchanged.
func (v Vec3) Norm() Vec3 {
	l := v.Len()
	if l < Eps {
		return Vec3{}
	}
	return v.Scale(1 / l)
}

// XY projects v onto the floor plane, discarding z.
func (v Vec3) XY() Vec2 { return Vec2{v.X, v.Y} }

// String implements fmt.Stringer.
func (v Vec3) String() string {
	return fmt.Sprintf("(%.3f, %.3f, %.3f)", v.X, v.Y, v.Z)
}

// Lift embeds a floor-plane point at height z.
func (v Vec2) Lift(z float64) Vec3 { return Vec3{v.X, v.Y, z} }

// Clamp returns x limited to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// NormalizeAngle maps theta into (-π, π].
func NormalizeAngle(theta float64) float64 {
	for theta > math.Pi {
		theta -= 2 * math.Pi
	}
	for theta <= -math.Pi {
		theta += 2 * math.Pi
	}
	return theta
}

// AngleDiff returns the smallest signed angle from a to b, in (-π, π].
func AngleDiff(a, b float64) float64 { return NormalizeAngle(b - a) }
