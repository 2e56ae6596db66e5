package geom

import (
	"math"
	"testing"
)

func TestRect(t *testing.T) {
	r := Rect(V2(2, 3), V2(0, 1))
	if len(r) != 4 {
		t.Fatalf("Rect has %d vertices", len(r))
	}
	if !almostEq(r.Area(), 4) {
		t.Errorf("Area = %v, want 4", r.Area())
	}
	if !r.Centroid().ApproxEq(V2(1, 2)) {
		t.Errorf("Centroid = %v, want (1,2)", r.Centroid())
	}
}

func TestRectCenter(t *testing.T) {
	r := RectCenter(V2(5, 5), 2, 4)
	b := r.Bounds()
	if !b.Min.ApproxEq(V2(4, 3)) || !b.Max.ApproxEq(V2(6, 7)) {
		t.Errorf("bounds = %+v", b)
	}
	if !r.Centroid().ApproxEq(V2(5, 5)) {
		t.Errorf("Centroid = %v", r.Centroid())
	}
}

func TestPolygonContains(t *testing.T) {
	// L-shaped polygon.
	l := Polygon{V2(0, 0), V2(4, 0), V2(4, 2), V2(2, 2), V2(2, 4), V2(0, 4)}
	tests := []struct {
		p    Vec2
		want bool
	}{
		{V2(1, 1), true},
		{V2(3, 1), true},
		{V2(1, 3), true},
		{V2(3, 3), false}, // in the notch
		{V2(-1, 1), false},
		{V2(5, 5), false},
	}
	for _, tt := range tests {
		if got := l.Contains(tt.p); got != tt.want {
			t.Errorf("Contains(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if !almostEq(l.Area(), 12) {
		t.Errorf("L area = %v, want 12", l.Area())
	}
}

func TestPolygonContainsDegenerate(t *testing.T) {
	if (Polygon{}).Contains(V2(0, 0)) {
		t.Error("empty polygon should contain nothing")
	}
	if (Polygon{V2(0, 0), V2(1, 1)}).Contains(V2(0.5, 0.5)) {
		t.Error("2-gon should contain nothing")
	}
}

func TestPolygonEdges(t *testing.T) {
	tri := Polygon{V2(0, 0), V2(1, 0), V2(0, 1)}
	edges := tri.Edges()
	if len(edges) != 3 {
		t.Fatalf("edges = %d, want 3", len(edges))
	}
	if !edges[2].A.ApproxEq(V2(0, 1)) || !edges[2].B.ApproxEq(V2(0, 0)) {
		t.Error("closing edge wrong")
	}
	if (Polygon{V2(1, 1)}).Edges() != nil {
		t.Error("single vertex should have no edges")
	}
}

// mapVertices applies f to every vertex of p, leaving p untouched.
func mapVertices(p Polygon, f func(Vec2) Vec2) Polygon {
	out := make(Polygon, len(p))
	for i, v := range p {
		out[i] = f(v)
	}
	return out
}

// TestPolygonTransforms: the centroid follows a rigid motion of the
// vertices and the area is invariant under it.
func TestPolygonTransforms(t *testing.T) {
	sq := Rect(V2(0, 0), V2(2, 2))
	moved := mapVertices(sq, func(v Vec2) Vec2 { return v.Add(V2(10, 0)) })
	if !moved.Centroid().ApproxEq(V2(11, 1)) {
		t.Errorf("translated centroid = %v", moved.Centroid())
	}
	c := V2(1, 1)
	rot := mapVertices(sq, func(v Vec2) Vec2 { return rotate(v.Sub(c), math.Pi/2).Add(c) })
	if !almostEq(rot.Area(), sq.Area()) {
		t.Error("rotation changed area")
	}
	if !rot.Centroid().ApproxEq(c) {
		t.Errorf("rotation about centroid moved centroid: %v", rot.Centroid())
	}
}

func TestPolygonCentroidDegenerate(t *testing.T) {
	// Collinear points: fall back to vertex average.
	line := Polygon{V2(0, 0), V2(1, 0), V2(2, 0)}
	if !line.Centroid().ApproxEq(V2(1, 0)) {
		t.Errorf("degenerate centroid = %v", line.Centroid())
	}
	if (Polygon{}).Centroid() != (Vec2{}) {
		t.Error("empty centroid should be zero")
	}
}

// Property: for random convex quads (rectangles rotated), sampled interior
// points are contained and exterior points are not.
func TestContainsRotatedRect(t *testing.T) {
	for i := 0; i < 50; i++ {
		theta := float64(i) * 0.13
		r := mapVertices(RectCenter(V2(0, 0), 4, 2), func(v Vec2) Vec2 { return rotate(v, theta) })
		inside := rotate(V2(1, 0), theta)
		outside := rotate(V2(3, 0), theta)
		if !r.Contains(inside) {
			t.Fatalf("theta=%v inside point not contained", theta)
		}
		if r.Contains(outside) {
			t.Fatalf("theta=%v outside point contained", theta)
		}
	}
}

// rotate returns v rotated by theta radians counter-clockwise.
func rotate(v Vec2, theta float64) Vec2 {
	s, c := math.Sincos(theta)
	return V2(v.X*c-v.Y*s, v.X*s+v.Y*c)
}
