package geom

import "math"

// Polygon is a simple 2D polygon given by its vertices in order (either
// winding). The closing edge from the last vertex back to the first is
// implicit.
type Polygon []Vec2

// Rect returns the axis-aligned rectangle polygon spanning the two corners.
func Rect(a, b Vec2) Polygon {
	box := NewAABB(a, b)
	return Polygon{
		box.Min,
		{box.Max.X, box.Min.Y},
		box.Max,
		{box.Min.X, box.Max.Y},
	}
}

// RectCenter returns an axis-aligned rectangle polygon centred at c with the
// given width (x extent) and height (y extent).
func RectCenter(c Vec2, w, h float64) Polygon {
	return Rect(Vec2{c.X - w/2, c.Y - h/2}, Vec2{c.X + w/2, c.Y + h/2})
}

// Edges returns the polygon's edges, including the closing edge.
func (p Polygon) Edges() []Segment {
	if len(p) < 2 {
		return nil
	}
	edges := make([]Segment, 0, len(p))
	for i := range p {
		edges = append(edges, Segment{A: p[i], B: p[(i+1)%len(p)]})
	}
	return edges
}

// Area returns the absolute area of the polygon (shoelace formula).
func (p Polygon) Area() float64 {
	if len(p) < 3 {
		return 0
	}
	var sum float64
	for i := range p {
		j := (i + 1) % len(p)
		sum += p[i].Cross(p[j])
	}
	return math.Abs(sum) / 2
}

// Centroid returns the area centroid of the polygon. For degenerate polygons
// it falls back to the vertex average.
func (p Polygon) Centroid() Vec2 {
	if len(p) == 0 {
		return Vec2{}
	}
	var cx, cy, a float64
	for i := range p {
		j := (i + 1) % len(p)
		cross := p[i].Cross(p[j])
		a += cross
		cx += (p[i].X + p[j].X) * cross
		cy += (p[i].Y + p[j].Y) * cross
	}
	if math.Abs(a) < Eps {
		var sum Vec2
		for _, v := range p {
			sum = sum.Add(v)
		}
		return sum.Scale(1 / float64(len(p)))
	}
	return Vec2{cx / (3 * a), cy / (3 * a)}
}

// Contains reports whether the point lies strictly inside the polygon, using
// the even-odd ray-crossing rule. Points on the boundary may report either
// value.
func (p Polygon) Contains(pt Vec2) bool {
	if len(p) < 3 {
		return false
	}
	inside := false
	for i, j := 0, len(p)-1; i < len(p); j, i = i, i+1 {
		vi, vj := p[i], p[j]
		if (vi.Y > pt.Y) != (vj.Y > pt.Y) {
			xCross := (vj.X-vi.X)*(pt.Y-vi.Y)/(vj.Y-vi.Y) + vi.X
			if pt.X < xCross {
				inside = !inside
			}
		}
	}
	return inside
}

// Bounds returns the axis-aligned bounding box of the polygon.
func (p Polygon) Bounds() AABB {
	b := EmptyAABB()
	for _, v := range p {
		b = b.AddPoint(v)
	}
	return b
}
