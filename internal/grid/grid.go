// Package grid provides the dense 2D raster maps SnapTask's mapping layer is
// built on: integer matrices indexed by cell, anchored to world coordinates
// at a configurable resolution (15 cm in the paper, adjustable 10–50 cm),
// plus the raster operations the algorithms need — segment and polygon
// rasterisation and region expansion.
package grid

import (
	"fmt"
	"math"
	"slices"

	"snaptask/internal/geom"
)

// Cell addresses one grid cell. I is the column (x direction), J the row
// (y direction).
type Cell struct {
	I, J int
}

// String implements fmt.Stringer.
func (c Cell) String() string { return fmt.Sprintf("[%d,%d]", c.I, c.J) }

// Neighbors4 returns the 4-connected neighbours (left, right, down, up) in a
// fixed order. Callers must bounds-check.
func (c Cell) Neighbors4() [4]Cell {
	return [4]Cell{
		{c.I - 1, c.J},
		{c.I + 1, c.J},
		{c.I, c.J - 1},
		{c.I, c.J + 1},
	}
}

// Neighbors8 returns the 8-connected neighbours. Callers must bounds-check.
func (c Cell) Neighbors8() [8]Cell {
	return [8]Cell{
		{c.I - 1, c.J - 1}, {c.I, c.J - 1}, {c.I + 1, c.J - 1},
		{c.I - 1, c.J}, {c.I + 1, c.J},
		{c.I - 1, c.J + 1}, {c.I, c.J + 1}, {c.I + 1, c.J + 1},
	}
}

// Map is a dense 2D matrix of integers anchored in world space. The world
// point Origin maps to the lower-left corner of cell (0,0); each cell covers
// Res × Res metres. Cells are stored as int32, half the memory of int: the
// values are counts of rays, points and views, far below 2^31, and a write
// outside that range panics instead of wrapping. The zero value is not
// usable; construct with New or NewFromBounds.
type Map struct {
	origin geom.Vec2
	res    float64
	w, h   int
	cells  []int32
}

// New returns a w×h map at resolution res metres/cell anchored at origin.
// It returns an error for non-positive dimensions or resolution.
func New(origin geom.Vec2, res float64, w, h int) (*Map, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("grid: dimensions %dx%d must be positive", w, h)
	}
	if res <= 0 {
		return nil, fmt.Errorf("grid: resolution %v must be positive", res)
	}
	return &Map{
		origin: origin,
		res:    res,
		w:      w,
		h:      h,
		cells:  make([]int32, w*h),
	}, nil
}

// NewFromBounds returns a map covering the world-space box b at resolution
// res, rounding the dimensions up so the whole box is covered.
func NewFromBounds(b geom.AABB, res float64) (*Map, error) {
	if b.Empty() {
		return nil, fmt.Errorf("grid: empty bounds")
	}
	if res <= 0 {
		return nil, fmt.Errorf("grid: resolution %v must be positive", res)
	}
	w := int(math.Ceil(b.Width()/res)) + 1
	h := int(math.Ceil(b.Height()/res)) + 1
	return New(b.Min, res, w, h)
}

// Width returns the number of columns.
func (m *Map) Width() int { return m.w }

// Height returns the number of rows.
func (m *Map) Height() int { return m.h }

// Res returns the cell resolution in metres.
func (m *Map) Res() float64 { return m.res }

// Origin returns the world coordinate of the lower-left corner of cell (0,0).
func (m *Map) Origin() geom.Vec2 { return m.origin }

// CellArea returns the world area of one cell in m².
func (m *Map) CellArea() float64 { return m.res * m.res }

// InBounds reports whether c addresses a cell inside the map.
func (m *Map) InBounds(c Cell) bool {
	return c.I >= 0 && c.I < m.w && c.J >= 0 && c.J < m.h
}

// At returns the value at c. Out-of-bounds cells read as 0.
func (m *Map) At(c Cell) int {
	if !m.InBounds(c) {
		return 0
	}
	return int(m.cells[c.J*m.w+c.I])
}

// Set stores v at c. Out-of-bounds writes are ignored; a v outside the
// int32 range panics.
func (m *Map) Set(c Cell, v int) {
	if !m.InBounds(c) {
		return
	}
	m.cells[c.J*m.w+c.I] = cellValue(v)
}

// Add increments the value at c by dv. Out-of-bounds writes are ignored; a
// sum outside the int32 range panics.
func (m *Map) Add(c Cell, dv int) {
	if !m.InBounds(c) {
		return
	}
	k := c.J*m.w + c.I
	m.cells[k] = cellValue(int(m.cells[k]) + dv)
}

// Fill sets every cell to v (which must fit in int32, as for Set).
func (m *Map) Fill(v int) {
	x := cellValue(v)
	for i := range m.cells {
		m.cells[i] = x
	}
}

// cellValue narrows v to the cell type, panicking when it does not fit: a
// count that large is a programming error, and wrapping would hide it.
func cellValue(v int) int32 {
	if v < math.MinInt32 || v > math.MaxInt32 {
		panic(fmt.Sprintf("grid: cell value %d outside the int32 range", v))
	}
	return int32(v)
}

// NewLike returns an empty map with the same origin, resolution and
// dimensions as m.
func NewLike(m *Map) *Map {
	out, _ := New(m.origin, m.res, m.w, m.h) // m is valid, so this cannot fail
	return out
}

// Clone returns a deep copy of the map.
func (m *Map) Clone() *Map {
	out := &Map{origin: m.origin, res: m.res, w: m.w, h: m.h, cells: slices.Clone(m.cells)}
	return out
}

// SameLayout reports whether o has identical origin, resolution and
// dimensions, i.e. whether cells correspond one-to-one.
func (m *Map) SameLayout(o *Map) bool {
	return o != nil && m.w == o.w && m.h == o.h && m.res == o.res &&
		m.origin.ApproxEq(o.origin)
}

// CellOf returns the cell containing world point p. The cell may be out of
// bounds; callers check with InBounds.
func (m *Map) CellOf(p geom.Vec2) Cell {
	return Cell{
		I: int(math.Floor((p.X - m.origin.X) / m.res)),
		J: int(math.Floor((p.Y - m.origin.Y) / m.res)),
	}
}

// CenterOf returns the world-space centre of cell c.
func (m *Map) CenterOf(c Cell) geom.Vec2 {
	return geom.Vec2{
		X: m.origin.X + (float64(c.I)+0.5)*m.res,
		Y: m.origin.Y + (float64(c.J)+0.5)*m.res,
	}
}

// Bounds returns the world-space box covered by the map.
func (m *Map) Bounds() geom.AABB {
	return geom.AABB{
		Min: m.origin,
		Max: m.origin.Add(geom.V2(float64(m.w)*m.res, float64(m.h)*m.res)),
	}
}

// CountIf returns the number of cells whose value satisfies pred.
func (m *Map) CountIf(pred func(int) bool) int {
	n := 0
	for _, v := range m.cells {
		if pred(int(v)) {
			n++
		}
	}
	return n
}

// CountPositive returns the number of cells with value > 0, the paper's
// definition of a covered/occupied cell.
func (m *Map) CountPositive() int {
	return m.CountIf(func(v int) bool { return v > 0 })
}

// Occupancy returns, for every cell in row-major order, whether its value
// is positive.
func (m *Map) Occupancy() []bool {
	out := make([]bool, len(m.cells))
	for i, v := range m.cells {
		out[i] = v > 0
	}
	return out
}

// Each calls fn for every cell in row-major order.
func (m *Map) Each(fn func(c Cell, v int)) {
	for j := 0; j < m.h; j++ {
		for i := 0; i < m.w; i++ {
			fn(Cell{i, j}, int(m.cells[j*m.w+i]))
		}
	}
}

// Union returns a new map whose cells are positive wherever either input is
// positive (value 1), requiring identical layouts.
func (m *Map) Union(o *Map) (*Map, error) {
	if !m.SameLayout(o) {
		return nil, fmt.Errorf("grid: union of mismatched layouts %dx%d vs %dx%d", m.w, m.h, o.w, o.h)
	}
	out, err := New(m.origin, m.res, m.w, m.h)
	if err != nil {
		return nil, err
	}
	for i := range m.cells {
		if m.cells[i] > 0 || o.cells[i] > 0 {
			out.cells[i] = 1
		}
	}
	return out, nil
}

// RasterizeSegment marks every cell the segment passes through by applying
// fn to it, using a conservative supercover traversal (all cells the segment
// touches, not just one per column).
func (m *Map) RasterizeSegment(s geom.Segment, fn func(c Cell)) {
	for st := m.Stepper(s); ; {
		fn(Cell{st.I, st.J})
		if !st.Next() {
			return
		}
	}
}

// Stepper is the one voxel traversal (Amanatides & Woo, in grid
// coordinates) behind RasterizeSegment and the visibility ray cast, which
// steps it inline over a flat occupancy slice. (I, J) is the current cell,
// which may lie outside the map; Next moves to the next one.
type Stepper struct {
	I, J             int
	iEnd, jEnd       int
	stepI, stepJ     int
	tMaxX, tMaxY     float64
	tDeltaX, tDeltaY float64
	// left is how many cells the walk may still visit, the current one
	// included: a guard against rounding walking past the end cell.
	left int
}

// Stepper returns a traversal of s positioned on the cell holding s.A.
func (m *Map) Stepper(s geom.Segment) Stepper {
	start := s.A.Sub(m.origin).Scale(1 / m.res)
	end := s.B.Sub(m.origin).Scale(1 / m.res)
	st := Stepper{
		I: int(math.Floor(start.X)), J: int(math.Floor(start.Y)),
		iEnd: int(math.Floor(end.X)), jEnd: int(math.Floor(end.Y)),
		tMaxX: math.Inf(1), tMaxY: math.Inf(1),
		tDeltaX: math.Inf(1), tDeltaY: math.Inf(1),
	}
	dx, dy := end.X-start.X, end.Y-start.Y
	if dx > 0 {
		st.stepI = 1
		st.tMaxX = (math.Floor(start.X) + 1 - start.X) / dx
		st.tDeltaX = 1 / dx
	} else if dx < 0 {
		st.stepI = -1
		st.tMaxX = (start.X - math.Floor(start.X)) / -dx
		st.tDeltaX = -1 / dx
	}
	if dy > 0 {
		st.stepJ = 1
		st.tMaxY = (math.Floor(start.Y) + 1 - start.Y) / dy
		st.tDeltaY = 1 / dy
	} else if dy < 0 {
		st.stepJ = -1
		st.tMaxY = (start.Y - math.Floor(start.Y)) / -dy
		st.tDeltaY = -1 / dy
	}
	st.left = m.w + m.h + absInt(st.iEnd-st.I) + absInt(st.jEnd-st.J) + 4
	return st
}

// Next moves to the next cell of the traversal. It returns false, staying
// put, once the current cell is the end cell or the step guard runs out.
func (st *Stepper) Next() bool {
	if st.I == st.iEnd && st.J == st.jEnd || st.left <= 1 {
		return false
	}
	st.left--
	if st.tMaxX < st.tMaxY {
		st.tMaxX += st.tDeltaX
		st.I += st.stepI
	} else {
		st.tMaxY += st.tDeltaY
		st.J += st.stepJ
	}
	return true
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// RasterizePolygon applies fn to every in-bounds cell whose centre lies
// inside the polygon.
func (m *Map) RasterizePolygon(p geom.Polygon, fn func(c Cell)) {
	b := p.Bounds()
	lo := m.CellOf(b.Min)
	hi := m.CellOf(b.Max)
	for j := max(lo.J, 0); j <= min(hi.J, m.h-1); j++ {
		for i := max(lo.I, 0); i <= min(hi.I, m.w-1); i++ {
			c := Cell{i, j}
			if p.Contains(m.CenterOf(c)) {
				fn(c)
			}
		}
	}
}
