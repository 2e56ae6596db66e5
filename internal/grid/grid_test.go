package grid

import (
	"math"
	"reflect"
	"testing"

	"snaptask/internal/geom"
)

func mustNew(t *testing.T, origin geom.Vec2, res float64, w, h int) *Map {
	t.Helper()
	m, err := New(origin, res, w, h)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name    string
		res     float64
		w, h    int
		wantErr bool
	}{
		{"ok", 0.15, 10, 10, false},
		{"zero-width", 0.15, 0, 10, true},
		{"neg-height", 0.15, 10, -1, true},
		{"zero-res", 0, 10, 10, true},
		{"neg-res", -0.1, 10, 10, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(geom.V2(0, 0), tt.res, tt.w, tt.h)
			if (err != nil) != tt.wantErr {
				t.Errorf("err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestNewFromBounds(t *testing.T) {
	b := geom.NewAABB(geom.V2(0, 0), geom.V2(3, 1.5))
	m, err := NewFromBounds(b, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if m.Width() < 6 || m.Height() < 3 {
		t.Errorf("map %dx%d too small for bounds", m.Width(), m.Height())
	}
	if !m.Bounds().Contains(geom.V2(3, 1.5)) {
		t.Error("bounds must cover the box")
	}
	if _, err := NewFromBounds(geom.EmptyAABB(), 0.5); err == nil {
		t.Error("empty bounds should error")
	}
	if _, err := NewFromBounds(b, 0); err == nil {
		t.Error("zero res should error")
	}
}

func TestAtSetAdd(t *testing.T) {
	m := mustNew(t, geom.V2(0, 0), 1, 3, 3)
	c := Cell{1, 2}
	m.Set(c, 5)
	if got := m.At(c); got != 5 {
		t.Errorf("At = %d, want 5", got)
	}
	m.Add(c, 2)
	if got := m.At(c); got != 7 {
		t.Errorf("after Add, At = %d, want 7", got)
	}
	// Out-of-bounds: reads zero, writes ignored silently.
	oob := Cell{-1, 0}
	if m.At(oob) != 0 {
		t.Error("OOB read should be 0")
	}
	m.Set(oob, 9)
	m.Add(oob, 9)
	if m.CountPositive() != 1 {
		t.Error("OOB writes must not change the map")
	}
}

// TestCellValueRange pins the int32 cell storage: the extremes round-trip,
// and a Set, Add or Fill that would leave the range panics rather than
// wrap, leaving the cell as it was.
func TestCellValueRange(t *testing.T) {
	m := mustNew(t, geom.V2(0, 0), 1, 2, 2)
	c := Cell{1, 1}
	for _, v := range []int{math.MaxInt32, math.MinInt32} {
		m.Set(c, v)
		if got := m.At(c); got != v {
			t.Errorf("Set(%d): At = %d", v, got)
		}
	}
	m.Set(c, math.MaxInt32-1)
	m.Add(c, 1)
	if got := m.At(c); got != math.MaxInt32 {
		t.Errorf("Add to the maximum: At = %d", got)
	}
	panics := map[string]func(){
		"set above":  func() { m.Set(c, math.MaxInt32+1) },
		"set below":  func() { m.Set(c, math.MinInt32-1) },
		"add over":   func() { m.Add(c, 1) },
		"add under":  func() { m.Add(Cell{0, 0}, math.MinInt32-1) },
		"fill above": func() { m.Fill(1 << 40) },
	}
	for name, fn := range panics {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			fn()
		})
	}
	if m.At(c) != math.MaxInt32 || m.At(Cell{0, 0}) != 0 {
		t.Errorf("a refused write changed a cell: %d, %d", m.At(c), m.At(Cell{0, 0}))
	}
}

func TestCellOfCenterOfRoundTrip(t *testing.T) {
	m := mustNew(t, geom.V2(-2, 3), 0.15, 40, 40)
	for _, c := range []Cell{{0, 0}, {5, 7}, {39, 39}, {13, 2}} {
		p := m.CenterOf(c)
		if got := m.CellOf(p); got != c {
			t.Errorf("round trip %v -> %v -> %v", c, p, got)
		}
	}
	// A point just inside a cell boundary belongs to that cell.
	p := geom.V2(-2+0.15*3+1e-9, 3+1e-9)
	if got := m.CellOf(p); got != (Cell{3, 0}) {
		t.Errorf("boundary point cell = %v", got)
	}
}

func TestUnion(t *testing.T) {
	a := mustNew(t, geom.V2(0, 0), 1, 4, 4)
	b := mustNew(t, geom.V2(0, 0), 1, 4, 4)
	a.Set(Cell{0, 0}, 3)
	b.Set(Cell{1, 1}, 2)
	a.Set(Cell{2, 2}, 1)
	b.Set(Cell{2, 2}, 4)
	u, err := a.Union(b)
	if err != nil {
		t.Fatal(err)
	}
	if got := u.CountPositive(); got != 3 {
		t.Errorf("union positive cells = %d, want 3", got)
	}
	mismatch := mustNew(t, geom.V2(0, 0), 1, 5, 4)
	if _, err := a.Union(mismatch); err == nil {
		t.Error("union of mismatched layouts should error")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := mustNew(t, geom.V2(0, 0), 1, 2, 2)
	m.Set(Cell{0, 0}, 1)
	c := m.Clone()
	c.Set(Cell{1, 1}, 9)
	if m.At(Cell{1, 1}) != 0 {
		t.Error("clone shares storage with original")
	}
	if c.At(Cell{0, 0}) != 1 {
		t.Error("clone lost data")
	}
	if !m.SameLayout(c) {
		t.Error("clone layout differs")
	}
}

func TestCountIfEach(t *testing.T) {
	m := mustNew(t, geom.V2(0, 0), 1, 3, 2)
	m.Set(Cell{0, 0}, -1)
	m.Set(Cell{2, 1}, 5)
	if got := m.CountIf(func(v int) bool { return v != 0 }); got != 2 {
		t.Errorf("CountIf = %d, want 2", got)
	}
	var cells int
	var sum int
	m.Each(func(c Cell, v int) { cells++; sum += v })
	if cells != 6 || sum != 4 {
		t.Errorf("Each visited %d cells sum %d, want 6 and 4", cells, sum)
	}
}

func TestRasterizeSegment(t *testing.T) {
	m := mustNew(t, geom.V2(0, 0), 1, 10, 10)
	var hits []Cell
	m.RasterizeSegment(geom.Seg(geom.V2(0.5, 0.5), geom.V2(4.5, 0.5)), func(c Cell) {
		hits = append(hits, c)
	})
	if len(hits) != 5 {
		t.Fatalf("horizontal segment hit %d cells, want 5: %v", len(hits), hits)
	}
	for i, c := range hits {
		if c != (Cell{i, 0}) {
			t.Errorf("hit %d = %v, want [%d,0]", i, c, i)
		}
	}

	// Diagonal: supercover traversal must be 4-connected step-wise and
	// include both endpoints' cells.
	hits = nil
	m.RasterizeSegment(geom.Seg(geom.V2(0.5, 0.5), geom.V2(3.5, 2.5)), func(c Cell) {
		hits = append(hits, c)
	})
	if hits[0] != (Cell{0, 0}) || hits[len(hits)-1] != (Cell{3, 2}) {
		t.Errorf("diagonal endpoints wrong: %v", hits)
	}
	for i := 1; i < len(hits); i++ {
		d := abs(hits[i].I-hits[i-1].I) + abs(hits[i].J-hits[i-1].J)
		if d != 1 {
			t.Errorf("traversal jumped from %v to %v", hits[i-1], hits[i])
		}
	}

	// Degenerate single-point segment.
	hits = nil
	m.RasterizeSegment(geom.Seg(geom.V2(2.2, 2.2), geom.V2(2.2, 2.2)), func(c Cell) {
		hits = append(hits, c)
	})
	if len(hits) != 1 || hits[0] != (Cell{2, 2}) {
		t.Errorf("point segment hits = %v", hits)
	}
}

func TestRasterizeSegmentLeavingGrid(t *testing.T) {
	m := mustNew(t, geom.V2(0, 0), 1, 4, 4)
	// Segment extends beyond the grid; traversal must terminate and the
	// callback may receive out-of-bounds cells which Set will ignore.
	n := 0
	m.RasterizeSegment(geom.Seg(geom.V2(0.5, 0.5), geom.V2(20.5, 0.5)), func(c Cell) {
		n++
		m.Add(c, 1)
	})
	if n != 21 {
		t.Errorf("visited %d cells, want 21", n)
	}
	if m.CountPositive() != 4 {
		t.Errorf("in-bounds marked = %d, want 4", m.CountPositive())
	}
}

// TestWalkSegmentStopsEarly drives the Stepper the way the visibility
// ray cast does: cell by cell from the segment's start, stopping at the
// first cell the caller rejects.
func TestWalkSegmentStopsEarly(t *testing.T) {
	m := mustNew(t, geom.V2(0, 0), 1, 10, 10)
	seg := geom.Seg(geom.V2(0.5, 0.5), geom.V2(7.5, 3.5))
	var all []Cell
	m.RasterizeSegment(seg, func(c Cell) { all = append(all, c) })
	walk := func(stop Cell) []Cell {
		var walked []Cell
		for st := m.Stepper(seg); ; {
			c := Cell{st.I, st.J}
			walked = append(walked, c)
			if c == stop || !st.Next() {
				return walked
			}
		}
	}
	// Walking the whole segment visits exactly RasterizeSegment's cells.
	if walked := walk(Cell{-1, -1}); !reflect.DeepEqual(walked, all) {
		t.Fatalf("full walk %v, rasterize %v", walked, all)
	}
	// Stopping on a cell ends the walk there.
	stop := all[len(all)/2]
	if prefix := walk(stop); !reflect.DeepEqual(prefix, all[:len(all)/2+1]) {
		t.Errorf("stopped walk %v, want prefix %v", prefix, all[:len(all)/2+1])
	}
}

func TestRasterizePolygon(t *testing.T) {
	m := mustNew(t, geom.V2(0, 0), 1, 10, 10)
	sq := geom.Rect(geom.V2(1, 1), geom.V2(4, 4))
	n := 0
	m.RasterizePolygon(sq, func(c Cell) { n++; m.Set(c, 1) })
	// Cells with centres at 1.5, 2.5, 3.5 in each axis → 3×3.
	if n != 9 {
		t.Errorf("rasterized %d cells, want 9", n)
	}
	if m.At(Cell{1, 1}) != 1 || m.At(Cell{3, 3}) != 1 || m.At(Cell{4, 4}) != 0 {
		t.Error("wrong cells marked")
	}
	// Polygon partially outside the grid must not panic and must clip.
	n = 0
	m.RasterizePolygon(geom.Rect(geom.V2(-5, -5), geom.V2(0.9, 0.9)), func(c Cell) { n++ })
	if n != 1 {
		t.Errorf("clipped rasterization = %d cells, want 1", n)
	}
}

func TestBoundsAndCellArea(t *testing.T) {
	m := mustNew(t, geom.V2(1, 2), 0.5, 4, 6)
	b := m.Bounds()
	if !b.Min.ApproxEq(geom.V2(1, 2)) || !b.Max.ApproxEq(geom.V2(3, 5)) {
		t.Errorf("bounds = %+v", b)
	}
	if math.Abs(m.CellArea()-0.25) > 1e-12 {
		t.Errorf("cell area = %v", m.CellArea())
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
