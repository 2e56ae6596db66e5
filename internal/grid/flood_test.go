package grid

import (
	"testing"

	"snaptask/internal/geom"
)

// wallMap builds a 7x7 map with a vertical wall (value 1) at column 3,
// leaving a gap at row 6.
func wallMap(t *testing.T) *Map {
	t.Helper()
	m := mustNew(t, geom.V2(0, 0), 1, 7, 7)
	for j := 0; j < 6; j++ {
		m.Set(Cell{3, j}, 1)
	}
	return m
}

func free(m *Map) func(Cell) bool {
	return func(c Cell) bool { return m.At(c) == 0 }
}

// flood runs ExpandRegion with no size limit: the whole 4-connected
// component of passing cells around start, in visit order, and as a set.
func flood(m *Map, start Cell, pass func(Cell) bool) ([]Cell, map[Cell]bool) {
	seen := make(map[Cell]bool)
	return ExpandRegion(m, start, m.Width()*m.Height(), pass, seen).Cells, seen
}

// components splits the passing cells into their 4-connected components
// with unlimited ExpandRegion calls over one shared seen set, seeded in
// row-major scan order.
func components(m *Map, pass func(Cell) bool) []Region {
	seen := make(map[Cell]bool)
	var out []Region
	for j := 0; j < m.Height(); j++ {
		for i := 0; i < m.Width(); i++ {
			if r := ExpandRegion(m, Cell{i, j}, m.Width()*m.Height(), pass, seen); r.Size() > 0 {
				out = append(out, r)
			}
		}
	}
	return out
}

func TestFloodFillRespectsWalls(t *testing.T) {
	m := wallMap(t)
	_, seen := flood(m, Cell{0, 0}, free(m))
	// Reachable: all free cells (wall has a gap at row 6).
	wantCells := 7*7 - 6
	if len(seen) != wantCells {
		t.Errorf("flood reached %d cells, want %d", len(seen), wantCells)
	}
	if seen[Cell{3, 2}] {
		t.Error("flood went through a wall cell")
	}
	if !seen[Cell{6, 0}] {
		t.Error("flood failed to go around the wall gap")
	}
}

func TestFloodFillSealedRoom(t *testing.T) {
	m := mustNew(t, geom.V2(0, 0), 1, 7, 7)
	for j := 0; j < 7; j++ {
		m.Set(Cell{3, j}, 1) // full wall, no gap
	}
	_, seen := flood(m, Cell{0, 0}, free(m))
	if len(seen) != 3*7 {
		t.Errorf("sealed flood reached %d cells, want 21", len(seen))
	}
	for c := range seen {
		if c.I > 2 {
			t.Errorf("flood escaped sealed region: %v", c)
		}
	}
}

func TestFloodFillBadStart(t *testing.T) {
	m := wallMap(t)
	if got, _ := flood(m, Cell{3, 0}, free(m)); len(got) != 0 {
		t.Error("start on a wall should visit nothing")
	}
	if got, _ := flood(m, Cell{-1, -1}, free(m)); len(got) != 0 {
		t.Error("out-of-bounds start should visit nothing")
	}
}

func TestFloodFillVisitOrderIsBFS(t *testing.T) {
	m := mustNew(t, geom.V2(0, 0), 1, 5, 5)
	order, _ := flood(m, Cell{2, 2}, free(m))
	if order[0] != (Cell{2, 2}) {
		t.Fatalf("first visited = %v, want start", order[0])
	}
	// BFS property: Manhattan distance from start is non-decreasing.
	prev := 0
	for _, c := range order {
		d := abs(c.I-2) + abs(c.J-2)
		if d < prev-1 {
			t.Fatalf("visit order not BFS-like at %v (d=%d after %d)", c, d, prev)
		}
		if d > prev {
			prev = d
		}
	}
}

func TestExpandRegionLimit(t *testing.T) {
	m := mustNew(t, geom.V2(0, 0), 1, 10, 10)
	seen := make(map[Cell]bool)
	r := ExpandRegion(m, Cell{5, 5}, 7, free(m), seen)
	if r.Size() != 7 {
		t.Errorf("region size = %d, want 7", r.Size())
	}
	// seen contains at least the region (plus frontier cells already queued).
	for _, c := range r.Cells {
		if !seen[c] {
			t.Errorf("region cell %v not marked seen", c)
		}
	}
	// A second expansion from inside the first must return empty.
	r2 := ExpandRegion(m, Cell{5, 5}, 7, free(m), seen)
	if r2.Size() != 0 {
		t.Error("re-expansion from seen seed should be empty")
	}
}

func TestExpandRegionExhaustsComponent(t *testing.T) {
	m := mustNew(t, geom.V2(0, 0), 1, 4, 4)
	// Isolate a 2x2 corner with walls.
	for i := 0; i < 3; i++ {
		m.Set(Cell{i, 2}, 1)
		m.Set(Cell{2, i}, 1)
	}
	seen := make(map[Cell]bool)
	r := ExpandRegion(m, Cell{0, 0}, 100, free(m), seen)
	if r.Size() != 4 {
		t.Errorf("region size = %d, want 4", r.Size())
	}
}

func TestExpandRegionEdgeCases(t *testing.T) {
	m := mustNew(t, geom.V2(0, 0), 1, 4, 4)
	seen := make(map[Cell]bool)
	if r := ExpandRegion(m, Cell{0, 0}, 0, free(m), seen); r.Size() != 0 {
		t.Error("zero limit should be empty")
	}
	m.Set(Cell{1, 1}, 1)
	if r := ExpandRegion(m, Cell{1, 1}, 5, free(m), seen); r.Size() != 0 {
		t.Error("blocked seed should be empty")
	}
}

func TestRegionCenter(t *testing.T) {
	r := Region{Cells: []Cell{{0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 0}}}
	if got := r.Center(); got != (Cell{2, 0}) {
		t.Errorf("Center = %v, want [2,0]", got)
	}
	// Center must be a member cell even for L-shaped regions whose mean
	// falls outside.
	l := Region{Cells: []Cell{{0, 0}, {0, 1}, {0, 2}, {1, 0}, {2, 0}}}
	got := l.Center()
	found := false
	for _, c := range l.Cells {
		if c == got {
			found = true
		}
	}
	if !found {
		t.Errorf("Center %v is not a member of the region", got)
	}
	if (Region{}).Center() != (Cell{}) {
		t.Error("empty region centre should be zero cell")
	}
}

func TestConnectedComponents(t *testing.T) {
	m := wallMap(t) // wall at column 3 rows 0..5, gap at row 6
	// Close the gap to split into two components.
	m.Set(Cell{3, 6}, 1)
	regions := components(m, free(m))
	if len(regions) != 2 {
		t.Fatalf("components = %d, want 2", len(regions))
	}
	if regions[0].Size() != 3*7 || regions[1].Size() != 3*7 {
		t.Errorf("component sizes = %d, %d, want 21 each", regions[0].Size(), regions[1].Size())
	}
	// Deterministic order: first region contains (0,0).
	if regions[0].Cells[0] != (Cell{0, 0}) {
		t.Errorf("first component starts at %v", regions[0].Cells[0])
	}
}

func TestConnectedComponentsNone(t *testing.T) {
	m := mustNew(t, geom.V2(0, 0), 1, 3, 3)
	m.Fill(1)
	if got := components(m, free(m)); len(got) != 0 {
		t.Errorf("expected no components, got %d", len(got))
	}
}

func TestNeighbors(t *testing.T) {
	c := Cell{2, 3}
	n4 := c.Neighbors4()
	if len(n4) != 4 {
		t.Fatal("n4 wrong length")
	}
	for _, n := range n4 {
		if abs(n.I-c.I)+abs(n.J-c.J) != 1 {
			t.Errorf("4-neighbor %v not adjacent", n)
		}
	}
	n8 := c.Neighbors8()
	seen := map[Cell]bool{}
	for _, n := range n8 {
		if n == c {
			t.Error("cell is its own neighbour")
		}
		if abs(n.I-c.I) > 1 || abs(n.J-c.J) > 1 {
			t.Errorf("8-neighbor %v too far", n)
		}
		if seen[n] {
			t.Errorf("duplicate neighbour %v", n)
		}
		seen[n] = true
	}
	if len(seen) != 8 {
		t.Errorf("distinct 8-neighbours = %d", len(seen))
	}
}
