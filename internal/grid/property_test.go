package grid

import (
	"math/rand"
	"testing"
	"testing/quick"

	"snaptask/internal/geom"
)

// TestUnionProperties checks commutativity and idempotence of Union over
// random maps.
func TestUnionProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	gen := func() *Map {
		m, err := New(geom.V2(0, 0), 1, 12, 9)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			m.Set(Cell{I: rng.Intn(12), J: rng.Intn(9)}, rng.Intn(3))
		}
		return m
	}
	for trial := 0; trial < 50; trial++ {
		a, b := gen(), gen()
		ab, err := a.Union(b)
		if err != nil {
			t.Fatal(err)
		}
		ba, err := b.Union(a)
		if err != nil {
			t.Fatal(err)
		}
		aa, err := a.Union(a)
		if err != nil {
			t.Fatal(err)
		}
		ab.Each(func(c Cell, v int) {
			if v != ba.At(c) {
				t.Fatalf("union not commutative at %v", c)
			}
			if v == 0 && (a.At(c) > 0 || b.At(c) > 0) {
				t.Fatalf("union lost a positive cell at %v", c)
			}
		})
		aa.Each(func(c Cell, v int) {
			if (v > 0) != (a.At(c) > 0) {
				t.Fatalf("self-union changed positivity at %v", c)
			}
		})
	}
}

// TestFloodFillSubsetProperty: every visited cell passes the predicate and
// is in bounds.
func TestFloodFillSubsetProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 40; trial++ {
		m, err := New(geom.V2(0, 0), 1, 15, 15)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 60; i++ {
			m.Set(Cell{I: rng.Intn(15), J: rng.Intn(15)}, 1)
		}
		pass := func(c Cell) bool { return m.At(c) == 0 }
		start := Cell{I: rng.Intn(15), J: rng.Intn(15)}
		_, seen := flood(m, start, pass)
		for c := range seen {
			if !m.InBounds(c) || !pass(c) {
				t.Fatalf("flood visited invalid cell %v", c)
			}
		}
		// Flood result is closed under 4-connectivity within pass cells:
		// no passing neighbour of a seen cell is unseen... unless it is
		// unreachable, which cannot happen for direct neighbours.
		for c := range seen {
			for _, n := range c.Neighbors4() {
				if m.InBounds(n) && pass(n) && !seen[n] {
					t.Fatalf("flood missed reachable neighbour %v of %v", n, c)
				}
			}
		}
	}
}

// TestCellOfCenterOfQuick: CellOf(CenterOf(c)) == c for random layouts.
func TestCellOfCenterOfQuick(t *testing.T) {
	f := func(ox, oy int16, resQ uint8, i, j uint8) bool {
		res := 0.05 + float64(resQ%100)/100
		m, err := New(geom.V2(float64(ox)/7, float64(oy)/7), res, 300, 300)
		if err != nil {
			return false
		}
		c := Cell{I: int(i) % 300, J: int(j) % 300}
		return m.CellOf(m.CenterOf(c)) == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(33))}); err != nil {
		t.Error(err)
	}
}

// TestRasterizeSegmentEndpoints: the traversal always includes both
// endpoint cells, for arbitrary segments.
func TestRasterizeSegmentEndpointsQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	m, err := New(geom.V2(0, 0), 0.25, 80, 80)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		a := geom.V2(rng.Float64()*20, rng.Float64()*20)
		b := geom.V2(rng.Float64()*20, rng.Float64()*20)
		first, last := Cell{-1, -1}, Cell{-1, -1}
		m.RasterizeSegment(geom.Seg(a, b), func(c Cell) {
			if first == (Cell{-1, -1}) {
				first = c
			}
			last = c
		})
		if first != m.CellOf(a) {
			t.Fatalf("first cell %v != CellOf(a) %v", first, m.CellOf(a))
		}
		if last != m.CellOf(b) {
			t.Fatalf("last cell %v != CellOf(b) %v", last, m.CellOf(b))
		}
	}
}
