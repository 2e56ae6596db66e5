package floorplan

import (
	"math"
	"testing"

	"snaptask/internal/geom"
	"snaptask/internal/grid"
)

// wallsMap rasterises the given segments into an obstacle map.
func wallsMap(t *testing.T, segs ...geom.Segment) *grid.Map {
	t.Helper()
	m, err := grid.New(geom.V2(0, 0), 0.15, 120, 120)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		m.RasterizeSegment(s, func(c grid.Cell) { m.Set(c, 5) })
	}
	return m
}

func TestExtractSingleWall(t *testing.T) {
	truth := geom.Seg(geom.V2(2, 5), geom.V2(12, 5))
	m := wallsMap(t, truth)
	plan, err := Extract(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Walls) != 1 {
		t.Fatalf("walls = %d, want 1", len(plan.Walls))
	}
	w := plan.Walls[0]
	if math.Abs(w.Length()-truth.Len()) > 0.5 {
		t.Errorf("length = %.2f, want ~%.2f", w.Length(), truth.Len())
	}
	// The extracted wall lies on the truth line.
	if truth.DistToPoint(w.Seg.A) > 0.2 || truth.DistToPoint(w.Seg.B) > 0.2 {
		t.Errorf("extracted wall %v off the truth", w.Seg)
	}
}

func TestExtractRoom(t *testing.T) {
	// A rectangular room plus one diagonal wall — the library's shape.
	segs := []geom.Segment{
		geom.Seg(geom.V2(1, 1), geom.V2(15, 1)),
		geom.Seg(geom.V2(15, 1), geom.V2(15, 8)),
		geom.Seg(geom.V2(15, 8), geom.V2(9, 13)),
		geom.Seg(geom.V2(9, 13), geom.V2(1, 13)),
		geom.Seg(geom.V2(1, 13), geom.V2(1, 1)),
	}
	m := wallsMap(t, segs...)
	plan, err := Extract(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Walls) < 5 || len(plan.Walls) > 9 {
		t.Fatalf("walls = %d, want ~5", len(plan.Walls))
	}
	// Every truth wall must be matched by some extracted wall covering
	// most of its length.
	for _, truth := range segs {
		covered := 0.0
		for _, w := range plan.Walls {
			if truth.DistToPoint(w.Seg.At(0.5)) < 0.25 &&
				truth.DistToPoint(w.Seg.A) < 0.35 && truth.DistToPoint(w.Seg.B) < 0.35 {
				covered += w.Length()
			}
		}
		if covered < truth.Len()*0.7 {
			t.Errorf("truth wall %v covered only %.2f of %.2f m", truth, covered, truth.Len())
		}
	}
	// Total extracted length close to the truth total.
	var truthTotal float64
	for _, s := range segs {
		truthTotal += s.Len()
	}
	if got := plan.TotalWallLength(); got < truthTotal*0.7 || got > truthTotal*1.3 {
		t.Errorf("total length %.1f vs truth %.1f", got, truthTotal)
	}
}

func TestExtractSplitsAtGaps(t *testing.T) {
	// Two collinear wall pieces with a 1.5 m doorway between them.
	m := wallsMap(t,
		geom.Seg(geom.V2(1, 5), geom.V2(6, 5)),
		geom.Seg(geom.V2(7.5, 5), geom.V2(12, 5)),
	)
	plan, err := Extract(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Walls) != 2 {
		t.Fatalf("walls = %d, want 2 (split at the doorway)", len(plan.Walls))
	}
	// Neither wall spans the gap.
	for _, w := range plan.Walls {
		if w.Seg.A.X < 6.5 && w.Seg.B.X > 7 {
			t.Errorf("wall %v bridges the doorway", w.Seg)
		}
	}
}

func TestExtractIgnoresShortDebris(t *testing.T) {
	m := wallsMap(t, geom.Seg(geom.V2(1, 5), geom.V2(11, 5)))
	// A couple of isolated noise cells.
	m.Set(grid.Cell{I: 80, J: 80}, 3)
	m.Set(grid.Cell{I: 20, J: 90}, 2)
	plan, err := Extract(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Walls) != 1 {
		t.Errorf("walls = %d, want 1 (debris ignored)", len(plan.Walls))
	}
}

func TestExtractEmptyAndNil(t *testing.T) {
	m, err := grid.New(geom.V2(0, 0), 0.15, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Extract(m, Config{})
	if err != nil || len(plan.Walls) != 0 {
		t.Errorf("empty map: %v walls, err %v", len(plan.Walls), err)
	}
	if _, err := Extract(nil, Config{}); err == nil {
		t.Error("nil map should error")
	}
}

func TestHoughAddRemoveSymmetry(t *testing.T) {
	b := geom.NewAABB(geom.V2(0, 0), geom.V2(10, 10))
	h := newHough(90, 0.15, b)
	pts := []geom.Vec2{{X: 1, Y: 1}, {X: 5, Y: 5}, {X: 9, Y: 2}}
	for _, p := range pts {
		h.add(p, 1)
	}
	for _, p := range pts {
		h.add(p, -1)
	}
	for i, v := range h.acc {
		if v != 0 {
			t.Fatalf("accumulator bin %d = %d after add/remove", i, v)
		}
	}
	if _, _, votes := h.peak(); votes != 0 {
		t.Error("peak of empty accumulator should be 0")
	}
}
