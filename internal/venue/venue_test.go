package venue

import (
	"math"
	"math/rand"
	"testing"

	"snaptask/internal/geom"
	"snaptask/internal/grid"
)

func TestMaterialProperties(t *testing.T) {
	tests := []struct {
		m           Material
		featureless bool
		transparent bool
	}{
		{Brick, false, false},
		{Wood, false, false},
		{Fabric, false, false},
		{Concrete, false, false},
		{Metal, false, false},
		{Plaster, true, false},
		{Glass, true, true},
	}
	for _, tt := range tests {
		t.Run(tt.m.String(), func(t *testing.T) {
			if tt.m.Featureless() != tt.featureless {
				t.Errorf("Featureless = %v", tt.m.Featureless())
			}
			if tt.m.Transparent() != tt.transparent {
				t.Errorf("Transparent = %v", tt.m.Transparent())
			}
			if tt.m.FeatureDensity() < 0 {
				t.Error("negative density")
			}
			if !tt.featureless && tt.m.FeatureDensity() < 20 {
				t.Error("textured material should be feature-rich")
			}
			if tt.featureless && tt.m.FeatureDensity() > 3 {
				t.Error("featureless material should be feature-poor")
			}
		})
	}
	if Material(99).String() != "unknown" || Material(99).FeatureDensity() != 0 {
		t.Error("unknown material misbehaves")
	}
}

func TestBuilderValidation(t *testing.T) {
	sq := geom.Rect(geom.V2(0, 0), geom.V2(10, 10))
	tests := []struct {
		name  string
		build func() (*Venue, error)
	}{
		{"no-entrance", func() (*Venue, error) {
			return NewBuilder("x", sq, 3).Build()
		}},
		{"bad-wall-index", func() (*Venue, error) {
			return NewBuilder("x", sq, 3).WallMaterial(9, Glass).Entrance(0, 0.1, 0.2).Build()
		}},
		{"bad-entrance-edge", func() (*Venue, error) {
			return NewBuilder("x", sq, 3).Entrance(7, 0.1, 0.2).Build()
		}},
		{"bad-entrance-range", func() (*Venue, error) {
			return NewBuilder("x", sq, 3).Entrance(0, 0.5, 0.4).Build()
		}},
		{"tiny-outer", func() (*Venue, error) {
			return NewBuilder("x", geom.Polygon{geom.V2(0, 0), geom.V2(1, 0)}, 3).Entrance(0, 0.1, 0.2).Build()
		}},
		{"bad-height", func() (*Venue, error) {
			return NewBuilder("x", sq, 0).Entrance(0, 0.1, 0.2).Build()
		}},
		{"obstacle-outside", func() (*Venue, error) {
			return NewBuilder("x", sq, 3).Entrance(0, 0.1, 0.2).
				Obstacle("out", geom.Rect(geom.V2(20, 20), geom.V2(22, 22)), 1, Wood, 0).Build()
		}},
		{"obstacle-flat", func() (*Venue, error) {
			return NewBuilder("x", sq, 3).Entrance(0, 0.1, 0.2).
				Obstacle("flat", geom.Rect(geom.V2(2, 2), geom.V2(3, 3)), 0, Wood, 0).Build()
		}},
		{"blocked-hotspot", func() (*Venue, error) {
			return NewBuilder("x", sq, 3).Entrance(0, 0.1, 0.2).
				Obstacle("crate", geom.Rect(geom.V2(2, 2), geom.V2(4, 4)), 1, Wood, 0).
				Hotspot(geom.V2(3, 3)).Build()
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := tt.build(); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestSmallRoom(t *testing.T) {
	v, err := SmallRoom()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v.Area()-100) > 1e-6 {
		t.Errorf("area = %v, want 100", v.Area())
	}
	// Outer bounds: perimeter 40 minus 1.5 m entrance.
	if got := v.OuterBoundsLength(); math.Abs(got-38.5) > 1e-6 {
		t.Errorf("outer bounds = %v, want 38.5", got)
	}
	if v.Blocked(geom.V2(5, 5)) != true {
		t.Error("crate centre should be blocked")
	}
	if v.Blocked(geom.V2(2, 2)) {
		t.Error("hotspot should be free")
	}
	if v.Blocked(geom.V2(-1, 5)) != true {
		t.Error("outside should be blocked")
	}
	if !v.Inside(v.Entrance()) {
		t.Error("entrance bootstrap position must be inside")
	}
	if v.Height() != 3.0 || v.Name() != "small-room" {
		t.Error("accessors wrong")
	}
}

func TestLibraryReplica(t *testing.T) {
	v, err := Library()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's venue is "around 350 m²"; the replica is arbitrarily
	// shaped with a similar area.
	if v.Area() < 300 || v.Area() > 360 {
		t.Errorf("library area = %v, want ~335", v.Area())
	}
	if got := len(v.Obstacles()); got < 10 {
		t.Errorf("library has %d obstacles, want a furnished venue", got)
	}
	// Two glass outer walls plus interior featureless surfaces.
	glassOuter := 0
	for _, s := range v.OuterSurfaces() {
		if s.Material == Glass {
			glassOuter++
		}
	}
	if glassOuter < 2 {
		t.Errorf("glass outer walls = %d, want >= 2", glassOuter)
	}
	if len(v.FeaturelessSurfaces()) < 10 {
		t.Errorf("featureless surfaces = %d, want meeting-room walls + glass", len(v.FeaturelessSurfaces()))
	}
	if len(v.Hotspots()) < 5 {
		t.Error("library should have several hotspots")
	}
	// All hotspots free (Build enforces, but assert for regression).
	for _, h := range v.Hotspots() {
		if v.Blocked(h) {
			t.Errorf("hotspot %v blocked", h)
		}
	}
	if v.Blocked(v.Entrance()) {
		t.Error("entrance position blocked")
	}
}

func TestOuterBoundsExcludesEntrance(t *testing.T) {
	v, err := Library()
	if err != nil {
		t.Fatal(err)
	}
	full := 0.0
	for _, e := range v.Outer().Edges() {
		full += e.Len()
	}
	if got := v.OuterBoundsLength(); math.Abs(full-got-1.5) > 1e-6 {
		t.Errorf("outer bounds %v + entrance 1.5 != perimeter %v", got, full)
	}
}

func TestGenerateFeaturesDeterministic(t *testing.T) {
	v, err := Library()
	if err != nil {
		t.Fatal(err)
	}
	a := v.GenerateFeatures(rand.New(rand.NewSource(99)))
	b := v.GenerateFeatures(rand.New(rand.NewSource(99)))
	if len(a) != len(b) {
		t.Fatalf("feature counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("feature %d differs", i)
		}
	}
}

func TestGenerateFeaturesDistribution(t *testing.T) {
	v, err := Library()
	if err != nil {
		t.Fatal(err)
	}
	feats := v.GenerateFeatures(rand.New(rand.NewSource(1)))
	if len(feats) < 2000 {
		t.Fatalf("library generated only %d features", len(feats))
	}
	// IDs dense and unique from 1.
	seen := make(map[uint64]bool, len(feats))
	var onGlass, onBrick int
	surfByID := map[int]Surface{}
	for _, s := range v.Surfaces() {
		surfByID[s.ID] = s
	}
	for _, f := range feats {
		if f.ID == 0 || seen[f.ID] {
			t.Fatalf("feature ID %d zero or duplicated", f.ID)
		}
		seen[f.ID] = true
		if f.SurfaceID != 0 {
			s, ok := surfByID[f.SurfaceID]
			if !ok {
				t.Fatalf("feature references unknown surface %d", f.SurfaceID)
			}
			switch s.Material {
			case Glass:
				onGlass++
			case Brick:
				onBrick++
			}
			// Feature must lie on its surface segment (within eps) and
			// within its height.
			if s.Seg.DistToPoint(f.Pos.XY()) > 1e-6 {
				t.Fatalf("feature %d off its surface", f.ID)
			}
			if f.Pos.Z < 0 || f.Pos.Z > s.Top+1e-9 {
				t.Fatalf("feature %d z=%v outside [0,%v]", f.ID, f.Pos.Z, s.Top)
			}
		} else if f.Pos.Z <= 0 {
			t.Fatalf("top feature %d at ground level", f.ID)
		}
	}
	// Featureless surfaces yield little compared to brick: the pane area
	// is nearly featureless, with only sparse frame (mullion) lines.
	if onGlass*10 > onBrick {
		t.Errorf("glass features %d not sparse relative to brick %d", onGlass, onBrick)
	}
}

func TestRandomFreePoint(t *testing.T) {
	v, err := SmallRoom()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		p, err := v.RandomFreePoint(rng)
		if err != nil {
			t.Fatal(err)
		}
		if v.Blocked(p) {
			t.Fatalf("RandomFreePoint returned blocked %v", p)
		}
	}
}

func TestOccluders(t *testing.T) {
	v, err := Library()
	if err != nil {
		t.Fatal(err)
	}
	occ := v.Occluders()
	if len(occ) != len(v.Surfaces()) {
		t.Fatalf("occluders %d != surfaces %d", len(occ), len(v.Surfaces()))
	}
	transparent := 0
	for _, o := range occ {
		if o.Transparent {
			transparent++
		}
		if o.Top <= 0 {
			t.Error("occluder with non-positive top")
		}
	}
	if transparent == 0 {
		t.Error("library should have transparent (glass) occluders")
	}
}

func TestGroundTruth(t *testing.T) {
	v, err := SmallRoom()
	if err != nil {
		t.Fatal(err)
	}
	gt, err := v.GroundTruth(0.15)
	if err != nil {
		t.Fatal(err)
	}
	if gt.OuterLen != v.OuterBoundsLength() {
		t.Error("OuterLen mismatch")
	}
	// The crate footprint (1 m²) is obstacle; room interior is freespace.
	crateCell := gt.Obstacles.CellOf(geom.V2(5, 5))
	if gt.Obstacles.At(crateCell) == 0 {
		t.Error("crate interior not in obstacle map")
	}
	freeCell := gt.Freespace.CellOf(geom.V2(2, 2))
	if gt.Freespace.At(freeCell) == 0 {
		t.Error("open floor not in freespace map")
	}
	if gt.Obstacles.At(freeCell) != 0 {
		t.Error("open floor wrongly an obstacle")
	}
	// Wall cells are obstacles, not freespace.
	wallCell := gt.Obstacles.CellOf(geom.V2(5, 0.01))
	if gt.Obstacles.At(wallCell) == 0 {
		t.Error("south wall missing from obstacle map")
	}
	// Freespace area roughly venue area minus obstacle: 100 - 1 ≈ 99 m².
	freeArea := float64(gt.Freespace.CountPositive()) * gt.Freespace.CellArea()
	if freeArea < 90 || freeArea > 105 {
		t.Errorf("freespace area = %v, want ~99", freeArea)
	}
	cov, err := gt.Coverage()
	if err != nil {
		t.Fatal(err)
	}
	if cov.CountPositive() < gt.Freespace.CountPositive() {
		t.Error("coverage must include freespace")
	}
	if _, err := v.GroundTruth(0); err == nil {
		t.Error("zero resolution should error")
	}
}

func TestGenerateOffice(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		v, err := GenerateOffice(rng, 15, 10, 6)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if v.Area() != 150 {
			t.Errorf("area = %v", v.Area())
		}
		for _, h := range v.Hotspots() {
			if v.Blocked(h) {
				t.Errorf("seed %d: hotspot %v blocked", seed, h)
			}
		}
		// Obstacles must not overlap each other.
		obs := v.Obstacles()
		for i := 0; i < len(obs); i++ {
			for j := i + 1; j < len(obs); j++ {
				if obs[i].Poly.Bounds().Intersects(obs[j].Poly.Bounds()) {
					t.Errorf("seed %d: obstacles %q and %q overlap", seed, obs[i].Name, obs[j].Name)
				}
			}
		}
	}
	if _, err := GenerateOffice(rand.New(rand.NewSource(1)), 3, 3, 2); err == nil {
		t.Error("tiny office should error")
	}
}

func TestAccessorsReturnCopies(t *testing.T) {
	v, err := SmallRoom()
	if err != nil {
		t.Fatal(err)
	}
	s := v.Surfaces()
	if len(s) == 0 {
		t.Fatal("no surfaces")
	}
	s[0].Material = Glass
	if v.Surfaces()[0].Material == Glass && v.Surfaces()[0].Material != s[0].Material {
		t.Error("Surfaces should return a copy")
	}
	h := v.Hotspots()
	if len(h) > 0 {
		h[0] = geom.V2(-99, -99)
		if v.Hotspots()[0] == h[0] {
			t.Error("Hotspots should return a copy")
		}
	}
}

func TestPoissonRound(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	if poissonRound(rng, 0) != 0 || poissonRound(rng, -3) != 0 {
		t.Error("non-positive mean should yield 0")
	}
	// Small mean: average over samples should approximate the mean.
	var sum int
	n := 2000
	for i := 0; i < n; i++ {
		sum += poissonRound(rng, 3)
	}
	avg := float64(sum) / float64(n)
	if avg < 2.7 || avg > 3.3 {
		t.Errorf("poisson mean = %v, want ~3", avg)
	}
	// Large mean uses the normal approximation and must stay non-negative.
	for i := 0; i < 100; i++ {
		if poissonRound(rng, 200) < 0 {
			t.Fatal("negative count")
		}
	}
}

func TestEntranceSegments(t *testing.T) {
	v, err := SmallRoom()
	if err != nil {
		t.Fatal(err)
	}
	segs := v.EntranceSegments()
	if len(segs) != 1 {
		t.Fatalf("entrances = %d, want 1", len(segs))
	}
	// SmallRoom entrance: edge 0 (south) from t=0.1 to 0.25 of 10 m.
	if !segs[0].A.ApproxEq(geom.V2(1, 0)) || !segs[0].B.ApproxEq(geom.V2(2.5, 0)) {
		t.Errorf("entrance segment = %v", segs[0])
	}
	// Returned slice is a copy.
	segs[0].A = geom.V2(-99, -99)
	if v.EntranceSegments()[0].A.ApproxEq(geom.V2(-99, -99)) {
		t.Error("EntranceSegments must return a copy")
	}
}

func TestWalkMap(t *testing.T) {
	v, err := SmallRoom()
	if err != nil {
		t.Fatal(err)
	}
	gt, err := v.GroundTruth(0.15)
	if err != nil {
		t.Fatal(err)
	}
	walk := v.WalkMap(gt)
	// Inside free cells stay free.
	if walk.At(walk.CellOf(geom.V2(2, 2))) != 0 {
		t.Error("interior free cell blocked in walk map")
	}
	// Obstacle cells stay blocked.
	if walk.At(walk.CellOf(geom.V2(5, 5))) == 0 {
		t.Error("crate not blocked in walk map")
	}
	// Outside cells become blocked even though the raw obstacle map has
	// them free.
	out := geom.V2(-0.3, 5)
	if gt.Obstacles.InBounds(gt.Obstacles.CellOf(out)) && walk.At(walk.CellOf(out)) == 0 {
		t.Error("outside cell walkable")
	}
}

func TestGroundTruthAtSharedLayout(t *testing.T) {
	v, err := SmallRoom()
	if err != nil {
		t.Fatal(err)
	}
	layout, err := grid.New(geom.V2(-3, -3), 0.15, 120, 120)
	if err != nil {
		t.Fatal(err)
	}
	gt, err := v.GroundTruthAt(layout)
	if err != nil {
		t.Fatal(err)
	}
	if !gt.Obstacles.SameLayout(layout) || !gt.Freespace.SameLayout(layout) {
		t.Error("ground truth not on the provided layout")
	}
	if _, err := v.GroundTruthAt(nil); err == nil {
		t.Error("nil layout accepted")
	}
}
