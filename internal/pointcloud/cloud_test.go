package pointcloud

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"snaptask/internal/geom"
)

func TestCloudBasics(t *testing.T) {
	c := NewCloud(nil)
	if c.Len() != 0 {
		t.Fatal("new cloud not empty")
	}
	c.Add(Point{Pos: geom.V3(1, 2, 3), FeatureID: 7, Views: 3})
	c.Add(Point{Pos: geom.V3(-1, 0, 1), Artificial: true})
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	if c.At(0).FeatureID != 7 || c.At(1).Pos != geom.V3(-1, 0, 1) {
		t.Error("At returned wrong points")
	}
	if c.CountArtificial() != 1 {
		t.Error("CountArtificial wrong")
	}
	n := 0
	c.Each(func(p Point) { n++ })
	if n != 2 {
		t.Error("Each visited wrong count")
	}
}

func TestCloudCopySemantics(t *testing.T) {
	src := []Point{{Pos: geom.V3(1, 1, 1)}}
	c := NewCloud(src)
	src[0].Pos = geom.V3(9, 9, 9)
	if c.At(0).Pos != geom.V3(1, 1, 1) {
		t.Error("NewCloud must copy its input")
	}
	pts := c.Points()
	pts[0].Pos = geom.V3(5, 5, 5)
	if c.At(0).Pos != geom.V3(1, 1, 1) {
		t.Error("Points must return a copy")
	}
	clone := c.Clone()
	clone.Add(Point{})
	if c.Len() != 1 {
		t.Error("Clone shares storage")
	}
}

func TestCloudMergeAndBounds(t *testing.T) {
	a := NewCloud([]Point{{Pos: geom.V3(0, 0, 0)}, {Pos: geom.V3(2, 1, 5)}})
	b := NewCloud([]Point{{Pos: geom.V3(-1, 4, 0)}})
	a.Merge(b)
	if a.Len() != 3 {
		t.Fatalf("merged len = %d", a.Len())
	}
	if got := a.At(2).Pos; got != geom.V3(-1, 4, 0) {
		t.Errorf("merged point = %+v, want b's point appended", got)
	}
}

// clusterCloud builds a dense cube of points plus nOut far-away outliers.
func clusterCloud(rng *rand.Rand, nIn, nOut int) *Cloud {
	c := NewCloud(nil)
	for i := 0; i < nIn; i++ {
		c.Add(Point{Pos: geom.V3(rng.Float64(), rng.Float64(), rng.Float64()), FeatureID: uint64(i + 1)})
	}
	for i := 0; i < nOut; i++ {
		// Outliers 20..30 m away, isolated from everything.
		dir := geom.V3(rng.Float64()-0.5, rng.Float64()-0.5, rng.Float64()-0.5).Norm()
		c.Add(Point{Pos: dir.Scale(20 + 10*rng.Float64()).Add(geom.V3(50*float64(i), 0, 0))})
	}
	return c
}

func TestSORRemovesOutliers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := clusterCloud(rng, 300, 5)
	out, removed, err := StatisticalOutlierRemoval(c, SOROptions{})
	if err != nil {
		t.Fatal(err)
	}
	if removed < 5 {
		t.Errorf("removed %d points, want at least the 5 outliers", removed)
	}
	// All far outliers must be gone.
	out.Each(func(p Point) {
		if p.Pos.Len() > 10 {
			t.Errorf("outlier at %v survived", p.Pos)
		}
	})
	// The bulk of the inliers must survive.
	if out.Len() < 250 {
		t.Errorf("only %d inliers survived out of 300", out.Len())
	}
}

func TestSORKeepsUniformCloud(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	c := clusterCloud(rng, 200, 0)
	out, removed, err := StatisticalOutlierRemoval(c, SOROptions{StdDevMul: 3})
	if err != nil {
		t.Fatal(err)
	}
	if removed > 4 {
		t.Errorf("removed %d from a uniform cloud with 3-sigma threshold", removed)
	}
	if out.Len()+removed != c.Len() {
		t.Error("point count mismatch")
	}
}

func TestSORSmallClouds(t *testing.T) {
	// Clouds at or below K+1 points are returned unchanged.
	c := NewCloud([]Point{
		{Pos: geom.V3(0, 0, 0)},
		{Pos: geom.V3(100, 0, 0)},
	})
	out, removed, err := StatisticalOutlierRemoval(c, SOROptions{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	if removed != 0 || out.Len() != 2 {
		t.Errorf("small cloud changed: removed=%d len=%d", removed, out.Len())
	}
	// Empty cloud.
	out, removed, err = StatisticalOutlierRemoval(NewCloud(nil), SOROptions{})
	if err != nil || removed != 0 || out.Len() != 0 {
		t.Errorf("empty cloud: out=%d removed=%d err=%v", out.Len(), removed, err)
	}
}

func TestSORValidation(t *testing.T) {
	c := clusterCloud(rand.New(rand.NewSource(1)), 50, 0)
	if _, _, err := StatisticalOutlierRemoval(c, SOROptions{K: -1}); err == nil {
		t.Error("negative K should error")
	}
	if _, _, err := StatisticalOutlierRemoval(c, SOROptions{StdDevMul: -2}); err == nil {
		t.Error("negative StdDevMul should error")
	}
}

func TestSORPreservesMetadata(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	c := clusterCloud(rng, 100, 2)
	out, _, err := StatisticalOutlierRemoval(c, SOROptions{})
	if err != nil {
		t.Fatal(err)
	}
	ids := map[uint64]bool{}
	out.Each(func(p Point) { ids[p.FeatureID] = true })
	if !ids[1] || !ids[50] {
		t.Error("feature IDs lost through SOR")
	}
}

func TestKNNExactness(t *testing.T) {
	// Compare grid-accelerated kNN against a sort-based brute force. The
	// k-best selection must return exactly the values a full sort keeps, so
	// the comparison is ==, not a tolerance: SOR's per-point sums depend on
	// every bit.
	rng := rand.New(rand.NewSource(21))
	uniform := func(n int, side float64) []Point {
		pts := make([]Point, n)
		for i := range pts {
			pts[i].Pos = geom.V3(rng.Float64()*side, rng.Float64()*side, rng.Float64()*side)
		}
		return pts
	}
	// Duplicates and ties: points on a 0.25 m lattice (many equal
	// distances) with every third point repeated (zero distances).
	var lattice []Point
	for x := 0; x < 6; x++ {
		for y := 0; y < 6; y++ {
			for z := 0; z < 3; z++ {
				p := Point{Pos: geom.V3(float64(x)*0.25, float64(y)*0.25, float64(z)*0.25)}
				lattice = append(lattice, p)
				if (x+y+z)%3 == 0 {
					lattice = append(lattice, p)
				}
			}
		}
	}
	// More than k points in one cell: 40 points packed into a 0.1 m cube
	// (inside one 0.5 m cell) beside a sparse background.
	crowded := uniform(60, 4)
	for i := 0; i < 40; i++ {
		crowded = append(crowded, Point{Pos: geom.V3(1.1+rng.Float64()*0.1, 1.1+rng.Float64()*0.1, 1.1+rng.Float64()*0.1)})
	}
	// An isolated outlier 200 cells from the cluster: reaching it by ring
	// expansion would need a shell far beyond the brute-force cutoff
	// (cube of the shell side > 4·cells + 64), so its query and the
	// cluster's far-reaching queries take the brute path.
	isolated := append(uniform(50, 2), Point{Pos: geom.V3(100, 0, 0)})
	// Points whose cells do not pack into a cell key (2·10^6 cells out on
	// x; -2^20-1 cells on z) sit in no cell: every query on such an
	// index scans all points.
	farOut := append(uniform(30, 2),
		Point{Pos: geom.V3(1e6, 0, 0)},
		Point{Pos: geom.V3(0.2, 0.2, -(1<<20)*0.5-0.25)})

	cases := []struct {
		name string
		pts  []Point
		ks   []int
	}{
		{"uniform", uniform(120, 4), []int{1, 3, 8}},
		{"duplicates and ties", lattice, []int{1, 2, 6, 8, 26}},
		{"crowded cell", crowded, []int{1, 8, 39, 45}},
		{"isolated outlier", isolated, []int{1, 8, 50}},
		{"outside packed range", farOut, []int{1, 8}},
		// k >= n-1: every other point is a neighbour; the query ends on
		// the all-swept stop or the brute path.
		{"k at least n-1", uniform(9, 3), []int{8, 9, 20}},
		{"two points", uniform(2, 3), []int{1, 8}},
	}
	for _, tc := range cases {
		idx := newKNNIndex(tc.pts, 0.5)
		if want := tc.name == "outside packed range"; idx.unpacked != want {
			t.Fatalf("%s: unpacked = %v, want %v", tc.name, idx.unpacked, want)
		}
		for _, k := range tc.ks {
			buf := make([]float64, 0, k)
			for i := range tc.pts {
				want := bruteKNN(tc.pts, i, k)
				for _, got := range [][]float64{idx.nearest(i, k, nil), idx.nearest(i, k, buf), idx.brute(i, k, nil)} {
					if len(got) != len(want) {
						t.Fatalf("%s k=%d i=%d: len got %d want %d", tc.name, k, i, len(got), len(want))
					}
					for j := range got {
						if got[j] != want[j] {
							t.Fatalf("%s k=%d i=%d: dist[%d] got %v want %v", tc.name, k, i, j, got[j], want[j])
						}
					}
				}
			}
		}
	}
	if newKNNIndex(uniform(5, 1), 0.5).nearest(0, 0, nil) != nil {
		t.Error("k=0 should return nil")
	}
}

// TestKNNMatchesBruteRandomized checks nearest against the sort-based
// reference, bit for bit, on randomized clouds built to stress its stopping
// bound: points exactly on cell faces, points a few ulps either side of
// faces whose coordinates are not dyadic (the bound and the distances then
// round differently), duplicates and exact distance ties, dense clusters,
// and far outliers, including ones beyond the packed key range.
func TestKNNMatchesBruteRandomized(t *testing.T) {
	const cell = 0.5
	// ulps moves v by n units in the last place.
	ulps := func(v float64, n int) float64 {
		for ; n > 0; n-- {
			v = math.Nextafter(v, math.Inf(1))
		}
		for ; n < 0; n++ {
			v = math.Nextafter(v, math.Inf(-1))
		}
		return v
	}
	families := []struct {
		name   string
		trials int
		gen    func(rng *rand.Rand) []Point
	}{
		{"on faces", 6, func(rng *rand.Rand) []Point {
			pts := make([]Point, 120)
			for i := range pts {
				c := func() float64 { return float64(rng.Intn(9)-4) * cell }
				pts[i].Pos = geom.V3(c(), c(), c())
			}
			return pts
		}},
		{"near faces", 60, func(rng *rand.Rand) []Point {
			pts := make([]Point, 150)
			for i := range pts {
				c := func() float64 {
					v := 0.1 + float64(rng.Intn(9)-4)*0.05
					if rng.Intn(2) == 0 {
						v = ulps(v, rng.Intn(7)-3)
					}
					return v
				}
				pts[i].Pos = geom.V3(c(), c(), c())
			}
			return pts
		}},
		{"duplicates and ties", 6, func(rng *rand.Rand) []Point {
			// Points mirrored through a centre sit at equal distances
			// from it; every fourth point is repeated.
			var pts []Point
			for len(pts) < 120 {
				o := geom.V3(float64(rng.Intn(6))*0.25, float64(rng.Intn(6))*0.25, float64(rng.Intn(3))*0.25)
				d := geom.V3(float64(rng.Intn(5)-2)*0.125, float64(rng.Intn(5)-2)*0.125, 0)
				pts = append(pts, Point{Pos: o.Add(d)}, Point{Pos: o.Sub(d)})
				if len(pts)%4 == 0 {
					pts = append(pts, pts[len(pts)-1])
				}
			}
			return pts
		}},
		{"dense clusters", 6, func(rng *rand.Rand) []Point {
			var pts []Point
			for c := 0; c < 4; c++ {
				o := geom.V3(rng.Float64()*3, rng.Float64()*3, rng.Float64())
				for i := 0; i < 30; i++ {
					pts = append(pts, Point{Pos: o.Add(geom.V3(rng.Float64()*0.04, rng.Float64()*0.04, rng.Float64()*0.04))})
				}
			}
			for i := 0; i < 30; i++ {
				pts = append(pts, Point{Pos: geom.V3(rng.Float64()*3, rng.Float64()*3, rng.Float64())})
			}
			return pts
		}},
		{"far outliers", 6, func(rng *rand.Rand) []Point {
			pts := make([]Point, 100)
			for i := range pts {
				pts[i].Pos = geom.V3(rng.Float64()*2, rng.Float64()*2, rng.Float64()*2)
			}
			for i := 0; i < 4; i++ {
				pts = append(pts, Point{Pos: geom.V3(20+rng.Float64()*180, rng.Float64()*2, -rng.Float64()*50)})
			}
			if rng.Intn(2) == 0 {
				// Beyond the packed key range: the index falls back to
				// scanning every point.
				pts = append(pts, Point{Pos: geom.V3(2e6*cell, 0, 0)})
			}
			return pts
		}},
	}
	for fi, f := range families {
		for trial := 0; trial < f.trials; trial++ {
			rng := rand.New(rand.NewSource(int64(1000*fi + trial)))
			pts := f.gen(rng)
			idx := newKNNIndex(pts, cell)
			for _, k := range []int{1, 8, 16} {
				buf := make([]float64, 0, k)
				for i := range pts {
					want := bruteKNN(pts, i, k)
					got := idx.nearest(i, k, buf)
					if len(got) != len(want) {
						t.Fatalf("%s trial %d k=%d i=%d: len got %d want %d", f.name, trial, k, i, len(got), len(want))
					}
					for j := range want {
						if got[j] != want[j] {
							t.Fatalf("%s trial %d k=%d i=%d: dist[%d] got %v want %v", f.name, trial, k, i, j, got[j], want[j])
						}
					}
				}
			}
		}
	}
}

// bruteKNN is the reference: every distance from point i, fully sorted,
// truncated to k.
func bruteKNN(pts []Point, i, k int) []float64 {
	var ds []float64
	for j := range pts {
		if j == i {
			continue
		}
		ds = append(ds, pts[i].Pos.Dist(pts[j].Pos))
	}
	sort.Float64s(ds)
	if len(ds) > k {
		ds = ds[:k]
	}
	return ds
}

func TestPackKeyRange(t *testing.T) {
	const lo, hi = -(1 << (keyBits - 1)), 1<<(keyBits-1) - 1
	seen := map[uint64][3]int{}
	for _, c := range [][3]int{{0, 0, 0}, {lo, lo, lo}, {hi, hi, hi}, {lo, 0, hi}, {hi, lo, 0}, {-1, -1, -1}, {1, -1, 0}} {
		k, ok := packKey(c[0], c[1], c[2])
		if !ok {
			t.Fatalf("packKey%v out of range", c)
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("packKey%v aliases packKey%v", c, prev)
		}
		seen[k] = c
	}
	for _, c := range [][3]int{{lo - 1, 0, 0}, {0, hi + 1, 0}, {0, 0, lo - 1}, {math.MaxInt, 0, 0}, {0, math.MinInt, 0}} {
		if _, ok := packKey(c[0], c[1], c[2]); ok {
			t.Errorf("packKey%v should be out of range", c)
		}
	}
}

func TestMaxAbs3(t *testing.T) {
	tests := []struct{ a, b, c, want int }{
		{0, 0, 0, 0},
		{-3, 1, 2, 3},
		{1, -5, 2, 5},
		{1, 2, -7, 7},
		{4, 4, 4, 4},
	}
	for _, tt := range tests {
		if got := maxAbs3(tt.a, tt.b, tt.c); got != tt.want {
			t.Errorf("maxAbs3(%d,%d,%d) = %d, want %d", tt.a, tt.b, tt.c, got, tt.want)
		}
	}
}
