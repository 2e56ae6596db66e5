package pointcloud

import (
	"math/rand"
	"slices"
	"testing"

	"snaptask/internal/geom"
)

// randPoint draws a point from a few gaussian clusters plus occasional far
// outliers, so SOR actually removes something.
func randPoint(rng *rand.Rand, id uint64) Point {
	centers := []geom.Vec3{geom.V3(0, 0, 0), geom.V3(4, 1, 0), geom.V3(1, 5, 2)}
	p := Point{FeatureID: id, Views: 2 + rng.Intn(4)}
	if rng.Float64() < 0.05 {
		p.Pos = geom.V3(rng.Float64()*40-20, rng.Float64()*40-20, rng.Float64()*40-20)
	} else {
		c := centers[rng.Intn(len(centers))]
		p.Pos = geom.V3(c.X+rng.NormFloat64(), c.Y+rng.NormFloat64(), c.Z+rng.NormFloat64()*0.3)
	}
	return p
}

// buildTwoSegment assembles a cloud as [segA..., segB...].
func buildTwoSegment(segA, segB []Point) (*Cloud, int) {
	pts := make([]Point, 0, len(segA)+len(segB))
	pts = append(pts, segA...)
	pts = append(pts, segB...)
	return Wrap(pts), len(segA)
}

// assertSameFilter runs FilterAppend over the cloud [segA..., segB...],
// passing as its delta the points added since the segment lengths in seen,
// advances seen, and asserts the output is byte-identical to the full
// filter's.
func assertSameFilter(t *testing.T, inc *IncrementalSOR, opts SOROptions, segA, segB []Point, seen *[2]int, batch int) {
	t.Helper()
	c, split := buildTwoSegment(segA, segB)
	want, wantRemoved, err := StatisticalOutlierRemoval(c, opts)
	if err != nil {
		t.Fatalf("batch %d: full SOR: %v", batch, err)
	}
	got, gotRemoved, err := inc.FilterAppend(c, split, len(segA)-seen[0], len(segB)-seen[1])
	if err != nil {
		t.Fatalf("batch %d: incremental SOR: %v", batch, err)
	}
	*seen = [2]int{len(segA), len(segB)}
	if gotRemoved != wantRemoved {
		t.Fatalf("batch %d: removed %d, want %d", batch, gotRemoved, wantRemoved)
	}
	if !slices.Equal(got.Points(), want.Points()) {
		t.Fatalf("batch %d: incremental filter output differs from full filter (n=%d)", batch, c.Len())
	}
}

// TestIncrementalSORMatchesFull grows a two-segment cloud over many random
// batches and asserts the incremental filter output is byte-identical to the
// full filter after every batch, including while the cloud is still below the
// K+1 statistics floor.
func TestIncrementalSORMatchesFull(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		opts := SOROptions{K: 6, StdDevMul: 1.0, CellSize: 0.5}
		inc, err := NewIncrementalSOR(opts)
		if err != nil {
			t.Fatal(err)
		}
		var segA, segB []Point
		var seen [2]int
		id := uint64(1)
		for batch := 0; batch < 12; batch++ {
			for i := 0; i < 3+rng.Intn(40); i++ {
				segA = append(segA, randPoint(rng, id))
				id++
			}
			for i := 0; i < rng.Intn(4); i++ {
				segB = append(segB, randPoint(rng, id))
				id++
			}
			// Views counters of existing points may change between
			// batches (re-observed tracks); positions may not.
			if len(segA) > 0 {
				segA[rng.Intn(len(segA))].Views++
			}
			assertSameFilter(t, inc, opts, segA, segB, &seen, batch)
		}
	}
}

// TestIncrementalSORFallback checks that FilterAppend falls back to an
// exact full recompute when the claimed delta does not line up with the
// cached segments, and after an explicit Reset (the annotation
// pipeline's), and that the batch after the fallback runs incrementally
// again.
func TestIncrementalSORFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	opts := SOROptions{K: 5}
	inc, err := NewIncrementalSOR(opts)
	if err != nil {
		t.Fatal(err)
	}
	var segA, segB []Point
	var seen [2]int
	id := uint64(1)
	grow := func(na, nb int) {
		for i := 0; i < na; i++ {
			segA = append(segA, randPoint(rng, id))
			id++
		}
		for i := 0; i < nb; i++ {
			segB = append(segB, randPoint(rng, id))
			id++
		}
	}
	grow(40, 5)
	assertSameFilter(t, inc, opts, segA, segB, &seen, 0)

	// A delta that does not line up with the cached segments: the cloud
	// shrank and the caller reports nothing new.
	segA = segA[:20]
	seen[0] = len(segA)
	assertSameFilter(t, inc, opts, segA, segB, &seen, 1)

	inc.Reset()
	grow(15, 2)
	assertSameFilter(t, inc, opts, segA, segB, &seen, 2)

	before := inc.KNNQueries()
	grow(3, 0)
	assertSameFilter(t, inc, opts, segA, segB, &seen, 3)
	if q, n := inc.KNNQueries()-before, len(segA)+len(segB); q >= n {
		t.Errorf("batch after the fallback ran %d kNN queries for %d points; want an incremental pass", q, n)
	}
}

// TestIncrementalSORFilterAppend drives the delta-trusting entry point with
// correct deltas (must match the full filter) and with a lying delta after an
// out-of-band reset (must fall back to a full recompute, not corrupt state).
func TestIncrementalSORFilterAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	opts := SOROptions{K: 6}
	inc, err := NewIncrementalSOR(opts)
	if err != nil {
		t.Fatal(err)
	}
	var segA, segB []Point
	var seen [2]int
	id := uint64(1)
	for batch := 0; batch < 8; batch++ {
		for i := 0; i < 5+rng.Intn(30); i++ {
			segA = append(segA, randPoint(rng, id))
			id++
		}
		for i := 0; i < rng.Intn(3); i++ {
			segB = append(segB, randPoint(rng, id))
			id++
		}
		if batch == 5 {
			// Simulate an annotation rebuild: cache dropped, but the
			// caller still reports only the per-batch delta.
			inc.Reset()
		}
		assertSameFilter(t, inc, opts, segA, segB, &seen, batch)
	}
	c, split := buildTwoSegment(segA, segB)
	if _, _, err := inc.FilterAppend(c, split, -1, 0); err == nil {
		t.Error("negative delta accepted")
	}
	if _, _, err := inc.FilterAppend(c, split, split+1, 0); err == nil {
		t.Error("delta larger than segment accepted")
	}
}

func TestIncrementalSORErrors(t *testing.T) {
	if _, err := NewIncrementalSOR(SOROptions{K: -1}); err == nil {
		t.Error("negative K accepted")
	}
	if _, err := NewIncrementalSOR(SOROptions{StdDevMul: -0.5}); err == nil {
		t.Error("negative StdDevMul accepted")
	}
	inc, err := NewIncrementalSOR(SOROptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCloud([]Point{{Pos: geom.V3(0, 0, 0)}})
	if _, _, err := inc.FilterAppend(c, 5, 0, 0); err == nil {
		t.Error("split beyond cloud accepted")
	}
	if _, _, err := inc.FilterAppend(c, -1, 0, 0); err == nil {
		t.Error("negative split accepted")
	}
}
