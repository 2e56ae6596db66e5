package mapping

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"snaptask/internal/geom"
	"snaptask/internal/grid"
	"snaptask/internal/pointcloud"
)

// goldenObstaclesDigest is the digest of every grid ObstaclesMap builds in
// TestObstaclesMapGoldenDigest. It was recorded with the earlier octree
// implementation of Algorithm 2 (insert into an OctoMap, merge along the
// up axis, threshold each column), so it pins the per-cell count to the
// values that implementation produced.
const goldenObstaclesDigest = "438eb0b87d78290c6078ccc2ba11c1013ac9bd8ba4d192f8f3150730bb843cde"

// randomObstacleCase draws one layout, cloud and config. Points cluster
// around a few wall segments so that many cells cross the threshold; some
// fall off the layout, below the floor or above the ceiling.
func randomObstacleCase(rng *rand.Rand) (*grid.Map, *pointcloud.Cloud, Config) {
	res := 0.10 + 0.40*rng.Float64()
	if rng.Intn(3) == 0 {
		res = []float64{0.10, 0.15, 0.20, 0.25}[rng.Intn(4)]
	}
	origin := geom.V2(rng.Float64()*20-10, rng.Float64()*20-10)
	w, h := 5+rng.Intn(80), 5+rng.Intn(80)
	layout, err := grid.New(origin, res, w, h)
	if err != nil {
		panic(err)
	}
	b := layout.Bounds()
	cfg := Config{ObstacleThreshold: 1 + rng.Intn(6)}
	if rng.Intn(3) == 0 {
		cfg.MinZ = rng.Float64() * 0.5
		cfg.MaxZ = cfg.MinZ + rng.Float64()*3
	}
	cloud := pointcloud.NewCloud(nil)
	id := uint64(0)
	for s, walls := 0, 1+rng.Intn(6); s < walls; s++ {
		// Wall ends may lie up to 2 m off the layout.
		a := geom.V2(b.Min.X-2+rng.Float64()*(b.Width()+4), b.Min.Y-2+rng.Float64()*(b.Height()+4))
		c := geom.V2(b.Min.X-2+rng.Float64()*(b.Width()+4), b.Min.Y-2+rng.Float64()*(b.Height()+4))
		for n := rng.Intn(4000); n > 0; n-- {
			p := a.Add(c.Sub(a).Scale(rng.Float64()))
			id++
			cloud.Add(pointcloud.Point{
				Pos:       geom.V3(p.X+rng.NormFloat64()*0.05, p.Y+rng.NormFloat64()*0.05, -0.5+rng.Float64()*3.6),
				FeatureID: id,
			})
		}
	}
	for n := rng.Intn(500); n > 0; n-- {
		id++
		cloud.Add(pointcloud.Point{
			Pos:       geom.V3(b.Min.X-5+rng.Float64()*(b.Width()+10), b.Min.Y-5+rng.Float64()*(b.Height()+10), -1+rng.Float64()*5),
			FeatureID: id,
		})
	}
	return layout, cloud, cfg
}

// TestObstaclesMapGoldenDigest builds 100 seeded random obstacles maps
// and requires their grids to hash to the recorded digest.
func TestObstaclesMapGoldenDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest recorded on amd64, running on %s", runtime.GOARCH)
	}
	rng := rand.New(rand.NewSource(22))
	var buf []byte
	put := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	obstacles := 0
	for i := 0; i < 100; i++ {
		layout, cloud, cfg := randomObstacleCase(rng)
		m, err := ObstaclesMap(cloud, layout, cfg)
		if err != nil {
			t.Fatal(err)
		}
		o := m.Origin()
		put(uint64(m.Width()))
		put(uint64(m.Height()))
		put(math.Float64bits(m.Res()))
		put(math.Float64bits(o.X))
		put(math.Float64bits(o.Y))
		m.Each(func(_ grid.Cell, v int) { put(uint64(v)) })
		obstacles += m.CountPositive()
	}
	if obstacles == 0 {
		t.Fatal("no case produced an obstacle cell")
	}
	sum := sha256.Sum256(buf)
	if got := hex.EncodeToString(sum[:]); got != goldenObstaclesDigest {
		t.Errorf("obstacles digest %s, want %s (%d obstacle cells)", got, goldenObstaclesDigest, obstacles)
	}
}

// TestObstaclesMapBoundaryPoints pins the rule for points that lie exactly
// on a boundary: a point belongs to the cell and height layer whose lower
// edge it lies on (math.Floor, as grid.Map.CellOf uses), and a layer
// counts when its centre (floor(z/res)+0.5)·res lies in [MinZ, MaxZ].
// The coordinates are exact in binary, so no rounding is involved.
func TestObstaclesMapBoundaryPoints(t *testing.T) {
	layout, err := grid.New(geom.V2(-1, 0), 0.25, 8, 4) // x in [-1, 1), y in [0, 1)
	if err != nil {
		t.Fatal(err)
	}
	cloud := pointcloud.NewCloud(nil)
	add := func(x, y, z float64) {
		cloud.Add(pointcloud.Point{Pos: geom.V3(x, y, z), FeatureID: uint64(cloud.Len() + 1)})
	}
	add(0, 0.5, 1)        // x on the edge between cells 3 and 4: cell [4,2]
	add(-0.25, 0.5, 1)    // cell [3,2]
	add(-1, 0, 1)         // the layout's own corner: cell [0,0]
	add(1, 0.5, 1)        // the layout's far edge: off the layout
	add(0.5, 1, 1)        // off the layout in y
	add(0.5, 0.75, 0.5)   // z on a layer edge: layer [0.5, 0.75), centre 0.625
	add(0.5, 0.75, 0.25)  // layer [0.25, 0.5), centre 0.375: below MinZ
	add(0.75, 0.25, 0.75) // layer [0.75, 1), centre 0.875: above MaxZ
	add(0.75, 0.25, 0.5)
	m, err := ObstaclesMap(cloud, layout, Config{ObstacleThreshold: 1, MinZ: 0.5, MaxZ: 0.75})
	if err != nil {
		t.Fatal(err)
	}
	want := map[grid.Cell]int{{I: 4, J: 2}: 0, {I: 3, J: 2}: 0, {I: 0, J: 0}: 0, {I: 6, J: 3}: 1, {I: 7, J: 1}: 1}
	m2, err := ObstaclesMap(cloud, layout, Config{ObstacleThreshold: 1, MinZ: 0.5, MaxZ: 1.25})
	if err != nil {
		t.Fatal(err)
	}
	want2 := map[grid.Cell]int{{I: 4, J: 2}: 1, {I: 3, J: 2}: 1, {I: 0, J: 0}: 1, {I: 6, J: 3}: 1, {I: 7, J: 1}: 2}
	for _, tc := range []struct {
		m    *grid.Map
		want map[grid.Cell]int
	}{{m, want}, {m2, want2}} {
		total := 0
		tc.m.Each(func(c grid.Cell, v int) {
			total += v
			if v != tc.want[c] {
				t.Errorf("cell %v = %d, want %d", c, v, tc.want[c])
			}
		})
		sum := 0
		for _, v := range tc.want {
			sum += v
		}
		if total != sum {
			t.Errorf("grid total %d, want %d", total, sum)
		}
	}
}
