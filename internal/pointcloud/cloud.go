// Package pointcloud provides the 3D point-cloud container produced by the
// SfM pipeline, a grid-accelerated k-nearest-neighbour index, and the
// statistical outlier removal (SOR) filter SnapTask applies to every freshly
// reconstructed model (Algorithm 1, line 2). The filter follows the classic
// PCL formulation: compute each point's mean distance to its k nearest
// neighbours, then discard points whose mean distance exceeds the global
// mean by more than stddevMul standard deviations.
package pointcloud

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"snaptask/internal/geom"
)

// Point is one reconstructed 3D point. Source tags where it came from so the
// featureless-surface pipeline can separate artificially textured points
// from natural ones later, as the paper notes ("since we use distinctive
// colors, it is easy to locate the artificial points later on").
type Point struct {
	Pos geom.Vec3
	// FeatureID is the identifier of the scene feature this point
	// reconstructs, 0 for synthetic/outlier points.
	FeatureID uint64
	// Views is the number of registered camera views observing the point.
	Views int
	// Artificial marks points reconstructed from imprinted textures on
	// annotated featureless surfaces.
	Artificial bool
}

// Cloud is an ordered collection of points. The zero value is an empty,
// usable cloud. Cloud is not safe for concurrent mutation.
type Cloud struct {
	pts []Point
}

// NewCloud returns a cloud initialised with the given points (copied).
func NewCloud(pts []Point) *Cloud {
	c := &Cloud{pts: make([]Point, len(pts))}
	copy(c.pts, pts)
	return c
}

// Wrap returns a cloud that takes ownership of the given slice without
// copying it; the caller must not use the slice afterwards.
func Wrap(pts []Point) *Cloud {
	return &Cloud{pts: pts}
}

// Len returns the number of points.
func (c *Cloud) Len() int { return len(c.pts) }

// At returns the i-th point.
func (c *Cloud) At(i int) Point { return c.pts[i] }

// Add appends a point.
func (c *Cloud) Add(p Point) { c.pts = append(c.pts, p) }

// Points returns a copy of the underlying points.
func (c *Cloud) Points() []Point {
	out := make([]Point, len(c.pts))
	copy(out, c.pts)
	return out
}

// Each calls fn for every point in order.
func (c *Cloud) Each(fn func(p Point)) {
	for _, p := range c.pts {
		fn(p)
	}
}

// Clone returns a deep copy of the cloud.
func (c *Cloud) Clone() *Cloud { return NewCloud(c.pts) }

// Merge appends all points of o to c.
func (c *Cloud) Merge(o *Cloud) {
	c.pts = append(c.pts, o.pts...)
}

// CountArtificial returns how many points carry the Artificial mark.
func (c *Cloud) CountArtificial() int {
	n := 0
	for _, p := range c.pts {
		if p.Artificial {
			n++
		}
	}
	return n
}

// knnIndex is a uniform-grid spatial hash over the points of a cloud used to
// answer exact kNN queries. A query sweeps Chebyshev shells of cells around
// the point's own cell until the k-th distance found is provably exact, so
// its cost follows the number of points within that distance: a handful of
// shells for a well-distributed cloud, a full scan for an isolated outlier.
type knnIndex struct {
	cellSize float64
	// cells maps a packed cell key (packKey) to the points in that cell.
	cells map[uint64][]int
	pts   []Point
	// unpacked is set once a point's cell lies outside the packed key
	// range; the point is then in no cell, and every query scans all
	// points instead.
	unpacked bool
}

// keyBits is the width of one packed cell coordinate: cells within ±2^20
// of the origin (±524 km at the default 0.5 m cell) pack exactly.
const keyBits = 21

func newKNNIndex(pts []Point, cellSize float64) *knnIndex {
	idx := &knnIndex{
		cellSize: cellSize,
		cells:    make(map[uint64][]int, len(pts)/2+1),
		pts:      pts,
	}
	for i, p := range pts {
		idx.addToCell(i, p.Pos)
	}
	return idx
}

// insert appends a point to the index and returns its index. The search
// structures stay valid because points never move once inserted.
func (idx *knnIndex) insert(p Point) int {
	i := len(idx.pts)
	idx.pts = append(idx.pts, p)
	idx.addToCell(i, p.Pos)
	return i
}

func (idx *knnIndex) addToCell(i int, p geom.Vec3) {
	x, y, z := idx.cell(p)
	k, ok := packKey(x, y, z)
	if !ok {
		idx.unpacked = true
		return
	}
	idx.cells[k] = append(idx.cells[k], i)
}

func (idx *knnIndex) cell(p geom.Vec3) (x, y, z int) {
	return int(math.Floor(p.X / idx.cellSize)),
		int(math.Floor(p.Y / idx.cellSize)),
		int(math.Floor(p.Z / idx.cellSize))
}

// packKey packs cell coordinates into one map key, keyBits per axis. It
// reports false when a coordinate is outside [-2^(keyBits-1),
// 2^(keyBits-1)), where packing would alias two cells.
func packKey(x, y, z int) (uint64, bool) {
	const bias = 1 << (keyBits - 1)
	ux, uy, uz := uint64(x+bias), uint64(y+bias), uint64(z+bias)
	if ux|uy|uz >= 1<<keyBits {
		return 0, false
	}
	return ux<<(2*keyBits) | uy<<keyBits | uz, true
}

// nearest returns the ascending distances to the k nearest neighbours of
// point i (excluding itself), expanding the search ring until enough
// neighbours are guaranteed exact. The result is written into buf's backing
// array when it has capacity k, so a caller looping over queries can reuse
// one buffer.
func (idx *knnIndex) nearest(i, k int, buf []float64) []float64 {
	if k <= 0 {
		return nil
	}
	if idx.unpacked {
		return idx.brute(i, k, buf)
	}
	center := idx.pts[i].Pos
	cx, cy, cz := idx.cell(center)
	// face is the query's distance to the nearest face of its own cell;
	// scale sizes the rounding margin (knnSlack) to the coordinates.
	face := math.Min(
		math.Min(faceDist(center.X, cx, idx.cellSize), faceDist(center.Y, cy, idx.cellSize)),
		faceDist(center.Z, cz, idx.cellSize))
	scale := math.Max(math.Max(math.Abs(center.X), math.Abs(center.Y)), math.Abs(center.Z))
	best := buf[:0]
	seen := 0
	for ring := 0; ; ring++ {
		// Once the search shell is larger than the number of occupied
		// cells, scanning every point directly is cheaper than walking
		// empty shells (isolated outliers would otherwise force huge
		// ring expansions).
		if shell := 2*ring + 1; shell*shell*shell > 4*len(idx.cells)+64 {
			return idx.brute(i, k, buf)
		}
		// Offer every point in cells on the Chebyshev shell of radius
		// `ring` around the query cell.
		for dx := -ring; dx <= ring; dx++ {
			for dy := -ring; dy <= ring; dy++ {
				for dz := -ring; dz <= ring; dz++ {
					if maxAbs3(dx, dy, dz) != ring {
						continue // only the new shell
					}
					// Every point is in a packable cell, so a cell
					// that does not pack holds none.
					key, ok := packKey(cx+dx, cy+dy, cz+dz)
					if !ok {
						continue
					}
					for _, j := range idx.cells[key] {
						if j == i {
							continue
						}
						best = offerKBest(best, k, center.Dist(idx.pts[j].Pos))
						seen++
					}
				}
			}
		}
		// After sweeping rings 0..ring, every point closer than
		// ring·cellSize + face to the query has been offered, so the
		// result is exact once the k-th distance falls strictly inside
		// that radius (less the rounding margin).
		if len(best) == k {
			reach := float64(ring)*idx.cellSize + face
			if best[k-1] < reach-knnSlack*(reach+scale) {
				return best
			}
		}
		// Terminate once the whole cloud has been swept.
		if seen == len(idx.pts)-1 {
			return best
		}
	}
}

// knnSlack is the relative rounding margin of nearest's stopping bound:
// far above the few ulps by which the bound and a computed distance can
// err, far below any spacing that would delay a stop.
const knnSlack = 1e-9

// faceDist returns the distance from coordinate v to the nearer face of
// its cell c along one axis.
func faceDist(v float64, c int, cellSize float64) float64 {
	lo := v - float64(c)*cellSize
	return math.Max(0, math.Min(lo, cellSize-lo))
}

// brute returns the exact k nearest distances by scanning every point.
func (idx *knnIndex) brute(i, k int, buf []float64) []float64 {
	best := buf[:0]
	center := idx.pts[i].Pos
	for j := range idx.pts {
		if j == i {
			continue
		}
		best = offerKBest(best, k, center.Dist(idx.pts[j].Pos))
	}
	return best
}

// offerKBest keeps best as the ascending k smallest of the distances offered
// so far: d is inserted in order when it beats the current k-th value (or
// best is not yet full), evicting the largest. A d equal to a full buffer's
// k-th value is dropped, which leaves the same values a full sort would
// keep.
func offerKBest(best []float64, k int, d float64) []float64 {
	n := len(best)
	if n == k {
		if d >= best[k-1] {
			return best
		}
		n--
	} else {
		best = append(best, d)
	}
	for n > 0 && best[n-1] > d {
		best[n] = best[n-1]
		n--
	}
	best[n] = d
	return best
}

func maxAbs3(a, b, c int) int {
	m := a
	if a < 0 {
		m = -a
	}
	if b < 0 {
		b = -b
	}
	if c < 0 {
		c = -c
	}
	if b > m {
		m = b
	}
	if c > m {
		m = c
	}
	return m
}

// SOROptions configures StatisticalOutlierRemoval.
type SOROptions struct {
	// K is the number of nearest neighbours examined per point.
	// Defaults to 8.
	K int
	// StdDevMul is the standard-deviation multiplier of the distance
	// threshold. Defaults to 1.0 (PCL's common setting for sparse
	// SfM clouds).
	StdDevMul float64
	// CellSize is the spatial-hash resolution in metres. Defaults to
	// 0.5 m, appropriate for room-scale clouds.
	CellSize float64
}

func (o SOROptions) withDefaults() SOROptions {
	if o.K == 0 {
		o.K = 8
	}
	if o.StdDevMul == 0 {
		o.StdDevMul = 1.0
	}
	if o.CellSize == 0 {
		o.CellSize = 0.5
	}
	return o
}

// StatisticalOutlierRemoval returns a new cloud with statistical outliers
// removed, along with the number of points discarded. Clouds with at most
// K+1 points are returned unchanged (no meaningful statistics exist).
func StatisticalOutlierRemoval(c *Cloud, opts SOROptions) (*Cloud, int, error) {
	opts = opts.withDefaults()
	if opts.K < 1 {
		return nil, 0, fmt.Errorf("pointcloud: SOR K=%d must be >= 1", opts.K)
	}
	if opts.StdDevMul < 0 {
		return nil, 0, fmt.Errorf("pointcloud: SOR StdDevMul=%v must be >= 0", opts.StdDevMul)
	}
	n := c.Len()
	if n <= opts.K+1 {
		return c.Clone(), 0, nil
	}

	idx := newKNNIndex(c.pts, opts.CellSize)
	targets := make([]int, n)
	for i := range targets {
		targets[i] = i
	}
	meanDists := make([]float64, n)
	parallelMeanKNN(idx, opts.K, targets, meanDists, nil)
	var sum float64
	for _, d := range meanDists {
		sum += d
	}
	mean := sum / float64(n)
	var varSum float64
	for _, d := range meanDists {
		varSum += (d - mean) * (d - mean)
	}
	std := math.Sqrt(varSum / float64(n))
	threshold := mean + opts.StdDevMul*std

	out := &Cloud{pts: make([]Point, 0, n)}
	removed := 0
	for i, p := range c.pts {
		if meanDists[i] <= threshold {
			out.pts = append(out.pts, p)
		} else {
			removed++
		}
	}
	return out, removed, nil
}

// parallelMeanKNN computes, for each index in targets, the mean distance to
// its k nearest neighbours (written to meanDists[i]) and, when kth is
// non-nil, the k-th nearest distance itself (written to kth[i]). Work is
// fanned across runtime.GOMAXPROCS(0) goroutines; each target writes only
// its own slots, so results are deterministic regardless of scheduling.
// Distances returned by nearest are ascending, which fixes the float
// summation order and keeps the result bit-identical to a serial
// computation.
func parallelMeanKNN(idx *knnIndex, k int, targets []int, meanDists, kth []float64) {
	workers := runtime.GOMAXPROCS(0)
	if workers > len(targets) {
		workers = len(targets)
	}
	if workers < 1 {
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]float64, 0, k)
			for {
				t := int(next.Add(1)) - 1
				if t >= len(targets) {
					return
				}
				i := targets[t]
				ds := idx.nearest(i, k, buf)
				var s float64
				for _, d := range ds {
					s += d
				}
				meanDists[i] = s / float64(len(ds))
				if kth != nil {
					kth[i] = ds[len(ds)-1]
				}
			}
		}()
	}
	wg.Wait()
}
