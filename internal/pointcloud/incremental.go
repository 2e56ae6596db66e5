package pointcloud

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"snaptask/internal/telemetry"
)

// IncrementalSOR is a statistical-outlier-removal filter that caches per-point
// mean-kNN distances between calls so that filtering an append-only cloud
// costs O(delta · k + stale) instead of O(n · k) per batch.
//
// The contract mirrors mapping.Incremental: the caller feeds successive
// versions of a cloud made of two grow-only segments — triangulated points in
// [0, split) and outliers in [split, Len()) — where existing points never move
// (their Views counters may change). FilterAppend then recomputes mean-kNN
// distances only for new points and for existing points whose
// k-neighbourhood gained a new point (a new point landed within the cached
// k-th-nearest distance), and re-derives the global mean/stddev cutoff from
// the cached distances. The result is bit-identical to
// StatisticalOutlierRemoval on the same cloud: the k nearest distance
// multiset of every unaffected point is unchanged, each per-point sum runs
// over ascending sorted distances, and the global threshold sums run in
// cloud index order.
//
// A mutation that breaks the contract (a point moved or removed) must be
// followed by Reset. Not safe for concurrent use.
type IncrementalSOR struct {
	opts SOROptions
	idx  *knnIndex
	// meanDists and kth cache, per internal index, the mean of and the
	// largest of the k nearest-neighbour distances.
	meanDists []float64
	kth       []float64
	// extA and extB map positions in the cloud's two external segments to
	// internal indices (internal order interleaves per-batch A/B chunks).
	extA []int
	extB []int
	// queries counts the kNN queries run since creation.
	queries int

	// trace is the stage-span sink of the batch being filtered; nil (the
	// default) disables span collection.
	trace *telemetry.Trace
}

// SetTrace sets the stage-span sink for subsequent FilterAppend calls; the
// owner points it at the current batch's trace and clears it after. A nil
// trace makes every span a no-op.
func (s *IncrementalSOR) SetTrace(tr *telemetry.Trace) { s.trace = tr }

// NewIncrementalSOR returns an incremental filter equivalent to
// StatisticalOutlierRemoval with the same options.
func NewIncrementalSOR(opts SOROptions) (*IncrementalSOR, error) {
	opts = opts.withDefaults()
	if opts.K < 1 {
		return nil, fmt.Errorf("pointcloud: SOR K=%d must be >= 1", opts.K)
	}
	if opts.StdDevMul < 0 {
		return nil, fmt.Errorf("pointcloud: SOR StdDevMul=%v must be >= 0", opts.StdDevMul)
	}
	return &IncrementalSOR{opts: opts}, nil
}

// Reset discards all cached state; the next FilterAppend recomputes from
// scratch. Call after any mutation that breaks the append-only contract
// (e.g. an annotation rebuilt the model).
func (s *IncrementalSOR) Reset() {
	s.idx = nil
	s.meanDists = nil
	s.kth = nil
	s.extA = nil
	s.extB = nil
}

// FilterAppend behaves exactly like StatisticalOutlierRemoval(c, opts) —
// same returned cloud bytes and removed count — while reusing cached
// distances from previous calls. split is the boundary between the cloud's
// two grow-only segments (triangulated points before it, outliers after);
// the last nNewA points of [0, split) and the last nNewB of [split, Len())
// are new, and everything before them is unchanged. The filter trusts that
// delta and never scans the cached positions; if the delta does not line
// up with the cached segment lengths (say, after a Reset), it falls back to
// a full recompute.
func (s *IncrementalSOR) FilterAppend(c *Cloud, split, nNewA, nNewB int) (*Cloud, int, error) {
	n := c.Len()
	if split < 0 || split > n {
		return nil, 0, fmt.Errorf("pointcloud: SOR split=%d outside cloud of %d points", split, n)
	}
	if nNewA < 0 || nNewA > split || nNewB < 0 || nNewB > n-split {
		return nil, 0, fmt.Errorf("pointcloud: SOR delta (%d,%d) outside segments (%d,%d)",
			nNewA, nNewB, split, n-split)
	}
	if n <= s.opts.K+1 {
		s.Reset()
		return c.Clone(), 0, nil
	}
	if len(s.extA) != split-nNewA || len(s.extB) != (n-split)-nNewB {
		s.Reset()
	}
	return s.filter(c, split)
}

// Distances returns the cached mean and k-th nearest-neighbour distances
// of every cached point in cloud order (segment A, then segment B) and the
// length of segment A. Both slices are empty when nothing is cached. A
// model snapshot stores them so that a restore can Adopt them.
func (s *IncrementalSOR) Distances() (split int, mean, kth []float64) {
	n := len(s.extA) + len(s.extB)
	mean = make([]float64, 0, n)
	kth = make([]float64, 0, n)
	for _, ext := range [2][]int{s.extA, s.extB} {
		for _, i := range ext {
			mean = append(mean, s.meanDists[i])
			kth = append(kth, s.kth[i])
		}
	}
	return len(s.extA), mean, kth
}

// Adopt replaces the cache with distances a filter computed earlier for
// exactly this cloud, as Distances returned them; the filter takes
// ownership of both slices. It rebuilds the kNN index by inserting the
// points and runs no kNN query: the next FilterAppend with an
// empty delta derives the threshold from the adopted distances alone.
func (s *IncrementalSOR) Adopt(c *Cloud, split int, mean, kth []float64) error {
	n := c.Len()
	if split < 0 || split > n || len(mean) != n || len(kth) != n {
		return fmt.Errorf("pointcloud: %d/%d adopted distances (split %d) for a cloud of %d points",
			len(mean), len(kth), split, n)
	}
	if n <= s.opts.K+1 {
		return fmt.Errorf("pointcloud: adopted distances for a cloud of %d points, too small for K=%d", n, s.opts.K)
	}
	for i := range mean {
		// Negated so that NaN fails too.
		if !(0 <= mean[i] && mean[i] <= math.MaxFloat64 && 0 <= kth[i] && kth[i] <= math.MaxFloat64) {
			return fmt.Errorf("pointcloud: adopted distances of point %d invalid: mean %v, k-th %v", i, mean[i], kth[i])
		}
	}
	s.Reset()
	s.idx = &knnIndex{cellSize: s.opts.CellSize, cells: make(map[uint64][]int, n/2+1), pts: make([]Point, 0, n)}
	s.extA = make([]int, split)
	s.extB = make([]int, n-split)
	for j := range n {
		s.idx.insert(c.pts[j])
		if j < split {
			s.extA[j] = j
		} else {
			s.extB[j-split] = j
		}
	}
	s.meanDists, s.kth = mean, kth
	return nil
}

// KNNQueries returns the number of kNN queries the filter has run since it
// was created. A filter that adopted its distances runs none until points
// are added.
func (s *IncrementalSOR) KNNQueries() int { return s.queries }

// filter runs FilterAppend's incremental pass proper; the cached segments
// must already be prefixes of the cloud's segments.
func (s *IncrementalSOR) filter(c *Cloud, split int) (*Cloud, int, error) {
	n := c.Len()
	if s.idx == nil {
		s.idx = &knnIndex{
			cellSize: s.opts.CellSize,
			cells:    make(map[uint64][]int, n/2+1),
		}
	}
	oldCount := len(s.idx.pts)

	// Ingest the new tail of each segment into the persistent index.
	var added []int
	for j := len(s.extA); j < split; j++ {
		i := s.idx.insert(c.pts[j])
		s.extA = append(s.extA, i)
		added = append(added, i)
	}
	for j := len(s.extB); j < n-split; j++ {
		i := s.idx.insert(c.pts[split+j])
		s.extB = append(s.extB, i)
		added = append(added, i)
	}
	s.meanDists = append(s.meanDists, make([]float64, len(added))...)
	s.kth = append(s.kth, make([]float64, len(added))...)

	// An existing point's k nearest distances change only if a new point
	// landed within its cached k-th-nearest distance ( <= also re-checks
	// exact ties, which is redundant but cheap).
	sp := s.trace.Span("sor.stale_scan")
	targets := s.staleOld(oldCount, added)
	sp.End()
	targets = append(targets, added...)
	s.queries += len(targets)
	sp = s.trace.Span("sor.knn")
	parallelMeanKNN(s.idx, s.opts.K, targets, s.meanDists, s.kth)
	sp.End()

	// Re-derive the global cutoff from cached distances, summing in cloud
	// index order to match the full filter bit for bit.
	var sum float64
	for _, i := range s.extA {
		sum += s.meanDists[i]
	}
	for _, i := range s.extB {
		sum += s.meanDists[i]
	}
	mean := sum / float64(n)
	var varSum float64
	for _, i := range s.extA {
		d := s.meanDists[i] - mean
		varSum += d * d
	}
	for _, i := range s.extB {
		d := s.meanDists[i] - mean
		varSum += d * d
	}
	std := math.Sqrt(varSum / float64(n))
	threshold := mean + s.opts.StdDevMul*std

	// Emit surviving points from the live cloud so refreshed Views
	// counters propagate even on cached points.
	out := &Cloud{pts: make([]Point, 0, n)}
	removed := 0
	for j := 0; j < n; j++ {
		var i int
		if j < split {
			i = s.extA[j]
		} else {
			i = s.extB[j-split]
		}
		if s.meanDists[i] <= threshold {
			out.pts = append(out.pts, c.pts[j])
		} else {
			removed++
		}
	}
	return out, removed, nil
}

// staleOld returns, in ascending internal order, the indices of pre-existing
// points whose neighbourhood gained one of the added points. The O(old ×
// added) distance scan fans across runtime.GOMAXPROCS(0) goroutines.
func (s *IncrementalSOR) staleOld(oldCount int, added []int) []int {
	if oldCount == 0 || len(added) == 0 {
		return nil
	}
	stale := make([]bool, oldCount)
	workers := runtime.GOMAXPROCS(0)
	if workers > oldCount {
		workers = oldCount
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= oldCount {
					return
				}
				pos := s.idx.pts[i].Pos
				for _, a := range added {
					if pos.Dist(s.idx.pts[a].Pos) <= s.kth[i] {
						stale[i] = true
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	out := make([]int, 0, 16)
	for i, st := range stale {
		if st {
			out = append(out, i)
		}
	}
	return out
}
