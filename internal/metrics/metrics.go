// Package metrics computes the paper's evaluation quantities: model
// coverage against the ground-truth map (Figure 11b), reconstructed
// outer-bounds length (Figure 11a), and the precision / recall / F-score of
// featureless-surface reconstruction (Table I). It also renders maps as
// text for the Figure 12 comparison.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"snaptask/internal/geom"
	"snaptask/internal/grid"
	"snaptask/internal/venue"
)

// BoundsMatchThreshold is the paper's T = 0.15 m: two bound segments count
// as one when closer than this.
const BoundsMatchThreshold = 0.15

// CoveragePercent returns the percentage of ground-truth coverage cells
// that the generated coverage map also covers. Cells outside the
// ground-truth coverage area are ignored, as in the paper's comparison.
func CoveragePercent(generated, truth *grid.Map) (float64, error) {
	if generated == nil || truth == nil {
		return 0, fmt.Errorf("metrics: nil map")
	}
	if !generated.SameLayout(truth) {
		return 0, fmt.Errorf("metrics: generated and truth layouts differ")
	}
	total, hit := 0, 0
	truth.Each(func(c grid.Cell, v int) {
		if v <= 0 {
			return
		}
		total++
		if generated.At(c) > 0 {
			hit++
		}
	})
	if total == 0 {
		return 0, fmt.Errorf("metrics: empty ground truth")
	}
	return 100 * float64(hit) / float64(total), nil
}

// OuterBoundsPercent returns the percentage of the venue's outer-wall
// length that the obstacle map reconstructs: sample points along every
// outer surface count as reconstructed when an obstacle cell lies within
// the match threshold.
func OuterBoundsPercent(obstacles *grid.Map, outer []venue.Surface, threshold float64) (float64, error) {
	if obstacles == nil {
		return 0, fmt.Errorf("metrics: nil obstacle map")
	}
	if threshold <= 0 {
		threshold = BoundsMatchThreshold
	}
	const step = 0.05
	var total, matched float64
	for _, s := range outer {
		length := s.Seg.Len()
		n := int(length/step) + 1
		for i := 0; i <= n; i++ {
			p := s.Seg.At(float64(i) / float64(n))
			total += length / float64(n+1)
			if obstacleNear(obstacles, p, threshold) {
				matched += length / float64(n+1)
			}
		}
	}
	if total == 0 {
		return 0, fmt.Errorf("metrics: no outer surfaces")
	}
	return 100 * matched / total, nil
}

// obstacleNear reports whether any positive obstacle cell lies within
// threshold of p.
func obstacleNear(m *grid.Map, p geom.Vec2, threshold float64) bool {
	r := int(math.Ceil(threshold/m.Res())) + 1
	center := m.CellOf(p)
	for di := -r; di <= r; di++ {
		for dj := -r; dj <= r; dj++ {
			c := grid.Cell{I: center.I + di, J: center.J + dj}
			if !m.InBounds(c) || m.At(c) <= 0 {
				continue
			}
			if m.CenterOf(c).Dist(p) <= threshold+m.Res()*0.71 {
				return true
			}
		}
	}
	return false
}

// PRF bundles precision, recall and F-score.
type PRF struct {
	Precision, Recall, F float64
}

// Interval is a [Lo, Hi] stretch along a surface footprint, in metres from
// the segment's A endpoint.
type Interval struct {
	Lo, Hi float64
}

// MergeIntervals unions overlapping intervals.
func MergeIntervals(in []Interval) []Interval {
	if len(in) == 0 {
		return nil
	}
	sorted := append([]Interval(nil), in...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Lo < sorted[j].Lo })
	out := []Interval{sorted[0]}
	for _, iv := range sorted[1:] {
		last := &out[len(out)-1]
		if iv.Lo <= last.Hi {
			if iv.Hi > last.Hi {
				last.Hi = iv.Hi
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// FeaturelessPRF scores reconstructed spans against a featureless surface:
// precision is the fraction of reconstructed span length lying on the true
// surface (within tol), recall the fraction of the surface's visible
// stretch covered by reconstruction, F their harmonic mean — the Table I
// quantities.
func FeaturelessPRF(spans []geom.Segment, truth venue.Surface, visible []Interval, tol float64) PRF {
	if tol <= 0 {
		tol = 0.25
	}
	const step = 0.05

	// Precision: sampled points of every span near the truth segment.
	var total, onSurface float64
	for _, span := range spans {
		n := int(span.Len()/step) + 1
		for i := 0; i <= n; i++ {
			p := span.At(float64(i) / float64(n))
			total++
			if truth.Seg.DistToPoint(p) <= tol {
				onSurface++
			}
		}
	}
	var out PRF
	if total > 0 {
		out.Precision = onSurface / total
	}

	// Recall: sampled points of the visible stretches near any span.
	merged := MergeIntervals(visible)
	var visTotal, covered float64
	length := truth.Seg.Len()
	for _, iv := range merged {
		lo := math.Max(0, iv.Lo)
		hi := math.Min(length, iv.Hi)
		if hi <= lo {
			continue
		}
		n := int((hi-lo)/step) + 1
		for i := 0; i <= n; i++ {
			d := lo + (hi-lo)*float64(i)/float64(n)
			p := truth.Seg.At(d / length)
			visTotal++
			for _, span := range spans {
				if span.DistToPoint(p) <= tol {
					covered++
					break
				}
			}
		}
	}
	if visTotal > 0 {
		out.Recall = covered / visTotal
	}
	if out.Precision+out.Recall > 0 {
		out.F = 2 * out.Precision * out.Recall / (out.Precision + out.Recall)
	}
	return out
}

// RenderASCII draws obstacle (#), visibility (.) and unknown ( ) cells for
// a quick Figure 12-style look at a map pair. Rows are printed north-up
// (highest J first). Cells outside the ground-truth coverage print as '·'.
func RenderASCII(obstacles, visibility, truthCoverage *grid.Map) (string, error) {
	if obstacles == nil || visibility == nil {
		return "", fmt.Errorf("metrics: nil map")
	}
	if !obstacles.SameLayout(visibility) {
		return "", fmt.Errorf("metrics: layouts differ")
	}
	var b []byte
	for j := obstacles.Height() - 1; j >= 0; j-- {
		for i := 0; i < obstacles.Width(); i++ {
			c := grid.Cell{I: i, J: j}
			switch {
			case truthCoverage != nil && truthCoverage.At(c) == 0:
				b = append(b, ' ')
			case obstacles.At(c) > 0:
				b = append(b, '#')
			case visibility.At(c) > 0:
				b = append(b, '.')
			default:
				b = append(b, '_')
			}
		}
		b = append(b, '\n')
	}
	return string(b), nil
}
