// Package floorplan turns SnapTask's raster obstacle maps into vector
// floor plans: wall segments extracted with a Hough transform over
// obstacle cells (the "indoor maps compiled from 3D models" the paper
// delivers to its navigation clients).
package floorplan

import (
	"fmt"
	"math"
	"sort"

	"snaptask/internal/geom"
	"snaptask/internal/grid"
)

// Wall is one extracted wall segment.
type Wall struct {
	// Seg is the wall's footprint in world coordinates.
	Seg geom.Segment
	// Cells is the number of obstacle cells supporting the wall.
	Cells int
}

// Length returns the wall length in metres.
func (w Wall) Length() float64 { return w.Seg.Len() }

// Plan is a vectorised floor plan.
type Plan struct {
	// Walls in extraction order (strongest first).
	Walls []Wall
	// Res is the source raster resolution.
	Res float64
	// Bounds is the source map extent.
	Bounds geom.AABB
}

// TotalWallLength sums all wall lengths.
func (p *Plan) TotalWallLength() float64 {
	var sum float64
	for _, w := range p.Walls {
		sum += w.Length()
	}
	return sum
}

// Config tunes the extraction.
type Config struct {
	// MinWallLength drops segments shorter than this (metres).
	// Defaults to 0.6.
	MinWallLength float64
	// MaxGap splits a wall when consecutive supporting cells are farther
	// apart than this (metres). Defaults to 0.45.
	MaxGap float64
	// AngleBins is the angular resolution of the Hough accumulator over
	// [0, π). Defaults to 180 (1° bins).
	AngleBins int
	// MinInliers is the minimum accumulator support to keep extracting
	// lines. Defaults to 8 cells.
	MinInliers int
	// MaxWalls caps the number of extracted walls. Defaults to 256.
	MaxWalls int
}

func (c Config) withDefaults() Config {
	if c.MinWallLength == 0 {
		c.MinWallLength = 0.6
	}
	if c.MaxGap == 0 {
		c.MaxGap = 0.45
	}
	if c.AngleBins == 0 {
		c.AngleBins = 180
	}
	if c.MinInliers == 0 {
		c.MinInliers = 8
	}
	if c.MaxWalls == 0 {
		c.MaxWalls = 256
	}
	return c
}

// Extract vectorises the positive cells of an obstacle map into wall
// segments using an iterative Hough transform: find the strongest line,
// collect its supporting cells, split them into gap-free runs, emit walls,
// remove the cells and repeat.
func Extract(obstacles *grid.Map, cfg Config) (*Plan, error) {
	if obstacles == nil {
		return nil, fmt.Errorf("floorplan: nil obstacle map")
	}
	cfg = cfg.withDefaults()
	res := obstacles.Res()

	// Collect obstacle cell centres.
	var pts []geom.Vec2
	obstacles.Each(func(c grid.Cell, v int) {
		if v > 0 {
			pts = append(pts, obstacles.CenterOf(c))
		}
	})
	plan := &Plan{Res: res, Bounds: obstacles.Bounds()}
	if len(pts) == 0 {
		return plan, nil
	}

	h := newHough(cfg.AngleBins, res, plan.Bounds)
	active := make([]bool, len(pts))
	for i, p := range pts {
		active[i] = true
		h.add(p, 1)
	}

	lineTol := res * 0.75
	stale := 0
	for len(plan.Walls) < cfg.MaxWalls && stale < 64 {
		theta, rho, votes := h.peak()
		if votes < cfg.MinInliers {
			break
		}
		// Collect active inliers of the line x·cosθ + y·sinθ = rho.
		cosT, sinT := math.Cos(theta), math.Sin(theta)
		dir := geom.V2(-sinT, cosT) // along the line
		type proj struct {
			t   float64
			idx int
		}
		var inliers []proj
		for i, p := range pts {
			if !active[i] {
				continue
			}
			if math.Abs(p.X*cosT+p.Y*sinT-rho) <= lineTol {
				inliers = append(inliers, proj{t: p.Dot(dir), idx: i})
			}
		}
		if len(inliers) < cfg.MinInliers {
			// The accumulator is ahead of reality (stale votes from
			// already-consumed cells): clear this bin and keep looking
			// for genuine lines elsewhere.
			h.clearPeak(theta, rho)
			stale++
			continue
		}
		stale = 0
		sort.Slice(inliers, func(a, b int) bool { return inliers[a].t < inliers[b].t })

		// Split into runs at gaps, emit walls, deactivate their cells.
		runStart := 0
		emit := func(lo, hi int) {
			if hi < lo {
				return
			}
			a := pts[inliers[lo].idx]
			b := pts[inliers[hi].idx]
			length := inliers[hi].t - inliers[lo].t
			if length >= cfg.MinWallLength {
				plan.Walls = append(plan.Walls, Wall{
					Seg:   geom.Seg(a, b),
					Cells: hi - lo + 1,
				})
			}
		}
		for i := 1; i < len(inliers); i++ {
			if inliers[i].t-inliers[i-1].t > cfg.MaxGap {
				emit(runStart, i-1)
				runStart = i
			}
		}
		emit(runStart, len(inliers)-1)
		for _, in := range inliers {
			active[in.idx] = false
			h.add(pts[in.idx], -1)
		}
	}

	// Strongest (longest) walls first for stable output.
	sort.Slice(plan.Walls, func(i, j int) bool {
		if plan.Walls[i].Cells != plan.Walls[j].Cells {
			return plan.Walls[i].Cells > plan.Walls[j].Cells
		}
		return plan.Walls[i].Length() > plan.Walls[j].Length()
	})
	return plan, nil
}

// hough is a (theta, rho) accumulator with incremental add/remove.
type hough struct {
	bins   int
	rhoRes float64
	rhoMin float64
	rhoN   int
	acc    []int
	cosSin [][2]float64
}

func newHough(bins int, rhoRes float64, b geom.AABB) *hough {
	diag := math.Hypot(b.Width(), b.Height()) + math.Hypot(math.Abs(b.Min.X), math.Abs(b.Min.Y))
	h := &hough{
		bins:   bins,
		rhoRes: rhoRes,
		rhoMin: -diag,
		rhoN:   int(2*diag/rhoRes) + 2,
	}
	h.acc = make([]int, bins*h.rhoN)
	h.cosSin = make([][2]float64, bins)
	for t := 0; t < bins; t++ {
		theta := math.Pi * float64(t) / float64(bins)
		h.cosSin[t] = [2]float64{math.Cos(theta), math.Sin(theta)}
	}
	return h
}

func (h *hough) add(p geom.Vec2, delta int) {
	for t := 0; t < h.bins; t++ {
		rho := p.X*h.cosSin[t][0] + p.Y*h.cosSin[t][1]
		r := int((rho - h.rhoMin) / h.rhoRes)
		if r >= 0 && r < h.rhoN {
			h.acc[t*h.rhoN+r] += delta
		}
	}
}

// clearPeak zeroes the accumulator bin at (theta, rho) so a stale peak is
// not re-selected.
func (h *hough) clearPeak(theta, rho float64) {
	t := int(theta / math.Pi * float64(h.bins))
	if t < 0 {
		t = 0
	}
	if t >= h.bins {
		t = h.bins - 1
	}
	r := int((rho - h.rhoMin) / h.rhoRes)
	if r >= 0 && r < h.rhoN {
		h.acc[t*h.rhoN+r] = 0
	}
}

func (h *hough) peak() (theta, rho float64, votes int) {
	best, bestIdx := 0, -1
	for i, v := range h.acc {
		if v > best {
			best, bestIdx = v, i
		}
	}
	if bestIdx < 0 {
		return 0, 0, 0
	}
	t := bestIdx / h.rhoN
	r := bestIdx % h.rhoN
	theta = math.Pi * float64(t) / float64(h.bins)
	rho = h.rhoMin + (float64(r)+0.5)*h.rhoRes
	return theta, rho, best
}
