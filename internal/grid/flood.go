package grid

// Region is a 4-connected set of cells grown by ExpandRegion.
type Region struct {
	Cells []Cell
}

// Size returns the number of cells in the region.
func (r Region) Size() int { return len(r.Cells) }

// Center returns the cell whose coordinates are closest to the arithmetic
// mean of the region, which SnapTask converts to a world position for a new
// task. The zero Cell is returned for an empty region.
func (r Region) Center() Cell {
	if len(r.Cells) == 0 {
		return Cell{}
	}
	var si, sj float64
	for _, c := range r.Cells {
		si += float64(c.I)
		sj += float64(c.J)
	}
	mi := si / float64(len(r.Cells))
	mj := sj / float64(len(r.Cells))
	best := r.Cells[0]
	bestD := cellDist(best, mi, mj)
	for _, c := range r.Cells[1:] {
		if d := cellDist(c, mi, mj); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

func cellDist(c Cell, mi, mj float64) float64 {
	di := float64(c.I) - mi
	dj := float64(c.J) - mj
	return di*di + dj*dj
}

// ExpandRegion grows a region from seed over 4-connected cells accepted by
// pass, stopping once the region reaches limit cells (or the component is
// exhausted). Cells already present in seen are skipped and newly visited
// cells are added to seen, so successive expansions never overlap. This is
// the expand() step of Algorithm 4.
func ExpandRegion(m *Map, seed Cell, limit int, pass func(c Cell) bool, seen map[Cell]bool) Region {
	var region Region
	if limit <= 0 || !m.InBounds(seed) || seen[seed] || !pass(seed) {
		return region
	}
	queue := []Cell{seed}
	seen[seed] = true
	for len(queue) > 0 && len(region.Cells) < limit {
		c := queue[0]
		queue = queue[1:]
		region.Cells = append(region.Cells, c)
		for _, n := range c.Neighbors4() {
			if !m.InBounds(n) || seen[n] || !pass(n) {
				continue
			}
			seen[n] = true
			queue = append(queue, n)
		}
	}
	return region
}
