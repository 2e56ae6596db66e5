package mapping

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"snaptask/internal/binenc"
)

// The builder's state in a model snapshot is its merged counts, so a
// restore casts no view. Layout, fixed-width values little-endian:
//
//	ray step        float64, the resolved step of the casts
//	basis           uint64, occupancyFingerprint of the cast basis
//	cells           uint64, the layout's cell count
//	covered         uint64 count n, then n records of uvarints: the cell
//	                index delta from the previous record (from -1 for the
//	                first, so never 0), the view count (at least 1), and
//	                the four quadrant counts (each at most the view count)
//
// Cells no view covers are not stored. The casts are not stored either: a
// restored view is cast against the restored basis only once an occupancy
// flip makes it stale, to be subtracted.

// Holds reports whether the builder's merged state covers exactly the
// first n views as last built, i.e. whether AppendState describes them.
func (inc *Incremental) Holds(n int) bool {
	return inc.occ != nil && len(inc.views) == n
}

// AppendState appends the merged state in the layout above. Call it only
// when Holds.
func (inc *Incremental) AppendState(b []byte) []byte {
	b = binenc.AppendF64(b, inc.rayStep)
	b = binenc.AppendU64(b, occupancyFingerprint(inc.occ))
	b = binenc.AppendU64(b, uint64(len(inc.cells)))
	n := 0
	for _, c := range inc.cells {
		if c.views > 0 {
			n++
		}
	}
	b = binenc.AppendU64(b, uint64(n))
	prev := -1
	for i, c := range inc.cells {
		if c.views == 0 {
			continue
		}
		b = binary.AppendUvarint(b, uint64(i-prev))
		prev = i
		b = binary.AppendUvarint(b, uint64(c.views))
		for _, q := range c.quads {
			b = binary.AppendUvarint(b, uint64(q))
		}
	}
	return b
}

// Restore primes a builder with state written by AppendState for views,
// the views that state was built from. An empty state primes nothing. The
// next Update adopts the counts without casting if its obstacles have the
// stored occupancy fingerprint and its views the stored ray step, and
// fails otherwise.
func (inc *Incremental) Restore(views []View, state []byte) error {
	if len(state) == 0 {
		return nil
	}
	rd := binenc.NewReader(state)
	step, basis, size := rd.F64(), rd.U64(), rd.U64()
	// A record takes at least six bytes, one per uvarint.
	n := rd.Count(6)
	if err := rd.Err(); err != nil {
		return fmt.Errorf("mapping: decode visibility counts: %w", err)
	}
	if want := inc.layout.Width() * inc.layout.Height(); size != uint64(want) {
		return fmt.Errorf("mapping: visibility counts for %d cells, layout has %d", size, want)
	}
	cells := make([]cellCounts, size)
	prev := -1
	var rec [6]uint64 // cell delta, view count, four quadrant counts
	for k := 0; k < n; k++ {
		for j := range rec {
			rec[j] = rd.Uvarint()
		}
		if rd.Err() != nil {
			break
		}
		d, views := rec[0], rec[1]
		if d == 0 || d > uint64(len(cells)-1-prev) {
			return fmt.Errorf("mapping: visibility cell delta %d after cell %d of %d", d, prev, len(cells))
		}
		prev += int(d)
		if views == 0 || views > math.MaxInt32 {
			return fmt.Errorf("mapping: visibility cell %d covered by %d views", prev, views)
		}
		c := &cells[prev]
		c.views = int32(views)
		for q, x := range rec[2:] {
			if x > views {
				return fmt.Errorf("mapping: visibility cell %d seen by %d views from one quadrant, %d in all", prev, x, views)
			}
			c.quads[q] = int32(x)
		}
	}
	if err := rd.Err(); err != nil {
		return fmt.Errorf("mapping: decode visibility counts: %w", err)
	}
	if rd.Remaining() != 0 {
		return fmt.Errorf("mapping: decode visibility counts: %d trailing bytes", rd.Remaining())
	}
	inc.Invalidate()
	inc.views = append([]View(nil), views...)
	inc.casts = make([][]int32, len(views))
	inc.cells = cells
	inc.basis = basis
	inc.rayStep = step
	return nil
}

// occupancyFingerprint hashes an occupancy: FNV-1a over its length and the
// indices of its occupied cells.
func occupancyFingerprint(occ []bool) uint64 {
	h := fnv.New64a()
	var word [8]byte
	binary.LittleEndian.PutUint64(word[:], uint64(len(occ)))
	h.Write(word[:])
	for i, o := range occ {
		if o {
			binary.LittleEndian.PutUint64(word[:], uint64(i))
			h.Write(word[:])
		}
	}
	return h.Sum64()
}
