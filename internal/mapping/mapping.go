// Package mapping implements SnapTask's Algorithms 2 and 3: converting an
// SfM model into the 2D obstacles map (point cloud → per-layout-cell count
// of the points in the height band → threshold, the paper's OctoMap up-axis
// merge with voxels anchored to the layout cells) and the visibility map
// (per-camera field-of-view ray casting clipped by obstacles), plus the
// model-coverage union of Algorithm 1 line 5.
package mapping

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"snaptask/internal/camera"
	"snaptask/internal/geom"
	"snaptask/internal/grid"
	"snaptask/internal/pointcloud"
	"snaptask/internal/telemetry"
)

// Config tunes map construction. Zero fields take paper defaults.
type Config struct {
	// ObstacleThreshold is the minimum number of 3D points in a layout
	// cell's column (the paper's merged OctoMap column) for the cell to
	// count as an obstacle (OBSTACLE_THRESHOLD = 4 in the paper).
	ObstacleThreshold int
	// MinZ and MaxZ bound the height band counted along the up axis: a
	// point counts when the centre of its height layer lies in the band,
	// so floor noise and ceiling points are ignored. When both are zero
	// they default to 0.05–2.6 m; a negative value selects an explicit
	// 0.0 bound (which the zero value cannot express).
	MinZ, MaxZ float64
	// RayStep is the angular step of visibility ray casting in radians.
	// Defaults to a step fine enough that adjacent rays are under one
	// cell apart at maximum range.
	RayStep float64
}

func (c Config) withDefaults(res float64, maxRange float64) Config {
	if c.ObstacleThreshold == 0 {
		c.ObstacleThreshold = 4
	}
	if c.MinZ == 0 && c.MaxZ == 0 {
		c.MinZ, c.MaxZ = 0.05, 2.6
	}
	// Negative means an explicit 0.0 bound. The clamp runs after the
	// both-zero default check so -1/-1 selects an empty band, not the
	// defaults; callers must not re-apply withDefaults to its output.
	if c.MinZ < 0 {
		c.MinZ = 0
	}
	if c.MaxZ < 0 {
		c.MaxZ = 0
	}
	if c.RayStep == 0 {
		c.RayStep = 0.8 * res / maxRange
	}
	return c
}

// View is the camera information the visibility map needs from a
// registered SfM view.
type View struct {
	Pose       camera.Pose
	Intrinsics camera.Intrinsics
}

// Maps bundles the products of a mapping pass.
type Maps struct {
	// Obstacles holds per-cell merged point counts where they exceed the
	// obstacle threshold (Algorithm 2's output).
	Obstacles *grid.Map
	// Visibility counts, per cell, the number of camera views covering
	// it (Algorithm 3's output).
	Visibility *grid.Map
	// Aspects holds, per cell, a 4-bit mask of the quadrants the cell has
	// been viewed from — the paper's aspect coverage (Figure 4): "it is
	// required that all aspects of the area are covered by camera views".
	Aspects *grid.Map
	// Coverage is the union of obstacles and visibility (Algorithm 1
	// line 5).
	Coverage *grid.Map
}

// CoverageCells returns the number of covered cells.
func (m *Maps) CoverageCells() int { return m.Coverage.CountPositive() }

// MinAspects is how many distinct viewing quadrants a free cell needs for
// the evaluation's aspect-complete coverage.
const MinAspects = 2

// AspectCoverage returns the aspect-complete coverage map: a cell counts
// when it is an obstacle or has been viewed from at least MinAspects
// distinct quadrants. This is the quantity the paper's ground-truth
// comparison measures; single-direction drive-by glances do not complete
// an area.
func (m *Maps) AspectCoverage() *grid.Map {
	out := grid.NewLike(m.Coverage)
	out.Each(func(c grid.Cell, _ int) {
		if m.Obstacles.At(c) > 0 || popcount4(m.Aspects.At(c)) >= MinAspects {
			out.Set(c, 1)
		}
	})
	return out
}

func popcount4(mask int) int {
	n := 0
	for b := 0; b < 4; b++ {
		if mask&(1<<b) != 0 {
			n++
		}
	}
	return n
}

// Build runs Algorithms 2 and 3 over a filtered cloud and its registered
// views, producing maps with the same layout as the template (typically the
// venue ground-truth layout, so results are directly comparable).
func Build(cloud *pointcloud.Cloud, views []View, layout *grid.Map, cfg Config) (*Maps, error) {
	if layout == nil {
		return nil, fmt.Errorf("mapping: nil layout")
	}
	// ObstaclesMap applies withDefaults itself, so it gets the raw config:
	// re-resolving an already-resolved config would turn an explicit 0/0
	// height band (negative sentinels) back into the defaults.
	obstacles, err := ObstaclesMap(cloud, layout, cfg)
	if err != nil {
		return nil, err
	}
	visibility, aspects, err := VisibilityMap(views, obstacles, resolveRayStep(cfg, layout.Res(), views))
	if err != nil {
		return nil, err
	}
	coverage, err := obstacles.Union(visibility)
	if err != nil {
		return nil, fmt.Errorf("mapping: coverage union: %w", err)
	}
	return &Maps{Obstacles: obstacles, Visibility: visibility, Aspects: aspects, Coverage: coverage}, nil
}

// resolveRayStep fixes the shared angular step for a view set: the default
// keeps adjacent rays under one cell apart at the longest camera range.
func resolveRayStep(cfg Config, res float64, views []View) Config {
	if cfg.RayStep > 0 {
		return cfg
	}
	maxRange := 1.0
	for _, v := range views {
		if v.Intrinsics.Range > maxRange {
			maxRange = v.Intrinsics.Range
		}
	}
	cfg.RayStep = 0.8 * res / maxRange
	return cfg
}

// ObstaclesMap implements Algorithm 2 (calculateObstaclesMap) in one pass
// over the cloud. The paper inserts the cloud into an OctoMap at the layout
// resolution, merges voxels along the up axis within the height band and
// keeps columns with at least ObstacleThreshold points. With the voxel grid
// anchored to the layout, each column is one layout cell, so the merge is a
// per-cell count: a point counts in layout.CellOf(x, y) when the centre of
// its res-thick height layer, (floor(z/res)+0.5)·res, lies in [MinZ, MaxZ].
// A point on a cell or layer edge belongs to the cell or layer above it.
func ObstaclesMap(cloud *pointcloud.Cloud, layout *grid.Map, cfg Config) (*grid.Map, error) {
	if layout == nil {
		return nil, fmt.Errorf("mapping: nil layout")
	}
	cfg = cfg.withDefaults(layout.Res(), 1)
	out := grid.NewLike(layout)
	if cloud == nil || cloud.Len() == 0 {
		return out, nil
	}
	res := layout.Res()
	cloud.Each(func(p pointcloud.Point) {
		if z := (math.Floor(p.Pos.Z/res) + 0.5) * res; z < cfg.MinZ || z > cfg.MaxZ {
			return
		}
		out.Add(out.CellOf(p.Pos.XY()), 1) // Add ignores cells off the layout
	})
	out.Each(func(c grid.Cell, n int) {
		if n < cfg.ObstacleThreshold {
			out.Set(c, 0)
		}
	})
	return out, nil
}

// castScratch is one worker's reusable mark set for casting views against
// one layout: a flag per layout cell, plus the lowest and highest marked
// column of each row and the span of rows with a mark, so emitting a cast
// scans only the marked rows between their extreme columns. Emitting
// clears every flag and bound it set, so one scratch serves every view a
// worker casts without per-view allocation beyond the result. Only
// in-bounds cells are ever marked, so every marked cell has a flag however
// far the rasteriser walks.
type castScratch struct {
	w      int
	seen   []bool
	lo, hi []int32 // per row; lo > hi when the row has no mark
	j0, j1 int     // marked rows; j0 > j1 when none
	runs   []int32
}

func newCastScratch(layout *grid.Map) *castScratch {
	w, h := layout.Width(), layout.Height()
	sc := &castScratch{w: w, seen: make([]bool, w*h), lo: make([]int32, h), hi: make([]int32, h), j0: h, j1: -1}
	for j := range sc.lo {
		sc.lo[j], sc.hi[j] = int32(w), -1
	}
	return sc
}

// mark flags cell (i, j).
func (sc *castScratch) mark(i, j int) {
	sc.seen[j*sc.w+i] = true
	sc.lo[j] = min(sc.lo[j], int32(i))
	sc.hi[j] = max(sc.hi[j], int32(i))
	sc.j0, sc.j1 = min(sc.j0, j), max(sc.j1, j)
}

// cast casts v against occ, the layout's occupancy (obstacle value > 0)
// in row-major order, and returns the covered cells as sorted half-open
// runs of row-major indices: cast[2k] ≤ i < cast[2k+1] for each k. Runs
// are non-empty, increasing and never adjacent (touching runs, including
// ones across a row end, are one run), so equal inputs give equal slices;
// a cast covering no cell is empty but not nil. Each ray steps the grid's
// traversal inline over occ and stops at the grid edge, or on an obstacle
// cell after marking it: the obstacle itself is seen. A cast stores no
// viewing quadrants: castMask derives them from the view pose and the
// cell.
func (sc *castScratch) cast(v View, layout *grid.Map, occ []bool, step float64) []int32 {
	in := v.Intrinsics
	if step <= 0 {
		step = 0.8 * layout.Res() / in.Range
	}
	w, h := layout.Width(), layout.Height()
	// Always include the camera's own cell, seen from every side.
	if c := layout.CellOf(v.Pose.Pos); layout.InBounds(c) {
		sc.mark(c.I, c.J)
	}
	for a := -in.HFOV / 2; a <= in.HFOV/2; a += step {
		dir := geom.UnitFromAngle(v.Pose.Yaw + a)
		st := layout.Stepper(geom.Seg(v.Pose.Pos, v.Pose.Pos.Add(dir.Scale(in.Range))))
		for uint(st.I) < uint(w) && uint(st.J) < uint(h) {
			sc.mark(st.I, st.J)
			if occ[st.J*w+st.I] || !st.Next() {
				break
			}
		}
	}
	runs := sc.runs[:0]
	for j := sc.j0; j <= sc.j1; j++ {
		row := sc.seen[j*w : (j+1)*w]
		for i := sc.lo[j]; i <= sc.hi[j]; i++ {
			if !row[i] {
				continue
			}
			row[i] = false
			if k := int32(j*w) + i; len(runs) > 0 && runs[len(runs)-1] == k {
				runs[len(runs)-1]++
			} else {
				runs = append(runs, k, k+1)
			}
		}
		sc.lo[j], sc.hi[j] = int32(w), -1
	}
	sc.j0, sc.j1 = h, -1
	sc.runs = runs
	out := make([]int32, len(runs))
	copy(out, runs)
	return out
}

// ownCell returns the row-major index of the camera's own cell, or -1 when
// the camera stands outside the layout.
func ownCell(v View, layout *grid.Map) int32 {
	c := layout.CellOf(v.Pose.Pos)
	if !layout.InBounds(c) {
		return -1
	}
	return int32(c.J*layout.Width() + c.I)
}

// castMask returns the quadrant mask a view's cast gives cell i: all four
// quadrants for the camera's own cell own, else the quadrant the cell is
// viewed from.
func castMask(v View, layout *grid.Map, own, i int32) int {
	if i == own {
		return 0xF
	}
	w := layout.Width()
	return quadrantBit(v.Pose.Pos, layout.CenterOf(grid.Cell{I: int(i) % w, J: int(i) / w}))
}

// checkViews rejects views that cannot be cast.
func checkViews(views []View) error {
	for _, v := range views {
		if v.Intrinsics.Range <= 0 || v.Intrinsics.HFOV <= 0 {
			return fmt.Errorf("mapping: view with invalid intrinsics %+v", v.Intrinsics)
		}
	}
	return nil
}

// castViews casts every view against occ, fanning the per-view ray casting
// across a runtime.GOMAXPROCS(0) worker pool with one cast scratch per
// worker. The result is indexed like views, so it is deterministic
// regardless of which worker cast which view.
func castViews(views []View, layout *grid.Map, occ []bool, step float64) [][]int32 {
	casts := make([][]int32, len(views))
	workers := min(runtime.GOMAXPROCS(0), len(views))
	if workers <= 1 {
		if len(views) > 0 {
			sc := newCastScratch(layout)
			for i, v := range views {
				casts[i] = sc.cast(v, layout, occ, step)
			}
		}
		return casts
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := newCastScratch(layout)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(views) {
					return
				}
				casts[i] = sc.cast(views[i], layout, occ, step)
			}
		}()
	}
	wg.Wait()
	return casts
}

// cellCounts is the merged visibility state of one cell: how many views
// cover it, and how many see it from each quadrant (indexed by the bit
// position quadrantBit returns). Counts add and subtract, so a view's cast
// can be taken out of the merge again when it goes stale.
type cellCounts struct {
	views int32
	quads [4]int32
}

// addCast folds one view's cast (its cell runs) into cells with sign d: +1
// adds the view, -1 takes it out again.
func addCast(cells []cellCounts, layout *grid.Map, v View, cast []int32, d int32) {
	own := ownCell(v, layout)
	for k := 0; k < len(cast); k += 2 {
		for i := cast[k]; i < cast[k+1]; i++ {
			n := &cells[i]
			n.views += d
			mask := castMask(v, layout, own, i)
			for q := range n.quads {
				if mask&(1<<q) != 0 {
					n.quads[q] += d
				}
			}
		}
	}
}

// countMaps reads the visibility map (views per cell) and the aspect map
// (mask of the quadrants with a positive count) off merged counts.
func countMaps(cells []cellCounts, layout *grid.Map) (vis, aspects *grid.Map) {
	vis, aspects = grid.NewLike(layout), grid.NewLike(layout)
	w := layout.Width()
	for i, n := range cells {
		if n.views == 0 {
			continue
		}
		c := grid.Cell{I: i % w, J: i / w}
		vis.Set(c, int(n.views))
		mask := 0
		for q, k := range n.quads {
			if k > 0 {
				mask |= 1 << q
			}
		}
		aspects.Set(c, mask)
	}
	return vis, aspects
}

// VisibilityMap implements Algorithm 3 (calculateVisibilityMap): for each
// registered camera it computes the field-of-view area clipped by the
// obstacles map. It returns the per-cell camera counts plus the per-cell
// quadrant mask of viewing directions (aspect coverage, Figure 4). The
// per-view ray casting runs on a worker pool; the merge is deterministic.
func VisibilityMap(views []View, obstacles *grid.Map, cfg Config) (*grid.Map, *grid.Map, error) {
	if obstacles == nil {
		return nil, nil, fmt.Errorf("mapping: nil obstacles map")
	}
	if err := checkViews(views); err != nil {
		return nil, nil, err
	}
	cells := make([]cellCounts, obstacles.Width()*obstacles.Height())
	for i, cast := range castViews(views, obstacles, obstacles.Occupancy(), cfg.RayStep) {
		addCast(cells, obstacles, views[i], cast, 1)
	}
	vis, aspects := countMaps(cells, obstacles)
	return vis, aspects, nil
}

// quadrantBit returns the bit for the quadrant the cell is viewed from:
// the direction camera→cell binned into E/N/W/S quarters exactly as
// quadrantAngle bins it. Comparing signs and magnitudes decides every cell
// but those within 1e-9 (relative) of a diagonal, where the bin edges lie
// and atan2's rounding decides; those, and a zero offset, take the atan2
// path.
func quadrantBit(camera, cell geom.Vec2) int {
	d := cell.Sub(camera)
	ax, ay := math.Abs(d.X), math.Abs(d.Y)
	if d.Len2() < 1e-12 || !(math.Abs(ax-ay) > 1e-9*max(ax, ay)) {
		return quadrantAngle(d)
	}
	switch {
	case ax > ay && d.X > 0:
		return 1 << 0
	case ax > ay:
		return 1 << 2
	case d.Y > 0:
		return 1 << 1
	default:
		return 1 << 3
	}
}

// quadrantAngle bins the direction d by its angle into east, north, west
// or south, each bin including its counter-clockwise edge; all four bits
// for a zero offset.
func quadrantAngle(d geom.Vec2) int {
	if d.Len2() < 1e-12 {
		return 0xF
	}
	angle := d.Angle() // (-pi, pi]
	switch {
	case angle > -math.Pi/4 && angle <= math.Pi/4:
		return 1 << 0 // viewed heading east
	case angle > math.Pi/4 && angle <= 3*math.Pi/4:
		return 1 << 1 // north
	case angle > -3*math.Pi/4 && angle <= -math.Pi/4:
		return 1 << 3 // south
	default:
		return 1 << 2 // west
	}
}

// Coverage returns the union of an obstacles and a visibility map; exposed
// separately for callers that build the maps independently.
func Coverage(obstacles, visibility *grid.Map) (*grid.Map, error) {
	u, err := obstacles.Union(visibility)
	if err != nil {
		return nil, fmt.Errorf("mapping: coverage union: %w", err)
	}
	return u, nil
}

// Incremental keeps the merged visibility state across successive map
// builds, so a rebuild after a photo batch only casts rays for the views
// added since the previous build — plus any view whose cast is no longer
// valid.
//
// Update is exactly equivalent to Build for the same inputs. The merged
// state is per-cell counts (cellCounts), and the visibility and aspect
// maps are read off them. A view's cast depends only on the obstacle
// occupancy (cells with value > 0) within its range disc, so an occupancy
// flip inside that disc makes it stale: Update subtracts the view's old
// cast from the counts and adds its cast against the new obstacles.
// Everything else stays merged, which turns the per-upload visibility cost
// from O(all views) into O(new + affected views) over a campaign.
//
// An Incremental is not safe for concurrent use; confine it to the model
// owner (core.System serialises all mutations).
type Incremental struct {
	layout *grid.Map
	cfg    Config

	// views are the views merged into cells. casts[i] is views[i]'s cast
	// against occ as castScratch.cast returns it (sorted cell runs), or nil
	// for a view restored by Restore and not cast since; a cast covering
	// no cell is an empty, non-nil slice.
	views []View
	casts [][]int32
	cells []cellCounts
	// occ is the occupancy basis the casts were made against, nil until
	// the first Update. Restore leaves it nil with cells set; the next
	// Update checks its occupancy against basis, the restored fingerprint.
	occ     []bool
	basis   uint64
	rayStep float64 // resolved angular step of the casts
	counts  CastCounts

	// trace is the stage-span sink of the rebuild in progress; nil (the
	// default) disables span collection.
	trace *telemetry.Trace
}

// CastCounts counts an Incremental's view casts by cause.
type CastCounts struct {
	// New counts casts of views the builder did not hold: views added
	// since the previous build, or every view after Invalidate.
	New int
	// Stale counts recasts of held views after an occupancy flip within
	// their range.
	Stale int
	// Restored counts casts of restored views against the restored basis,
	// made once per view so its stale cast can be subtracted.
	Restored int
}

// SetTrace sets the stage-span sink for subsequent Update calls; the owner
// points it at the current batch's trace and clears it after. A nil trace
// makes every span a no-op.
func (inc *Incremental) SetTrace(tr *telemetry.Trace) { inc.trace = tr }

// NewIncremental returns an incremental builder producing maps on the given
// layout with the given config (raw, as passed to Build).
func NewIncremental(layout *grid.Map, cfg Config) (*Incremental, error) {
	if layout == nil {
		return nil, fmt.Errorf("mapping: nil layout")
	}
	return &Incremental{layout: layout, cfg: cfg}, nil
}

// Invalidate drops the merged state; the next Update is a full rebuild.
// Callers use it after pipeline stages that restructure the model in ways
// not visible through the (cloud, views) inputs.
func (inc *Incremental) Invalidate() {
	inc.views, inc.casts, inc.cells, inc.occ = nil, nil, nil, nil
}

// Update builds the maps for the given cloud and registered views, casting
// only views that are new or whose cast went stale. The views slice is
// expected to be append-only between calls (SfM registration only adds
// views); any other change falls back to a full rebuild.
func (inc *Incremental) Update(cloud *pointcloud.Cloud, views []View) (*Maps, error) {
	sp := inc.trace.Span("map.obstacles")
	obstacles, err := ObstaclesMap(cloud, inc.layout, inc.cfg)
	sp.End()
	if err != nil {
		return nil, err
	}
	if err := checkViews(views); err != nil {
		return nil, err
	}
	resolved := resolveRayStep(inc.cfg, inc.layout.Res(), views)
	occ := obstacles.Occupancy()
	if inc.cells != nil && inc.occ == nil {
		// Restored counts hold only for the occupancy and ray step they
		// were cast with; anything else is a snapshot that does not
		// belong to this model.
		if fp := occupancyFingerprint(occ); fp != inc.basis {
			return nil, fmt.Errorf("mapping: restored visibility counts cast against occupancy %016x, obstacles have %016x", inc.basis, fp)
		}
		if resolved.RayStep != inc.rayStep {
			return nil, fmt.Errorf("mapping: restored visibility counts cast at ray step %v, views resolve %v", inc.rayStep, resolved.RayStep)
		}
		inc.occ = occ
	}
	// A view with a longer range than any before it tightens the shared
	// default ray step, which changes every cast; the merged views must be
	// a prefix of the view list, or removed or edited views void them.
	if inc.occ == nil || resolved.RayStep != inc.rayStep || len(inc.views) > len(views) {
		inc.Invalidate()
	}
	for i := range inc.views {
		if views[i] != inc.views[i] {
			inc.Invalidate()
			break
		}
	}
	if inc.cells == nil {
		inc.cells = make([]cellCounts, len(occ))
	}

	// Recast merged views whose range disc contains an occupancy flip;
	// obstacle count changes that stay positive cannot alter a cast.
	var stale []int
	if inc.occ != nil {
		if changed := occupancyFlips(inc.occ, occ, inc.layout); len(changed) > 0 {
			for i, v := range inc.views {
				if viewNearAny(v, changed, inc.layout) {
					stale = append(stale, i)
				}
			}
		}
	}
	var uncast []int
	for _, i := range stale {
		if inc.casts[i] == nil {
			uncast = append(uncast, i)
		}
	}
	fresh := slices.Concat(stale, indexRange(len(inc.views), len(views)))
	sp = inc.trace.Span("map.cast")
	// A restored view's counts came from the restored basis, so that is
	// what its cast must be taken against to subtract it.
	for k, c := range castViews(pick(views, uncast), inc.layout, inc.occ, resolved.RayStep) {
		inc.casts[uncast[k]] = c
	}
	casts := castViews(pick(views, fresh), inc.layout, occ, resolved.RayStep)
	sp.End()

	sp = inc.trace.Span("map.merge")
	for _, i := range stale {
		addCast(inc.cells, inc.layout, views[i], inc.casts[i], -1)
	}
	inc.counts.Restored += len(uncast)
	inc.counts.Stale += len(stale)
	inc.counts.New += len(views) - len(inc.views)
	inc.views = append(inc.views, views[len(inc.views):]...)
	inc.casts = append(inc.casts, make([][]int32, len(views)-len(inc.casts))...)
	for k, i := range fresh {
		inc.casts[i] = casts[k]
		addCast(inc.cells, inc.layout, views[i], casts[k], 1)
	}
	vis, aspects := countMaps(inc.cells, inc.layout)
	coverage, err := obstacles.Union(vis)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("mapping: coverage union: %w", err)
	}
	inc.occ = occ
	inc.rayStep = resolved.RayStep
	return &Maps{Obstacles: obstacles, Visibility: vis, Aspects: aspects, Coverage: coverage}, nil
}

// indexRange returns the integers lo..hi-1.
func indexRange(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// pick returns views[i] for each i in idx.
func pick(views []View, idx []int) []View {
	out := make([]View, len(idx))
	for k, i := range idx {
		out[k] = views[i]
	}
	return out
}

// Casts returns how many views the builder has cast, by cause.
func (inc *Incremental) Casts() CastCounts { return inc.counts }

// occupancyFlips returns the cells whose occupancy differs between two
// occupancy slices of the layout.
func occupancyFlips(prev, cur []bool, layout *grid.Map) []grid.Cell {
	var out []grid.Cell
	w := layout.Width()
	for i := range prev {
		if prev[i] != cur[i] {
			out = append(out, grid.Cell{I: i % w, J: i / w})
		}
	}
	return out
}

// viewNearAny reports whether any changed cell lies within the view's range
// disc (plus rasterisation slack), i.e. whether the view's cast could see
// the change.
func viewNearAny(v View, changed []grid.Cell, layout *grid.Map) bool {
	slack := 2 * layout.Res()
	r := v.Intrinsics.Range + slack
	r2 := r * r
	for _, c := range changed {
		d := layout.CenterOf(c).Sub(v.Pose.Pos)
		if d.Len2() <= r2 {
			return true
		}
	}
	return false
}
