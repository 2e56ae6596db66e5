// Package mapping implements SnapTask's Algorithms 2 and 3: converting an
// SfM model into the 2D obstacles map (point cloud → OctoMap → up-axis merge
// → threshold) and the visibility map (per-camera field-of-view ray casting
// clipped by obstacles), plus the model-coverage union of Algorithm 1
// line 5.
package mapping

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"snaptask/internal/camera"
	"snaptask/internal/geom"
	"snaptask/internal/grid"
	"snaptask/internal/octomap"
	"snaptask/internal/pointcloud"
	"snaptask/internal/telemetry"
)

// Config tunes map construction. Zero fields take paper defaults.
type Config struct {
	// ObstacleThreshold is the minimum number of 3D points in a merged
	// OctoMap column for the cell to count as an obstacle
	// (OBSTACLE_THRESHOLD = 4 in the paper).
	ObstacleThreshold int
	// MinZ and MaxZ bound the height band merged along the up axis;
	// points outside (floor noise, ceiling) are ignored. When both are
	// zero they default to 0.05–2.6 m; a negative value selects an
	// explicit 0.0 bound (which the zero value cannot express).
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

// ObstaclesMap implements Algorithm 2 (calculateObstaclesMap): insert the
// cloud into an OctoMap at the layout resolution, merge cells along the up
// axis within the configured height band, and keep columns with at least
// ObstacleThreshold points.
func ObstaclesMap(cloud *pointcloud.Cloud, layout *grid.Map, cfg Config) (*grid.Map, error) {
	if layout == nil {
		return nil, fmt.Errorf("mapping: nil layout")
	}
	cfg = cfg.withDefaults(layout.Res(), 1)
	out := grid.NewLike(layout)
	if cloud == nil || cloud.Len() == 0 {
		return out, nil
	}

	// Size the octree to cover the layout bounds plus slack for stray
	// points, and align its voxel grid exactly with the layout cells so a
	// merged column maps one-to-one onto a map cell (misalignment would
	// alias two columns into one cell and leave pinholes in walls).
	b := layout.Bounds()
	side := math.Max(b.Width(), b.Height()) + 20
	depth := 1
	for layout.Res()*float64(int(1)<<depth) < side && depth < 21 {
		depth++
	}
	size := layout.Res() * float64(int(1)<<depth)
	center := layout.Origin().Add(geom.V2(size/2, size/2)).Lift(0)
	tree, err := octomap.New(center, layout.Res(), depth)
	if err != nil {
		return nil, fmt.Errorf("mapping: octree: %w", err)
	}
	cloud.Each(func(p pointcloud.Point) {
		tree.Insert(p.Pos)
	})

	for _, col := range tree.MergeUp(cfg.MinZ, cfg.MaxZ) {
		if col.Points < cfg.ObstacleThreshold {
			continue
		}
		cell := out.CellOf(tree.WorldXY(col.X, col.Y))
		if out.InBounds(cell) {
			out.Add(cell, col.Points)
		}
	}
	return out, nil
}

// Contribution is one camera view's ray-cast output: the cells the view
// covers as row-major indices into the layout, with the matching viewing
// quadrant masks. Contributions are the unit of parallel casting and of
// caching across incremental rebuilds; merging them (count increments and
// mask ORs) is commutative, so any merge order yields identical maps.
type Contribution struct {
	Idx  []int32
	Mask []uint8
}

// CastView computes one view's contribution against an obstacles map. step
// is the resolved angular ray step (use resolveRayStep / Config.RayStep).
// Cells are emitted in first-visit order: the camera's own cell, then each
// ray's new cells, rays in increasing angle, so equal inputs give equal
// slices.
func CastView(v View, obstacles *grid.Map, step float64) Contribution {
	return newCastScratch(obstacles).cast(v, obstacles, step)
}

// castScratch is one worker's reusable mark set for casting views against
// one layout: a flag per layout cell plus the flagged cells in first-visit
// order. A cast clears only the flags it set, so one scratch serves every
// view a worker casts without per-view allocation beyond the result. Only
// in-bounds cells are ever marked, so every marked cell has a flag however
// far the rasteriser walks.
type castScratch struct {
	seen  []bool
	order []int32
}

func newCastScratch(layout *grid.Map) *castScratch {
	return &castScratch{seen: make([]bool, layout.Width()*layout.Height())}
}

func (sc *castScratch) cast(v View, obstacles *grid.Map, step float64) Contribution {
	in := v.Intrinsics
	if step <= 0 {
		step = 0.8 * obstacles.Res() / in.Range
	}
	w := obstacles.Width()
	mark := func(c grid.Cell) {
		i := int32(c.J*w + c.I)
		if !sc.seen[i] {
			sc.seen[i] = true
			sc.order = append(sc.order, i)
		}
	}
	// Always include the camera's own cell, seen from every side.
	own := obstacles.CellOf(v.Pose.Pos)
	hasOwn := obstacles.InBounds(own)
	if hasOwn {
		mark(own)
	}
	// A ray stops at the grid edge, or on an obstacle cell after marking
	// it: the obstacle itself is seen.
	visit := func(c grid.Cell) bool {
		if !obstacles.InBounds(c) {
			return false
		}
		mark(c)
		return obstacles.At(c) <= 0
	}
	for a := -in.HFOV / 2; a <= in.HFOV/2; a += step {
		dir := geom.UnitFromAngle(v.Pose.Yaw + a)
		end := v.Pose.Pos.Add(dir.Scale(in.Range))
		obstacles.WalkSegment(geom.Seg(v.Pose.Pos, end), visit)
	}
	co := Contribution{
		Idx:  make([]int32, len(sc.order)),
		Mask: make([]uint8, len(sc.order)),
	}
	copy(co.Idx, sc.order)
	for k, i := range sc.order {
		sc.seen[i] = false
		c := grid.Cell{I: int(i) % w, J: int(i) / w}
		co.Mask[k] = uint8(quadrantBit(v.Pose.Pos, obstacles.CenterOf(c)))
	}
	if hasOwn {
		co.Mask[0] = 0xF
	}
	sc.order = sc.order[:0]
	return co
}

// castViews computes contributions for a set of views, fanning the per-view
// ray casting across a runtime.GOMAXPROCS(0) worker pool with one cast
// scratch per worker. The result slice is indexed like views, so the output
// is deterministic regardless of which worker cast which view.
func castViews(dst []Contribution, views []View, obstacles *grid.Map, cfg Config) error {
	for _, v := range views {
		if v.Intrinsics.Range <= 0 || v.Intrinsics.HFOV <= 0 {
			return fmt.Errorf("mapping: view with invalid intrinsics %+v", v.Intrinsics)
		}
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(views) {
		workers = len(views)
	}
	if workers <= 1 {
		if len(views) > 0 {
			sc := newCastScratch(obstacles)
			for i, v := range views {
				dst[i] = sc.cast(v, obstacles, cfg.RayStep)
			}
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := newCastScratch(obstacles)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(views) {
					return
				}
				dst[i] = sc.cast(views[i], obstacles, cfg.RayStep)
			}
		}()
	}
	wg.Wait()
	return nil
}

// mergeContributions folds per-view contributions into visibility and
// aspect grids. Counts add and masks OR, so the merge is order-independent.
func mergeContributions(contribs []Contribution, layout *grid.Map) (vis, aspects *grid.Map) {
	vis = grid.NewLike(layout)
	aspects = grid.NewLike(layout)
	w := layout.Width()
	for _, co := range contribs {
		for k, idx := range co.Idx {
			c := grid.Cell{I: int(idx) % w, J: int(idx) / w}
			vis.Add(c, 1)
			aspects.Set(c, aspects.At(c)|int(co.Mask[k]))
		}
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
	contribs := make([]Contribution, len(views))
	if err := castViews(contribs, views, obstacles, cfg); err != nil {
		return nil, nil, err
	}
	vis, aspects := mergeContributions(contribs, obstacles)
	return vis, aspects, nil
}

// quadrantBit returns the bit for the quadrant the cell is viewed from:
// the direction camera→cell binned into E/N/W/S quarters.
func quadrantBit(camera, cell geom.Vec2) int {
	d := cell.Sub(camera)
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

// Incremental caches per-view ray casts across successive map builds, so a
// rebuild after a photo batch only casts rays for the views added since the
// previous build — plus any cached view whose cast is no longer valid.
//
// Update is exactly equivalent to Build for the same inputs: a cached cast
// depends only on the obstacle occupancy (cells with value > 0) within the
// view's range disc, so it is invalidated whenever occupancy flips inside
// that disc, and recomputed against the new obstacles. Everything else is
// replayed from the cache, which turns the per-upload visibility cost from
// O(all views) into O(new + affected views) over a campaign.
//
// An Incremental is not safe for concurrent use; confine it to the model
// owner (core.System serialises all mutations).
type Incremental struct {
	layout *grid.Map
	cfg    Config

	views     []View
	contribs  []Contribution
	obstacles *grid.Map // occupancy basis the cached casts were made against
	rayStep   float64   // resolved angular step of the cached casts

	// trace is the stage-span sink of the rebuild in progress; nil (the
	// default) disables span collection.
	trace *telemetry.Trace
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

// Invalidate drops every cached cast; the next Update is a full rebuild.
// Callers use it after pipeline stages that restructure the model in ways
// not visible through the (cloud, views) inputs.
func (inc *Incremental) Invalidate() {
	inc.views, inc.contribs, inc.obstacles = nil, nil, nil
}

// Update builds the maps for the given cloud and registered views, reusing
// every cached cast that is still exact. The views slice is expected to be
// append-only between calls (SfM registration only adds views); any other
// change falls back to a full rebuild.
func (inc *Incremental) Update(cloud *pointcloud.Cloud, views []View) (*Maps, error) {
	sp := inc.trace.Span("map.obstacles")
	obstacles, err := ObstaclesMap(cloud, inc.layout, inc.cfg)
	sp.End()
	if err != nil {
		return nil, err
	}
	resolved := resolveRayStep(inc.cfg, inc.layout.Res(), views)

	// A view with a longer range than any before it tightens the shared
	// default ray step, which changes every cast.
	if inc.obstacles == nil || resolved.RayStep != inc.rayStep {
		inc.Invalidate()
	}
	// The cache covers a prefix of the view list; anything else (removed
	// or edited views) voids it.
	if len(inc.views) > len(views) {
		inc.Invalidate()
	}
	for i := range inc.views {
		if views[i] != inc.views[i] {
			inc.Invalidate()
			break
		}
	}

	// Recast cached views whose range disc contains an occupancy flip;
	// obstacle count changes that stay positive cannot alter a cast.
	stale := make([]bool, len(views))
	if inc.obstacles != nil {
		changed := occupancyFlips(inc.obstacles, obstacles)
		for i, v := range inc.views {
			if viewNearAny(v, changed, inc.layout) {
				stale[i] = true
			}
		}
	}

	contribs := make([]Contribution, len(views))
	copy(contribs, inc.contribs)
	var fresh []View
	var freshIdx []int
	for i := len(inc.views); i < len(views); i++ {
		stale[i] = true
	}
	for i, s := range stale {
		if s {
			fresh = append(fresh, views[i])
			freshIdx = append(freshIdx, i)
		}
	}
	freshContribs := make([]Contribution, len(fresh))
	sp = inc.trace.Span("map.cast")
	if err := castViews(freshContribs, fresh, obstacles, resolved); err != nil {
		sp.End()
		return nil, err
	}
	sp.End()
	for k, i := range freshIdx {
		contribs[i] = freshContribs[k]
	}

	sp = inc.trace.Span("map.merge")
	vis, aspects := mergeContributions(contribs, inc.layout)
	coverage, err := obstacles.Union(vis)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("mapping: coverage union: %w", err)
	}

	// Clone the basis: callers may decorate the returned obstacles map
	// (e.g. entrance barriers) without poisoning the cache.
	inc.views = append(inc.views[:0:0], views...)
	inc.contribs = contribs
	inc.obstacles = obstacles.Clone()
	inc.rayStep = resolved.RayStep
	return &Maps{Obstacles: obstacles, Visibility: vis, Aspects: aspects, Coverage: coverage}, nil
}

// CachedViews reports how many per-view casts the builder currently holds;
// exposed for tests and instrumentation.
func (inc *Incremental) CachedViews() int { return len(inc.views) }

// occupancyFlips returns the cells whose occupancy (value > 0) differs
// between two same-layout maps.
func occupancyFlips(prev, cur *grid.Map) []grid.Cell {
	var out []grid.Cell
	prev.Each(func(c grid.Cell, v int) {
		if (v > 0) != (cur.At(c) > 0) {
			out = append(out, c)
		}
	})
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

// ViewsFromSfM adapts any slice with camera pose and intrinsics into
// mapping views. It is a small helper so packages need not depend on sfm
// directly; the core orchestrator performs the conversion.
func ViewsFromSfM(poses []camera.Pose, intr camera.Intrinsics) []View {
	out := make([]View, len(poses))
	for i, p := range poses {
		out[i] = View{Pose: p, Intrinsics: intr}
	}
	return out
}
