// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V): the guided field test with its per-task map
// growth (Figure 10), the outer-bounds and model-coverage curves comparing
// the three crowdsourcing approaches (Figures 11a/11b), the final map
// renders (Figure 12), the featureless-surface reconstruction analysis
// (Table I), and the task-position bookkeeping (Figures 8–9).
package experiments

import (
	"fmt"
	"math/rand"

	"snaptask/internal/annotation"
	"snaptask/internal/camera"
	"snaptask/internal/core"
	"snaptask/internal/crowd"
	"snaptask/internal/geom"
	"snaptask/internal/grid"
	"snaptask/internal/mapping"
	"snaptask/internal/metrics"
	"snaptask/internal/nav"
	"snaptask/internal/pointcloud"
	"snaptask/internal/sfm"
	"snaptask/internal/taskgen"
	"snaptask/internal/venue"
)

// Setup bundles everything the experiments share: the library replica, its
// feature world, the system map layout, ground truth on that layout and
// the participants' walk map.
type Setup struct {
	Venue    *venue.Venue
	World    *camera.World
	Layout   *grid.Map
	GT       *venue.GroundTruth
	TruthCov *grid.Map
	WalkMap  *grid.Map
	Intr     camera.Intrinsics
	Config   core.Config
}

// NewLibrarySetup prepares the deterministic library experiment state for a
// seed.
func NewLibrarySetup(seed int64, cfg core.Config) (*Setup, error) {
	v, err := venue.Library()
	if err != nil {
		return nil, fmt.Errorf("experiments: venue: %w", err)
	}
	return newSetup(v, seed, cfg)
}

// NewSetup prepares experiment state over an arbitrary venue.
func NewSetup(v *venue.Venue, seed int64, cfg core.Config) (*Setup, error) {
	return newSetup(v, seed, cfg)
}

func newSetup(v *venue.Venue, seed int64, cfg core.Config) (*Setup, error) {
	feats := v.GenerateFeatures(rand.New(rand.NewSource(seed)))
	world := camera.NewWorld(v, feats)
	// A throwaway system supplies the canonical layout for the config.
	sys, err := core.NewSystem(v, world, cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: layout: %w", err)
	}
	layout := sys.Layout()
	gt, err := v.GroundTruthAt(layout)
	if err != nil {
		return nil, fmt.Errorf("experiments: ground truth: %w", err)
	}
	truthCov, err := gt.Coverage()
	if err != nil {
		return nil, fmt.Errorf("experiments: truth coverage: %w", err)
	}
	return &Setup{
		Venue:    v,
		World:    world,
		Layout:   layout,
		GT:       gt,
		TruthCov: truthCov,
		WalkMap:  v.WalkMap(gt),
		Intr:     camera.DefaultIntrinsics(),
		Config:   cfg,
	}, nil
}

// CurvePoint is one sample of the Figure 11 curves.
type CurvePoint struct {
	// Photos is the cumulative number of crowdsourced input photos
	// (excluding the shared initial model).
	Photos int
	// BoundsPct is the reconstructed outer-bounds percentage (Fig. 11a).
	BoundsPct float64
	// CoveragePct is the model coverage percentage (Fig. 11b).
	CoveragePct float64
}

// evalModel converts a model into maps and scores them against ground
// truth.
func (s *Setup) evalModel(model *sfm.Model) (*mapping.Maps, CurvePoint, error) {
	cloud, _, err := pointcloud.StatisticalOutlierRemoval(model.Cloud(), s.Config.SOR)
	if err != nil {
		return nil, CurvePoint{}, fmt.Errorf("experiments: SOR: %w", err)
	}
	var views []mapping.View
	for _, v := range model.Views() {
		views = append(views, mapping.View{Pose: v.Pose, Intrinsics: v.Intrinsics})
	}
	maps, err := mapping.Build(cloud, views, s.Layout, s.Config.Mapping)
	if err != nil {
		return nil, CurvePoint{}, fmt.Errorf("experiments: maps: %w", err)
	}
	var p CurvePoint
	p.BoundsPct, err = metrics.OuterBoundsPercent(maps.Obstacles, s.Venue.OuterSurfaces(), metrics.BoundsMatchThreshold)
	if err != nil {
		return nil, CurvePoint{}, err
	}
	p.CoveragePct, err = metrics.CoveragePercent(maps.AspectCoverage(), s.TruthCov)
	if err != nil {
		return nil, CurvePoint{}, err
	}
	return maps, p, nil
}

// IncrementalResult is an unguided/opportunistic evaluation: the curve plus
// the final maps.
type IncrementalResult struct {
	Curve     []CurvePoint
	FinalMaps *mapping.Maps
	// DatasetSize is the number of photos in the dataset after filtering.
	DatasetSize int
}

// EvaluateIncremental reproduces the paper's §V-C1 method for the unguided
// and opportunistic datasets: start from the shared initial model, add the
// photo set in chunks (100 photos in the paper) and score the maps after
// each chunk.
func (s *Setup) EvaluateIncremental(photos []camera.Photo, chunk int, seed int64) (*IncrementalResult, error) {
	if chunk <= 0 {
		return nil, fmt.Errorf("experiments: chunk %d must be positive", chunk)
	}
	rng := rand.New(rand.NewSource(seed))
	model := sfm.NewModel(s.Config.SfM, s.World.FeaturesView())
	boot, err := core.BootstrapCapture(s.World, s.Venue, s.Intr, rng)
	if err != nil {
		return nil, err
	}
	if _, err := model.RegisterBatch(boot, rng); err != nil {
		return nil, err
	}

	res := &IncrementalResult{DatasetSize: len(photos)}
	var maps *mapping.Maps
	for start := 0; start < len(photos); start += chunk {
		end := start + chunk
		if end > len(photos) {
			end = len(photos)
		}
		if _, err := model.RegisterBatch(photos[start:end], rng); err != nil {
			return nil, err
		}
		m, point, err := s.evalModel(model)
		if err != nil {
			return nil, err
		}
		point.Photos = end
		res.Curve = append(res.Curve, point)
		maps = m
	}
	res.FinalMaps = maps
	if maps == nil {
		// Empty dataset: evaluate the bare initial model.
		m, point, err := s.evalModel(model)
		if err != nil {
			return nil, err
		}
		res.FinalMaps = m
		res.Curve = []CurvePoint{point}
	}
	return res, nil
}

// BuildOpportunistic produces the opportunistic dataset: participant
// videos, sliding-window sharpest-frame extraction (window 30 in the
// paper), capped at maxPhotos (700 extracted frames in the paper).
func (s *Setup) BuildOpportunistic(seed int64, window, maxPhotos int) ([]camera.Photo, []nav.Path, error) {
	rng := rand.New(rand.NewSource(seed))
	videos, err := crowd.Opportunistic(s.World, s.Venue, s.WalkMap, s.Intr, crowd.OpportunisticOptions{}, rng)
	if err != nil {
		return nil, nil, err
	}
	var photos []camera.Photo
	var paths []nav.Path
	for _, v := range videos {
		photos = append(photos, crowd.ExtractSharpest(v.Frames, window)...)
		paths = append(paths, v.Path)
	}
	if maxPhotos > 0 && len(photos) > maxPhotos {
		photos = photos[:maxPhotos]
	}
	return photos, paths, nil
}

// BuildUnguided produces the unguided participatory dataset (10×100 photos,
// blur-filtered; 903 kept in the paper), capped at maxPhotos.
func (s *Setup) BuildUnguided(seed int64, maxPhotos int) ([]camera.Photo, error) {
	rng := rand.New(rand.NewSource(seed))
	photos, err := crowd.Unguided(s.World, s.Venue, s.Intr, crowd.UnguidedOptions{}, rng)
	if err != nil {
		return nil, err
	}
	if maxPhotos > 0 && len(photos) > maxPhotos {
		photos = photos[:maxPhotos]
	}
	return photos, nil
}

// AnnotationRow is one Table I line.
type AnnotationRow struct {
	Task          int
	Identified    int
	Reconstructed int
	PRF           metrics.PRF
}

// TaskMark is one Figure 9 marker: where a task was issued and where it
// was executed.
type TaskMark struct {
	Seq      int
	Kind     taskgen.Kind
	Issued   geom.Vec2
	Executed geom.Vec2
}

// GuidedResult is the full guided field test output.
type GuidedResult struct {
	Curve     []CurvePoint
	Loop      core.LoopResult
	FinalMaps *mapping.Maps
	TableI    []AnnotationRow
	Marks     []TaskMark
	// Snapshots holds per-task ASCII map renders for Figure 10 (sampled).
	Snapshots []string
	Covered   bool
}

// GuidedOptions tunes RunGuided.
type GuidedOptions struct {
	// MaxTasks bounds the loop (default 240).
	MaxTasks int
	// SnapshotEvery renders an ASCII map after every n-th task (0 = no
	// snapshots).
	SnapshotEvery int
	// WorkerBlurProb makes the guided worker occasionally produce
	// blurred sweeps.
	WorkerBlurProb float64
}

// RunGuided executes the full SnapTask field test on the setup and gathers
// every evaluation artefact.
func (s *Setup) RunGuided(seed int64, opts GuidedOptions) (*GuidedResult, error) {
	if opts.MaxTasks == 0 {
		opts.MaxTasks = 240
	}
	rng := rand.New(rand.NewSource(seed))
	// The guided loop's annotation pipeline injects artificial features
	// into its world; run it on a clone so the setup's world — shared by
	// the baseline dataset builders — stays pristine.
	world := s.World.Clone()
	sys, err := core.NewSystem(s.Venue, world, s.Config)
	if err != nil {
		return nil, err
	}
	worker := &crowd.GuidedWorker{
		World:      world,
		Venue:      s.Venue,
		Intrinsics: s.Intr,
		Pos:        s.Venue.Entrance(),
		BlurProb:   opts.WorkerBlurProb,
	}

	out := &GuidedResult{}
	snapshot := func() {
		m := sys.Maps()
		if r, err := metrics.RenderASCII(m.Obstacles, m.Visibility, s.TruthCov); err == nil {
			out.Snapshots = append(out.Snapshots, r)
		}
	}
	onIter := func(it core.Iteration) {
		_, point, err := s.evalModel(sys.Model())
		if err != nil {
			return
		}
		point.Photos = it.PhotosUsed
		out.Curve = append(out.Curve, point)
		out.Marks = append(out.Marks, TaskMark{
			Seq:      len(out.Marks) + 1,
			Kind:     it.Task.Kind,
			Issued:   it.Task.Location,
			Executed: it.Task.Location, // refined below for annotation rows
		})
		if it.Annotation != nil && it.AnnotationTask != nil {
			out.TableI = append(out.TableI, s.scoreAnnotation(len(out.TableI)+1, *it.Annotation, *it.AnnotationTask))
		}
		if opts.SnapshotEvery > 0 && len(out.Marks)%opts.SnapshotEvery == 0 {
			snapshot()
		}
	}

	loop, err := core.RunGuidedLoop(sys, worker, s.WalkMap, core.LoopOptions{
		MaxTasks:    opts.MaxTasks,
		OnIteration: onIter,
	}, rng)
	if err != nil {
		return nil, err
	}
	out.Loop = loop
	out.Covered = loop.Covered
	out.FinalMaps = sys.Maps()
	snapshot()
	return out, nil
}

// scoreAnnotation computes one Table I row: precision/recall/F of the
// reconstruction against the task's true surface and its visible stretch.
func (s *Setup) scoreAnnotation(seq int, recon annotation.ReconResult, task annotation.Task) AnnotationRow {
	row := AnnotationRow{
		Task:          seq,
		Identified:    recon.Identified,
		Reconstructed: recon.Reconstructed,
	}
	var truth *venue.Surface
	for _, surf := range s.Venue.Surfaces() {
		if surf.ID == task.TruthSurfaceID {
			sc := surf
			truth = &sc
		}
	}
	if truth == nil {
		return row
	}
	// The recall denominator is the stretch visible in the WHOLE photo
	// set — the paper's workers mark "the exact same 4 corners" in every
	// photo, so only the common stretch is annotatable.
	common := metrics.Interval{Lo: 0, Hi: truth.Seg.Len()}
	any := false
	for _, p := range task.Photos {
		if lo, hi, ok := annotation.VisibleRange(p, *truth); ok {
			any = true
			if lo > common.Lo {
				common.Lo = lo
			}
			if hi < common.Hi {
				common.Hi = hi
			}
		}
	}
	var visible []metrics.Interval
	if any && common.Hi > common.Lo {
		visible = append(visible, common)
	}
	var spans []geom.Segment
	for _, sr := range recon.Surfaces {
		spans = append(spans, sr.Span())
	}
	row.PRF = metrics.FeaturelessPRF(spans, *truth, visible, 0.25)
	return row
}

// AggregatePRF averages Table I rows as the paper reports ("on average
// 98.14% precision and 90.23% F-score"). Rows with no reconstruction are
// included with zero scores.
func AggregatePRF(rows []AnnotationRow) metrics.PRF {
	if len(rows) == 0 {
		return metrics.PRF{}
	}
	var sum metrics.PRF
	n := 0
	for _, r := range rows {
		if r.Reconstructed == 0 {
			continue
		}
		sum.Precision += r.PRF.Precision
		sum.Recall += r.PRF.Recall
		sum.F += r.PRF.F
		n++
	}
	if n == 0 {
		return metrics.PRF{}
	}
	return metrics.PRF{
		Precision: sum.Precision / float64(n),
		Recall:    sum.Recall / float64(n),
		F:         sum.F / float64(n),
	}
}
