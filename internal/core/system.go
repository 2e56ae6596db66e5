// Package core assembles SnapTask: the backend system that folds uploaded
// photo batches into the incremental SfM model, maintains the obstacle /
// visibility / coverage maps, runs the task-generation algorithms, and
// drives the featureless-surface annotation pipeline — the complete closed
// crowdsourcing loop of the paper's Figure 2.
//
// The System type is the server-side brain: it consumes photo and
// annotation batches and produces tasks. RunGuidedLoop couples a System
// with a simulated guided worker to execute the full field test.
package core

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"

	"snaptask/internal/annotation"
	"snaptask/internal/camera"
	"snaptask/internal/events"
	"snaptask/internal/geom"
	"snaptask/internal/grid"
	"snaptask/internal/imaging"
	"snaptask/internal/mapping"
	"snaptask/internal/pointcloud"
	"snaptask/internal/sfm"
	"snaptask/internal/taskgen"
	"snaptask/internal/telemetry"
	"snaptask/internal/venue"
)

// Config bundles the tunables of every stage. Zero-valued fields take the
// paper's defaults throughout.
type Config struct {
	// Res is the map grid resolution in metres (0.15 in the paper,
	// adjustable 0.10–0.50).
	Res float64
	// Margin is how far (metres) the system's map extends beyond the
	// venue bounds. A generous margin leaves unknown space beyond glass
	// walls, which is what drives Algorithm 1 to issue tasks there and
	// eventually escalate to annotation — the paper's Figure 9 tasks
	// 1 and 3–6. Defaults to 12.
	Margin float64
	// SfM configures the reconstruction pipeline.
	SfM sfm.Config
	// Mapping configures Algorithms 2–3.
	Mapping mapping.Config
	// TaskGen configures Algorithms 1 and 4.
	TaskGen taskgen.Config
	// Workers configures the simulated annotation workforce.
	Workers annotation.WorkerOptions
	// Bounds configures Algorithm 5.
	Bounds annotation.BoundsConfig
	// Recon configures Algorithm 6.
	Recon annotation.ReconConfig
	// SOR configures the statistical outlier filter of Algorithm 1.
	SOR pointcloud.SOROptions
	// FullRebuild disables the incremental ingest path: every batch
	// recomputes the SOR filter and all map ray casts from scratch
	// instead of reusing cached per-point distances and per-view casts.
	// The output is identical either way (the incremental path is exact);
	// the flag exists for benchmarking and for cross-checking the two
	// paths in tests.
	FullRebuild bool
	// MinCoverageGrowth is the number of new coverage cells a batch must
	// add to count as "coverage increased" — pose noise alone adds a few
	// cells, which must not mask a genuinely stuck location. Zero means
	// the default of 30 (≈0.7 m²); a negative value selects an explicit
	// threshold of 0 (any growth counts), which the zero value cannot
	// express.
	MinCoverageGrowth int
}

func (c Config) withDefaults() Config {
	if c.Res == 0 {
		c.Res = 0.15
	}
	if c.Margin == 0 {
		c.Margin = 12
	}
	if c.MinCoverageGrowth == 0 {
		c.MinCoverageGrowth = 30
	}
	return c
}

// System is the SnapTask backend state. It is not safe for concurrent use;
// the HTTP server serialises access through a single owner goroutine.
type System struct {
	cfg    Config
	venue  *venue.Venue
	world  *camera.World
	model  *sfm.Model
	gen    *taskgen.Generator
	layout *grid.Map
	maps   *mapping.Maps

	pending      []taskgen.Task
	covered      bool
	nextArtID    uint64
	barrierCells []grid.Cell
	vis          *mapping.Incremental
	sor          *pointcloud.IncrementalSOR
	// mapViews caches the model views converted for the mapping layer;
	// the model only appends views, so rebuildMaps folds just the new tail
	// instead of re-copying the whole list every batch.
	mapViews []mapping.View

	// snapshotBytes is the size of the latest snapshot written or loaded
	// (the next write's buffer estimate); loadSeconds is how long the
	// LoadSystem that built this system took, reported by SetTelemetry.
	snapshotBytes int
	loadSeconds   float64
	// castsReported is the visibility builder's cast count as of the
	// last reportCasts.
	castsReported mapping.CastCounts

	// Counters for the paper's §V-B3 bookkeeping.
	photoTasksIssued      int
	annotationTasksIssued int
	photosProcessed       int

	// Observability sinks; no-op ones until SetTelemetry. attr names the
	// request behind the mutation in flight; curTrace is its batch trace
	// (nil between batches).
	tracer   *telemetry.Tracer
	ingestM  *telemetry.IngestMetrics
	logger   *slog.Logger
	attr     Attribution
	curTrace *telemetry.Trace

	// Campaign event journal; nil (no-op) until SetEvents. lastCovCells is
	// the coverage-cell count at the previous batch boundary, the baseline
	// for coverage_delta events.
	evlog        *events.Log
	lastCovCells int
}

// NewSystem creates a backend for a venue. The world must be built over the
// same venue; its features are the reconstruction oracle.
func NewSystem(v *venue.Venue, world *camera.World, cfg Config) (*System, error) {
	s, err := newSystem(v, world, cfg)
	if err != nil {
		return nil, err
	}
	s.maps = &mapping.Maps{
		Obstacles:  grid.NewLike(s.layout),
		Visibility: grid.NewLike(s.layout),
		Aspects:    grid.NewLike(s.layout),
		Coverage:   grid.NewLike(s.layout),
	}
	s.applyBarrier()
	return s, nil
}

// newSystem is NewSystem without the maps: LoadSystem builds those from
// the restored model, so empty ones would be allocated only to be dropped.
func newSystem(v *venue.Venue, world *camera.World, cfg Config) (*System, error) {
	if v == nil || world == nil {
		return nil, fmt.Errorf("core: nil venue or world")
	}
	cfg = cfg.withDefaults()
	layout, err := grid.NewFromBounds(v.Bounds().Expand(cfg.Margin), cfg.Res)
	if err != nil {
		return nil, fmt.Errorf("core: layout: %w", err)
	}
	s := &System{
		cfg:       cfg,
		venue:     v,
		world:     world,
		gen:       taskgen.NewGenerator(cfg.TaskGen),
		model:     sfm.NewModel(cfg.SfM, world.FeaturesView()),
		layout:    layout,
		nextArtID: annotation.ArtificialIDBase,
		ingestM:   telemetry.NewIngestMetrics(nil),
		logger:    slog.New(slog.DiscardHandler),
	}
	s.vis, err = mapping.NewIncremental(layout, cfg.Mapping)
	if err != nil {
		return nil, fmt.Errorf("core: visibility builder: %w", err)
	}
	s.sor, err = pointcloud.NewIncrementalSOR(cfg.SOR)
	if err != nil {
		return nil, fmt.Errorf("core: SOR filter: %w", err)
	}
	// The entrance is a known boundary: the initial model is anchored
	// there, so the backend seals the gap in its own maps rather than
	// issuing tasks through it.
	for _, seg := range v.EntranceSegments() {
		layout.RasterizeSegment(seg, func(c grid.Cell) {
			if layout.InBounds(c) {
				s.barrierCells = append(s.barrierCells, c)
			}
		})
	}
	return s, nil
}

// applyBarrier marks entrance-gap cells as boundary in the current maps.
func (s *System) applyBarrier() {
	for _, c := range s.barrierCells {
		if s.maps.Obstacles.At(c) == 0 {
			s.maps.Obstacles.Set(c, 1)
		}
		if s.maps.Coverage.At(c) == 0 {
			s.maps.Coverage.Set(c, 1)
		}
	}
}

// SetTelemetry wires the observability bundle into the owner path: batch
// traces go to tel.Tracer, ingest metrics register on tel.Registry, and
// per-batch summary lines go to tel.Logger. A system restored by LoadSystem
// reports its load time, snapshot size and the view casts its load made
// here. Call once, before processing starts (the System is single-owner;
// this is not synchronised). A nil bundle or nil fields leave the matching
// sinks no-ops.
func (s *System) SetTelemetry(tel *telemetry.Telemetry) {
	r := tel.Resolve()
	s.tracer, s.logger = r.Tracer, r.Logger
	s.ingestM = telemetry.NewIngestMetrics(r.Registry)
	if s.loadSeconds > 0 {
		s.ingestM.SnapshotLoadSeconds.Observe(s.loadSeconds)
		s.ingestM.SnapshotBytes.Set(float64(s.snapshotBytes))
	}
	// Until now the casts went to no-op counters; report every cast since
	// the system was built (a LoadSystem's restored casts among them).
	s.castsReported = mapping.CastCounts{}
	s.reportCasts()
}

// SetEvents wires the campaign event log into the owner path: every
// lifecycle transition — task issued, batch accepted/rejected with cause,
// blur retry, TT escalation, annotation round, coverage delta, campaign
// covered — is emitted to it, and each processed batch ends with a journal
// commit (fsync). Call before processing starts (single-owner, not
// synchronised). A nil log leaves emission a no-op.
func (s *System) SetEvents(log *events.Log) {
	s.evlog = log
	s.lastCovCells = s.maps.CoverageCells()
}

// Attribution names the request behind an owner-path mutation. Its batch
// trace carries the request ID and W3C trace context, its log line the
// request ID, and its events the request ID, worker and lease. An unleased
// upload has no worker or lease.
type Attribution struct {
	RequestID string
	Trace     telemetry.TraceContext
	Worker    string
	Lease     string
}

// SetAttribution attributes subsequent mutations to a. The server's owner
// goroutine sets it before each Process* call and clears it with the zero
// value after. Worker attribution on the batch events is what lets the
// dispatcher's replay fold complete leases and re-apply blur exclusions.
func (s *System) SetAttribution(a Attribution) { s.attr = a }

// emit stamps the in-flight attribution onto e and records it.
func (s *System) emit(e events.Event) {
	if s.evlog == nil {
		return
	}
	e.RequestID = s.attr.RequestID
	if e.Worker == "" {
		e.Worker = s.attr.Worker
	}
	if e.LeaseID == "" {
		e.LeaseID = s.attr.Lease
	}
	s.evlog.Emit(e)
}

// beginBatch opens a per-batch trace and points every pipeline stage's
// span sink at it. The trace is nil (a valid no-op trace) when no tracer
// is configured.
func (s *System) beginBatch(kind string) *telemetry.Trace {
	tr := s.tracer.Start(kind, s.attr.RequestID, s.attr.Trace)
	s.curTrace = tr
	s.model.SetTrace(tr)
	s.sor.SetTrace(tr)
	s.vis.SetTrace(tr)
	return tr
}

// ErrJournalCommit marks a batch whose events failed to reach disk. The
// model keeps the batch, but it must not be acknowledged as durable.
var ErrJournalCommit = errors.New("core: event journal commit failed")

// endBatch closes a batch trace: detaches the stage sinks, commits the
// batch's events, records the outcome on the metrics and publishes the
// trace. It returns err, joined with an ErrJournalCommit error when the
// commit fails. Safe to call with a nil trace.
func (s *System) endBatch(tr *telemetry.Trace, kind string, err error) error {
	s.curTrace = nil
	s.model.SetTrace(nil)
	s.sor.SetTrace(nil)
	s.vis.SetTrace(nil)
	result := "ok"
	if err != nil {
		result = "error"
		tr.SetError(err)
		// Pipeline failures never reach the success-path emissions, so the
		// journal still records one terminal event per batch. Photos stays
		// zero: failed batches are not counted into photosProcessed either.
		s.emit(events.Event{Kind: events.KindBatchRejected, Batch: kind,
			Cause: events.CauseError})
		s.ingestM.BatchRejected.With(events.CauseError).Inc()
	}
	if cerr := s.evlog.Commit(); cerr != nil {
		cerr = fmt.Errorf("%w: %w", ErrJournalCommit, cerr)
		result = "error"
		err = errors.Join(err, cerr)
		tr.SetError(err)
		s.logger.LogAttrs(context.Background(), slog.LevelError,
			"event journal commit failed", slog.String("error", cerr.Error()))
	}
	// One pass over the coverage grid serves the gauge, the trace and the
	// log line.
	cov := s.maps.CoverageCells()
	s.ingestM.Batches.With(kind, result).Inc()
	s.ingestM.ModelViews.Set(float64(s.NumViews()))
	s.ingestM.ModelPoints.Set(float64(s.NumPoints()))
	s.ingestM.CoverageCells.Set(float64(cov))
	tr.SetCount("coverage_cells", cov)
	tr.Finish()
	s.logger.LogAttrs(context.Background(), slog.LevelInfo, "batch processed",
		slog.String("request_id", s.attr.RequestID),
		slog.String("kind", kind),
		slog.String("result", result),
		slog.Int("model_views", s.NumViews()),
		slog.Int("model_points", s.NumPoints()),
		slog.Int("coverage_cells", cov),
	)
	return err
}

// recordBatchResult folds one sfm.BatchResult into the trace counts and
// ingest counters, and observes each photo's sharpness score.
func (s *System) recordBatchResult(tr *telemetry.Trace, batch sfm.BatchResult, photos []camera.Photo) {
	tr.SetCount("photos", len(photos))
	tr.SetCount("registered", len(batch.Registered))
	tr.SetCount("blurry", len(batch.RejectedBlurry))
	tr.SetCount("unregistered", len(batch.Unregistered))
	s.ingestM.PhotosProcessed.Add(uint64(len(photos)))
	s.ingestM.BlurryRejected.Add(uint64(len(batch.RejectedBlurry)))
	s.ingestM.Unregistered.Add(uint64(len(batch.Unregistered)))
	s.observeSharpness(photos)
}

// observeSharpness feeds the blur-variance histogram with every photo's
// Laplacian-variance score.
func (s *System) observeSharpness(photos []camera.Photo) {
	for _, p := range photos {
		s.ingestM.BlurVariance.Observe(p.Sharpness)
	}
}

// Venue returns the system's venue.
func (s *System) Venue() *venue.Venue { return s.venue }

// World returns the capture world (shared with clients in-process).
func (s *System) World() *camera.World { return s.world }

// Model returns the SfM model.
func (s *System) Model() *sfm.Model { return s.model }

// NumViews returns the model's registered view count.
func (s *System) NumViews() int { return s.model.NumViews() }

// NumPoints returns the model's triangulated point count (pre-SOR).
func (s *System) NumPoints() int { return s.model.NumPoints() }

// EachCloudPoint iterates the model's cloud points (triangulated points,
// then outliers) without materialising a copy — the read path for snapshot
// publication.
func (s *System) EachCloudPoint(fn func(pointcloud.Point)) { s.model.EachCloudPoint(fn) }

// Maps returns the current mapping products. They are read-only once
// returned: a rebuild replaces the maps wholesale (the entrance barrier is
// applied to the new ones before any caller sees them) and never writes
// into a returned one, so a caller may keep and share them without a copy,
// as the server's read snapshots do. Callers must not mutate them.
func (s *System) Maps() *mapping.Maps { return s.maps }

// Layout returns the shared grid layout.
func (s *System) Layout() *grid.Map { return s.layout }

// Covered reports whether Algorithm 1 has declared the venue fully
// covered.
func (s *System) Covered() bool { return s.covered }

// PhotosProcessed returns the number of photos accepted into batches so
// far.
func (s *System) PhotosProcessed() int { return s.photosProcessed }

// TasksIssued returns how many photo and annotation tasks have been
// generated.
func (s *System) TasksIssued() (photo, ann int) {
	return s.photoTasksIssued, s.annotationTasksIssued
}

// NextTask pops the next pending task. ok is false when none is pending
// (either the venue is covered or a batch is still awaited).
func (s *System) NextTask() (taskgen.Task, bool) {
	if len(s.pending) == 0 {
		return taskgen.Task{}, false
	}
	t := s.pending[0]
	s.pending = s.pending[1:]
	return t, true
}

// TakeTask removes the pending task with the given ID and returns it. ok is
// false when no such task is pending (already claimed or completed).
func (s *System) TakeTask(id int) (taskgen.Task, bool) {
	for i, t := range s.pending {
		if t.ID == id {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			return t, true
		}
	}
	return taskgen.Task{}, false
}

// PendingTasks returns a copy of the pending task queue.
func (s *System) PendingTasks() []taskgen.Task {
	return append([]taskgen.Task(nil), s.pending...)
}

// rebuildMaps runs Algorithm 1 lines 2–5: SOR filter, obstacle map,
// visibility map, coverage. Both expensive stages are delta-driven: the SOR
// filter consumes the model's cloud delta and recomputes mean-kNN distances
// only for points whose neighbourhood actually changed, and the visibility
// pass goes through the incremental builder, which replays cached per-view
// ray casts and only casts views added since the previous rebuild (or
// invalidated by obstacle changes within their range). Both stages are
// exactly equivalent to their full counterparts; Config.FullRebuild forces
// the from-scratch path.
func (s *System) rebuildMaps() error {
	var (
		cloud   *pointcloud.Cloud
		removed int
		err     error
	)
	sp := s.curTrace.Span("sor")
	if s.cfg.FullRebuild {
		s.vis.Invalidate()
		s.sor.Reset()
		cloud, removed, err = pointcloud.StatisticalOutlierRemoval(s.model.Cloud(), s.cfg.SOR)
	} else {
		full, newPts, newOutliers := s.model.CloudIncremental()
		cloud, removed, err = s.sor.FilterAppend(full, s.model.NumPoints(), len(newPts), len(newOutliers))
	}
	sp.End()
	if err != nil {
		return fmt.Errorf("core: SOR: %w", err)
	}
	s.ingestM.SOROutliers.Set(float64(removed))
	s.curTrace.SetCount("sor_removed", removed)
	s.foldViews()
	maps, err := s.vis.Update(cloud, s.mapViews)
	s.reportCasts()
	if err != nil {
		return fmt.Errorf("core: maps: %w", err)
	}
	s.maps = maps
	s.applyBarrier()
	return nil
}

// foldViews appends the views registered since the last fold to the cached
// mapping view list — the model is append-only, so a per-batch full-list
// copy would be pure overhead.
func (s *System) foldViews() {
	for _, v := range s.model.ViewsFrom(len(s.mapViews)) {
		s.mapViews = append(s.mapViews, mapping.View{Pose: v.Pose, Intrinsics: v.Intrinsics})
	}
}

// reportCasts adds the view casts made since the last report to the casts
// counter, by cause.
func (s *System) reportCasts() {
	now, last := s.vis.Casts(), s.castsReported
	s.ingestM.ViewCasts.With("new").Add(uint64(now.New - last.New))
	s.ingestM.ViewCasts.With("stale").Add(uint64(now.Stale - last.Stale))
	s.ingestM.ViewCasts.With("restored").Add(uint64(now.Restored - last.Restored))
	s.castsReported = now
}

// effectiveVisibility folds aspect coverage into the visibility counts fed
// to Algorithm 4: a cell viewed from fewer than two quadrants is clamped
// below COVERED_VIEW_TOLERANCE so it stays "unvisited" — the paper demands
// that "all aspects of the area are covered by camera views", and sweeps
// from a second direction are how that happens.
func (s *System) effectiveVisibility() *grid.Map {
	out := s.maps.Visibility.Clone()
	tol := s.gen.Config().CoveredViewTolerance
	out.Each(func(c grid.Cell, v int) {
		if v >= tol && popcountAspects(s.maps.Aspects.At(c)) < mapping.MinAspects {
			out.Set(c, tol-1)
		}
	})
	return out
}

func popcountAspects(mask int) int {
	n := 0
	for b := 0; b < 4; b++ {
		if mask&(1<<b) != 0 {
			n++
		}
	}
	return n
}

// step feeds Algorithm 1's decision stage and queues the produced tasks.
func (s *System) step(in taskgen.StepInput) (taskgen.StepOutput, error) {
	in.Obstacles = s.maps.Obstacles
	in.Visibility = s.effectiveVisibility()
	in.Start = s.venue.Entrance()
	in.WorkerID = s.attr.Worker
	sp := s.curTrace.Span("taskgen")
	wasCovered := s.covered
	out, err := s.gen.Step(in)
	sp.End()
	if err != nil {
		return out, fmt.Errorf("core: task generation: %w", err)
	}
	if out.VenueCovered {
		s.covered = true
	}
	// Decision events precede the tasks they produced.
	if out.RetriedForBlur && len(out.Tasks) > 0 {
		t := out.Tasks[0]
		s.emit(events.Event{Kind: events.KindBlurRetry, TaskID: t.ID,
			TaskKind: t.Kind.String(), Retry: t.Retry, X: t.Location.X, Y: t.Location.Y})
	}
	if out.EscalatedToAnnotation && len(out.Tasks) > 0 {
		t := out.Tasks[0]
		s.emit(events.Event{Kind: events.KindEscalated, TaskID: t.ID,
			TaskKind: t.Kind.String(), X: t.Location.X, Y: t.Location.Y})
	}
	for _, t := range out.Tasks {
		switch t.Kind {
		case taskgen.KindPhoto:
			s.photoTasksIssued++
			s.ingestM.TasksIssued.With("photo").Inc()
		case taskgen.KindAnnotation:
			s.annotationTasksIssued++
			s.ingestM.TasksIssued.With("annotation").Inc()
		}
		s.emit(events.Event{Kind: events.KindTaskIssued, TaskID: t.ID,
			TaskKind: t.Kind.String(), Retry: t.Retry, X: t.Location.X, Y: t.Location.Y})
	}
	if !wasCovered && s.covered {
		s.emit(events.Event{Kind: events.KindCovered,
			CoverageCells: s.maps.CoverageCells()})
	}
	s.curTrace.SetCount("tasks_issued", len(out.Tasks))
	s.pending = append(s.pending, out.Tasks...)
	return out, nil
}

// emitBatchEvent records the terminal accepted/rejected event of a photo
// (or bootstrap) batch. The rejection cause mirrors Algorithm 1's failure
// precedence: blurry input first, then registration failure, then
// registered-but-no-coverage-growth (the stuck-location signal).
func (s *System) emitBatchEvent(kind string, batch sfm.BatchResult, photos []camera.Photo, grew bool) {
	e := events.Event{
		Batch:        kind,
		Photos:       len(photos),
		Registered:   len(batch.Registered),
		Blurry:       len(batch.RejectedBlurry),
		Unregistered: len(batch.Unregistered),
		NewPoints:    batch.NewPoints,
	}
	if len(batch.Registered) > 0 && grew {
		e.Kind = events.KindBatchAccepted
	} else {
		e.Kind = events.KindBatchRejected
		switch {
		case medianSharpness(photos) <= s.gen.Config().LowQualitySharpness:
			e.Cause = events.CauseBlur
		case len(batch.Registered) == 0:
			e.Cause = events.CauseRegistration
		default:
			e.Cause = events.CauseNoGrowth
		}
		s.ingestM.BatchRejected.With(e.Cause).Inc()
	}
	s.emit(e)
}

// emitCoverageDelta records the coverage-cells change of the batch just
// processed — one progress point per batch.
func (s *System) emitCoverageDelta() {
	cur := s.maps.CoverageCells()
	s.emit(events.Event{Kind: events.KindCoverageDelta,
		CoverageCells: cur, Delta: cur - s.lastCovCells})
	s.lastCovCells = cur
}

// BatchOutcome reports one processed photo batch.
type BatchOutcome struct {
	Batch             sfm.BatchResult
	CoverageCells     int
	CoverageIncreased bool
	TasksIssued       []taskgen.Task
	VenueCovered      bool
	// RetriedForBlur is true when the batch was rejected as blurry and the
	// task was re-issued; the uploading worker then joins the re-issued
	// task's exclusion set.
	RetriedForBlur bool
}

// ProcessBootstrap ingests the initial capture set (the paper's 2-minute
// video plus geo-calibration photos at the entrance), builds the initial
// model and issues the first task.
func (s *System) ProcessBootstrap(photos []camera.Photo, rng *rand.Rand) (outcome BatchOutcome, retErr error) {
	if s.NumViews() > 0 {
		return BatchOutcome{}, fmt.Errorf("core: bootstrap on a non-empty model")
	}
	tr := s.beginBatch("bootstrap")
	defer func() { retErr = s.endBatch(tr, "bootstrap", retErr) }()
	batch, err := s.model.RegisterBatch(photos, rng)
	if err != nil {
		return BatchOutcome{}, fmt.Errorf("core: bootstrap register: %w", err)
	}
	if len(batch.Registered) == 0 {
		return BatchOutcome{}, fmt.Errorf("core: bootstrap photos failed to seed a model")
	}
	s.photosProcessed += len(photos)
	s.recordBatchResult(tr, batch, photos)
	if err := s.rebuildMaps(); err != nil {
		return BatchOutcome{}, err
	}
	s.emitBatchEvent("bootstrap", batch, photos, true)
	s.emitCoverageDelta()
	out, err := s.step(taskgen.StepInput{Bootstrap: true})
	if err != nil {
		return BatchOutcome{}, err
	}
	return BatchOutcome{
		Batch:             batch,
		CoverageCells:     s.maps.CoverageCells(),
		CoverageIncreased: true,
		TasksIssued:       out.Tasks,
		VenueCovered:      out.VenueCovered,
	}, nil
}

// ProcessPhotoBatch ingests the photos of a completed photo task: the full
// Algorithm 1 iteration. taskSeed is the task's discovery-frontier point
// (pass taskLoc when unknown).
func (s *System) ProcessPhotoBatch(taskLoc, taskSeed geom.Vec2, photos []camera.Photo, rng *rand.Rand) (outcome BatchOutcome, retErr error) {
	if len(photos) == 0 {
		return BatchOutcome{}, fmt.Errorf("core: empty photo batch")
	}
	tr := s.beginBatch("photo_batch")
	defer func() { retErr = s.endBatch(tr, "photo_batch", retErr) }()
	before := s.progressCells()
	batch, err := s.model.RegisterBatch(photos, rng)
	if err != nil {
		return BatchOutcome{}, fmt.Errorf("core: register batch: %w", err)
	}
	s.photosProcessed += len(photos)
	s.recordBatchResult(tr, batch, photos)
	if err := s.rebuildMaps(); err != nil {
		return BatchOutcome{}, err
	}
	after := s.progressCells()
	grew := after >= before+s.growthThreshold(before)
	s.emitBatchEvent("photo_batch", batch, photos, grew)
	s.emitCoverageDelta()

	out, err := s.step(taskgen.StepInput{
		BatchRegistered:   len(batch.Registered) > 0,
		CoverageIncreased: grew,
		BatchSharpness:    medianSharpness(photos),
		TaskLocation:      taskLoc,
		TaskSeed:          taskSeed,
	})
	if err != nil {
		return BatchOutcome{}, err
	}
	return BatchOutcome{
		Batch:             batch,
		CoverageCells:     after,
		CoverageIncreased: grew,
		TasksIssued:       out.Tasks,
		VenueCovered:      out.VenueCovered,
		RetriedForBlur:    out.RetriedForBlur,
	}, nil
}

// AnnotationOutcome reports one processed annotation task.
type AnnotationOutcome struct {
	Recon         annotation.ReconResult
	CoverageCells int
	TasksIssued   []taskgen.Task
	VenueCovered  bool
	// RetriedForBlur mirrors BatchOutcome: a blurry annotation photo set
	// re-issues the task for other workers.
	RetriedForBlur bool
}

// ProcessAnnotation runs Algorithms 5 and 6 over the collected photo set
// and worker annotations, folds the reconstructed featureless surfaces into
// the model and continues the task loop. taskSeed is the originating
// task's discovery point (pass the task location when unknown).
func (s *System) ProcessAnnotation(task annotation.Task, taskSeed geom.Vec2, anns []annotation.Annotation, rng *rand.Rand) (outcome AnnotationOutcome, retErr error) {
	if len(task.Photos) == 0 {
		return AnnotationOutcome{}, fmt.Errorf("core: annotation task without photos")
	}
	tr := s.beginBatch("annotation")
	defer func() { retErr = s.endBatch(tr, "annotation", retErr) }()
	before := s.progressCells()
	sp := tr.Span("annotation.bounds")
	bounds, err := annotation.MarkedObstacleBounds(anns, len(task.Photos), s.cfg.Bounds, rng)
	sp.End()
	if err != nil {
		return AnnotationOutcome{}, fmt.Errorf("core: bounds: %w", err)
	}
	sp = tr.Span("annotation.reconstruct")
	recon, err := annotation.Reconstruct(s.model, s.world, task, bounds, imaging.TextureDB{}, s.cfg.Recon, &s.nextArtID, rng)
	sp.End()
	if err != nil {
		return AnnotationOutcome{}, fmt.Errorf("core: reconstruct: %w", err)
	}
	s.photosProcessed += len(task.Photos)
	tr.SetCount("photos", len(task.Photos))
	tr.SetCount("identified", recon.Identified)
	tr.SetCount("reconstructed", recon.Reconstructed)
	s.ingestM.PhotosProcessed.Add(uint64(len(task.Photos)))
	s.observeSharpness(task.Photos)
	// The annotation pipeline injects artificial structure into the model
	// beyond plain view registration; drop the cast and SOR caches and take
	// the full-rebuild path rather than reason about incremental validity.
	s.vis.Invalidate()
	s.sor.Reset()
	if err := s.rebuildMaps(); err != nil {
		return AnnotationOutcome{}, err
	}
	after := s.progressCells()
	s.emit(events.Event{Kind: events.KindAnnotationDone, Batch: "annotation",
		Photos: len(task.Photos), Identified: recon.Identified,
		Reconstructed: recon.Reconstructed})
	s.emitCoverageDelta()

	out, err := s.step(taskgen.StepInput{
		BatchRegistered:   recon.Reconstructed > 0,
		CoverageIncreased: after >= before+s.growthThreshold(before),
		BatchSharpness:    medianSharpness(task.Photos),
		TaskLocation:      task.Location,
		TaskSeed:          taskSeed,
		AnnotationFailed:  recon.Identified == 0,
	})
	if err != nil {
		return AnnotationOutcome{}, err
	}
	return AnnotationOutcome{
		Recon:          recon,
		CoverageCells:  after,
		TasksIssued:    out.Tasks,
		VenueCovered:   out.VenueCovered,
		RetriedForBlur: out.RetriedForBlur,
	}, nil
}

// progressCells measures mapping progress for the coverage-increased test:
// aspect-complete coverage, so a sweep that completes the viewing aspects
// of already-seen cells counts as productive (it is — the paper requires
// all aspects covered) and does not get misread as a stuck location.
func (s *System) progressCells() int {
	return s.maps.AspectCoverage().CountPositive()
}

// growthThreshold returns how many new coverage cells a batch must add to
// count as progress. It scales with the current coverage because pose
// noise inflates the visibility union a little with every added view.
func (s *System) growthThreshold(before int) int {
	t := s.cfg.MinCoverageGrowth
	if t < 0 {
		// Negative config means an explicit zero threshold.
		t = 0
	}
	if rel := before / 200; rel > t {
		t = rel
	}
	return t
}

// medianSharpness returns the median Laplacian variance of a batch — the
// quality signal checkPhotoQuality inspects.
func medianSharpness(photos []camera.Photo) float64 {
	if len(photos) == 0 {
		return 0
	}
	vals := make([]float64, len(photos))
	for i, p := range photos {
		vals[i] = p.Sharpness
	}
	// Insertion sort; batches are small.
	for i := 1; i < len(vals); i++ {
		for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
			vals[j], vals[j-1] = vals[j-1], vals[j]
		}
	}
	return vals[len(vals)/2]
}

// BootstrapCapture produces the paper's initial data collection: a 360°
// sweep standing just inside the entrance (the video frames) plus a short
// line of geo-calibration photos.
func BootstrapCapture(world *camera.World, v *venue.Venue, in camera.Intrinsics, rng *rand.Rand) ([]camera.Photo, error) {
	photos, err := world.Sweep(v.Entrance(), in, camera.CaptureOptions{}, rng)
	if err != nil {
		return nil, fmt.Errorf("core: bootstrap sweep: %w", err)
	}
	// Geo-calibration line: 39 photos stepping into the venue.
	dirIn := geom.Vec2{}
	b := v.Bounds()
	center := b.Center()
	dirIn = center.Sub(v.Entrance()).Norm()
	for i := 0; i < 39; i++ {
		pos := v.Entrance().Add(dirIn.Scale(0.05 * float64(i)))
		if v.Blocked(pos) {
			break
		}
		yaw := dirIn.Angle() + float64(i%5-2)*0.15
		p, err := world.Capture(camera.Pose{Pos: pos, Yaw: yaw}, in, camera.CaptureOptions{}, rng)
		if err != nil {
			return nil, fmt.Errorf("core: geo-calibration photo %d: %w", i, err)
		}
		photos = append(photos, p)
	}
	return photos, nil
}
