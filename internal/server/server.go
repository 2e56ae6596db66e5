// Package server exposes the SnapTask backend over HTTP: the mobile client
// requests tasks, uploads photo batches, submits annotations and downloads
// the current maps — the paper's Figure 2 split between mobile client,
// online annotation tool and backend server.
//
// The handler is split into a model-owner path and a read path. Mutations
// (POST /v1/photos, POST /v1/annotations, the task pop behind
// POST /v1/task/claim, and GET /v1/snapshot state export) are applied one
// at a time under the owner mutex, so the model sees one linear history —
// the paper's backend likewise processes one uploaded batch at a time.
// After every mutation the owner publishes an immutable ReadSnapshot
// (rendered map, status counters, locate feature index) through an atomic
// pointer; GET /v1/map, /v1/map.pgm, /v1/status and POST /v1/locate serve
// from whatever snapshot is current, lock-free, and never block behind an
// in-flight upload.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"snaptask/internal/annotation"
	"snaptask/internal/camera"
	"snaptask/internal/core"
	"snaptask/internal/dispatch"
	"snaptask/internal/events"
	"snaptask/internal/geom"
	"snaptask/internal/grid"
	"snaptask/internal/metrics"
	"snaptask/internal/nav"
	"snaptask/internal/pointcloud"
	"snaptask/internal/taskgen"
	"snaptask/internal/telemetry"
	"snaptask/internal/telemetry/slo"
)

// ownerLock is the owner-path mutex plus stall instrumentation: it records
// when the lock was acquired so the watchdog can measure how long the
// owner path has been busy without taking the lock itself.
type ownerLock struct {
	mu    sync.Mutex
	since atomic.Int64 // unix nanos at acquisition, 0 while free
}

func (l *ownerLock) Lock() {
	l.mu.Lock()
	l.since.Store(time.Now().UnixNano())
}

func (l *ownerLock) Unlock() {
	l.since.Store(0)
	l.mu.Unlock()
}

// Busy reports how long the lock has been held continuously (0 when free).
func (l *ownerLock) Busy() time.Duration {
	since := l.since.Load()
	if since == 0 {
		return 0
	}
	return time.Duration(time.Now().UnixNano() - since)
}

// TaskDTO is the wire form of a crowdsourcing task.
type TaskDTO struct {
	ID    int     `json:"id"`
	Kind  string  `json:"kind"`
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
	SeedX float64 `json:"seedX"`
	SeedY float64 `json:"seedY"`
	// HasSeed marks SeedX/SeedY as meaningful. A discovery frontier can
	// legitimately sit at the world origin, so the zero value of the seed
	// coordinates must not double as "unset".
	HasSeed bool `json:"hasSeed"`
	// Covered is true when no task is available because the venue is
	// complete.
	Covered bool `json:"covered"`
}

// ObservationDTO is one feature observation in an uploaded photo: its
// feature ID. Fields an older client still sends (u, v, dist) are ignored.
type ObservationDTO struct {
	FeatureID uint64 `json:"featureId"`
}

// PhotoDTO is the wire form of one captured photo. Intrinsics mirror the
// EXIF metadata the paper's backend reads from uploads.
type PhotoDTO struct {
	PoseX     float64          `json:"poseX"`
	PoseY     float64          `json:"poseY"`
	Yaw       float64          `json:"yaw"`
	HFOV      float64          `json:"hfov"`
	VFOV      float64          `json:"vfov"`
	Range     float64          `json:"range"`
	MinRange  float64          `json:"minRange"`
	EyeHeight float64          `json:"eyeHeight"`
	Sharpness float64          `json:"sharpness"`
	Obs       []ObservationDTO `json:"obs"`
}

// UploadRequest is a photo batch upload for a photo task.
type UploadRequest struct {
	TaskID    int     `json:"taskId"`
	Bootstrap bool    `json:"bootstrap"`
	LocX      float64 `json:"locX"`
	LocY      float64 `json:"locY"`
	SeedX     float64 `json:"seedX"`
	SeedY     float64 `json:"seedY"`
	// HasSeed marks SeedX/SeedY as meaningful; without it the backend
	// aims the task loop at the task location instead.
	HasSeed bool       `json:"hasSeed"`
	Photos  []PhotoDTO `json:"photos"`
	// WorkerID and LeaseID validate the upload against the dispatch lease
	// granted by POST /v1/task/claim. Empty for unleased uploads.
	WorkerID string `json:"workerId,omitempty"`
	LeaseID  string `json:"leaseId,omitempty"`
}

// UploadResponse reports the batch outcome.
type UploadResponse struct {
	Registered    int  `json:"registered"`
	Rejected      int  `json:"rejected"`
	Unregistered  int  `json:"unregistered"`
	NewPoints     int  `json:"newPoints"`
	CoverageCells int  `json:"coverageCells"`
	VenueCovered  bool `json:"venueCovered"`
	// Duplicate is true when the lease had already completed: the upload
	// was acknowledged idempotently without reprocessing the batch.
	Duplicate bool `json:"duplicate,omitempty"`
}

// AnnotationDTO is one worker's corner marks on one photo.
type AnnotationDTO struct {
	WorkerID int           `json:"workerId"`
	PhotoIdx int           `json:"photoIdx"`
	Corners  [4][2]float64 `json:"corners"`
}

// AnnotateRequest submits an annotation task's photos plus the online
// workers' marks.
type AnnotateRequest struct {
	TaskID int     `json:"taskId"`
	LocX   float64 `json:"locX"`
	LocY   float64 `json:"locY"`
	SeedX  float64 `json:"seedX"`
	SeedY  float64 `json:"seedY"`
	// HasSeed marks SeedX/SeedY as meaningful (see UploadRequest).
	HasSeed bool            `json:"hasSeed"`
	Photos  []PhotoDTO      `json:"photos"`
	Marks   []AnnotationDTO `json:"marks"`
	// WorkerID and LeaseID validate against the dispatch lease (see
	// UploadRequest).
	WorkerID string `json:"workerId,omitempty"`
	LeaseID  string `json:"leaseId,omitempty"`
}

// AnnotateResponse reports the reconstruction outcome.
type AnnotateResponse struct {
	Identified    int  `json:"identified"`
	Reconstructed int  `json:"reconstructed"`
	CoverageCells int  `json:"coverageCells"`
	VenueCovered  bool `json:"venueCovered"`
	// Duplicate mirrors UploadResponse: idempotent re-upload of a
	// completed lease.
	Duplicate bool `json:"duplicate,omitempty"`
}

// MapResponse carries the current 2D map for the client's floor-plan view.
type MapResponse struct {
	Width   int     `json:"width"`
	Height  int     `json:"height"`
	Res     float64 `json:"res"`
	OriginX float64 `json:"originX"`
	OriginY float64 `json:"originY"`
	// Rows encodes each row as a string: '#' obstacle, '.' visible,
	// '_' unknown.
	Rows []string `json:"rows"`
}

// LocateRequest asks the backend to localise a photo against the current
// model — the positioning service of the paper's Section III ("serving
// localization queries").
type LocateRequest struct {
	Photo PhotoDTO `json:"photo"`
}

// LocateResponse returns the estimated position.
type LocateResponse struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
	// Matched is the number of photo features found in the model.
	Matched int `json:"matched"`
}

// StatusResponse summarises backend state.
type StatusResponse struct {
	Venue           string `json:"venue"`
	Views           int    `json:"views"`
	Points          int    `json:"points"`
	PhotosProcessed int    `json:"photosProcessed"`
	PhotoTasks      int    `json:"photoTasks"`
	AnnotationTasks int    `json:"annotationTasks"`
	Covered         bool   `json:"covered"`
	PendingTasks    int    `json:"pendingTasks"`
	// Lifecycle carries the per-lifecycle campaign counts folded from the
	// event stream. They are sourced from the same fold the journal
	// replays, so status is identical before and after a restart.
	Lifecycle events.Counters `json:"lifecycle"`
	// Dispatch carries the task-dispatch section: registry size, active
	// leases, expiry/requeue totals and per-worker counters. Like
	// Lifecycle, it is journal-restorable, so it too survives restarts
	// byte-identically.
	Dispatch *dispatch.Status `json:"dispatch,omitempty"`
}

// ReadSnapshot is the immutable state the read endpoints serve from. The
// model owner builds a fresh one after every mutation and publishes it
// atomically; once published it is never written again, so any number of
// readers can use it concurrently without locks. Readers may see a snapshot
// that is one mutation old, never a torn one.
type ReadSnapshot struct {
	// Map is the rendered floor-plan response served by GET /v1/map.
	Map MapResponse
	// Status is the response served by GET /v1/status.
	Status StatusResponse
	// Obstacles and Visibility are the system's maps behind Map, shared
	// rather than copied, kept for PGM rendering: the system replaces its
	// maps on every rebuild and never writes a map it has published (see
	// core.System.Maps), and readers must not mutate them either.
	Obstacles  *grid.Map
	Visibility *grid.Map
	// Features is the locate index: the feature IDs present in the
	// model's triangulated cloud.
	Features map[uint64]bool
}

// Server wraps a core.System behind an http.Handler: a model-owner path
// that serialises mutations, plus lock-free read endpoints served from the
// latest published ReadSnapshot.
type Server struct {
	mu   ownerLock // owner path: serialises all model mutations
	sys  *core.System
	rng  *rand.Rand
	mux  *http.ServeMux
	snap atomic.Pointer[ReadSnapshot]

	// Localisation is stochastic but read-only on the model; each request
	// derives a private rng deterministically from this salt and the
	// request content, so the locate path holds no lock at all (and the
	// same query always returns the same estimate).
	locateSalt uint64

	// Observability: WithTelemetry's bundle, resolved by New (a missing
	// logger discards, a missing registry or tracer no-ops).
	tel   *telemetry.Telemetry
	snapM *telemetry.SnapshotMetrics
	locM  *telemetry.LocateMetrics
	// SLO tracker and runtime watchdog (nil unless WithWatchdog; its
	// methods are nil-safe). The tracker observes every request through
	// the HTTP middleware and serves GET /v1/slo; burn transitions are
	// emitted onto the event bus and a fast burn triggers watchdog
	// profile capture.
	sloT *slo.Tracker
	wd   *telemetry.Watchdog

	// Task dispatch, so the worker/claim endpoints are always live.
	disp  *dispatch.Dispatcher
	dispM *telemetry.DispatchMetrics

	// Admission control: bounded owner-path queue, per-worker rate
	// limiting, body caps and write deadlines.
	adm *admission

	// Campaign event log. replaying is set while New folds a pre-existing
	// journal into the campaign aggregate; /readyz reports not-ready until
	// it clears.
	evlog     *events.Log
	replaying atomic.Bool
}

// The event stream's keep-alive interval and per-subscriber buffer: a
// subscriber that falls sseBuf events behind is evicted.
const (
	sseHeartbeat = 15 * time.Second
	sseBuf       = 256
)

// Option supplies a server dependency or setting in place of a default.
// Only WithTelemetry adds a feature (GET /metrics, traces, access logs);
// no option turns one off.
type Option func(*Server)

// WithTelemetry wires the observability bundle into the server: every
// route gains request-ID assignment, per-route metrics and access logging,
// GET /metrics serves the registry's exposition, snapshot publications are
// counted, and upload request IDs propagate into the system's batch traces.
func WithTelemetry(tel *telemetry.Telemetry) Option {
	return func(s *Server) { s.tel = tel }
}

// WithEvents supplies the campaign event log, in place of the default
// store-less one (live events and progress, no durability). The system
// emits lifecycle events to it, New replays any pre-existing journal to
// restore campaign counters and progress history (with /readyz reporting
// not-ready until the fold completes), GET /v1/events streams the live
// feed over SSE and GET /v1/progress serves the derived time series.
func WithEvents(log *events.Log) Option {
	return func(s *Server) { s.evlog = log }
}

// WithDispatch replaces the default task dispatcher — used to configure the
// lease TTL, an incentive budget, or (in tests) an injected clock.
func WithDispatch(d *dispatch.Dispatcher) Option {
	return func(s *Server) { s.disp = d }
}

// WithSLO supplies the SLO tracker, in place of the default one over the
// telemetry registry — tests inject a tracker with a fake clock. The HTTP
// middleware feeds it every upload/locate/claim request, GET /v1/slo
// serves its evaluated report, and burn-rate transitions are emitted as
// slo_burn events on the event bus.
func WithSLO(t *slo.Tracker) Option {
	return func(s *Server) { s.sloT = t }
}

// WithAdmission sets the admission bounds (the default is the zero
// config, which admits everything): the owner path gets a bounded queue
// (excess sheds with 429 + Retry-After), workers get token-bucket rate
// limits, request bodies are capped and responses carry write deadlines.
// Every rejection shows up in snaptask_requests_shed_total{cause}, as an
// error-retained trace, and as a coalesced load_shed event on the bus.
func WithAdmission(cfg AdmissionConfig) Option {
	return func(s *Server) { s.adm.cfg = cfg }
}

// WithWatchdog wires a runtime watchdog into the server: New points its
// owner-path probe at the owner lock and hangs the SLO evaluator on its
// tick, and a fast SLO burn triggers profile capture. The caller still
// owns Start/Stop.
func WithWatchdog(wd *telemetry.Watchdog) Option {
	return func(s *Server) { s.wd = wd }
}

// New returns a server for the given system. The rng drives all stochastic
// backend steps and is owned by the server afterwards. Options replace
// defaults; with none the server runs over a store-less event log, a
// fresh dispatcher, an SLO tracker and admission that admits everything.
func New(sys *core.System, rng *rand.Rand, opts ...Option) (*Server, error) {
	if sys == nil || rng == nil {
		return nil, fmt.Errorf("server: nil system or rng")
	}
	s := &Server{sys: sys, rng: rng, mux: http.NewServeMux(), adm: new(admission)}
	for _, opt := range opts {
		opt(s)
	}
	if s.evlog == nil {
		s.evlog = events.NewLog(nil)
	}
	if s.disp == nil {
		s.disp = dispatch.New(dispatch.Config{})
	}
	tel := s.tel.Resolve()
	s.tel = &tel
	reg := tel.Registry
	s.snapM = telemetry.NewSnapshotMetrics(reg)
	s.locM = telemetry.NewLocateMetrics(reg)
	s.dispM = telemetry.NewDispatchMetrics(reg)
	s.disp.SetMetrics(s.dispM)
	if s.sloT == nil {
		s.sloT = slo.New(reg)
	}
	httpI := telemetry.NewHTTP(telemetry.NewHTTPMetrics(reg), tel.Logger, s.sloT)
	s.wd.SetOwnerBusy(s.OwnerBusy)
	s.wd.AddHook(func() { s.sloT.Evaluate() })
	s.sloT.OnTransition(s.onSLOTransition)
	s.disp.AttachLog(s.evlog)
	// Restore the campaign aggregate and the dispatcher before the first
	// snapshot publication, so restored counters appear in the very first
	// /v1/status: each starts from the newest checkpoint's state (the
	// dispatcher's is a no-op without one), then one pass over the journal
	// tail after the checkpoint folds every event into both. Registry,
	// per-worker counters and active leases (re-armed with a fresh TTL)
	// come back, making the status dispatch section byte-identical
	// post-restart at O(tail) cost. A store-less log replays nothing. The
	// replaying flag keeps /readyz honest while the fold runs.
	if err := s.disp.RestoreState(s.evlog.CheckpointDispatch()); err != nil {
		return nil, fmt.Errorf("server: dispatch restore: %w", err)
	}
	s.replaying.Store(true)
	err := s.evlog.Replay(s.disp.Restore)
	s.replaying.Store(false)
	if err != nil {
		return nil, fmt.Errorf("server: journal replay: %w", err)
	}
	sys.SetEvents(s.evlog)
	s.adm.init(telemetry.NewAdmissionMetrics(reg), tel.Tracer, tel.Logger, s.evlog)
	s.locateSalt = uint64(rng.Int63())
	s.publishLocked()
	handle := func(pattern string, h http.HandlerFunc) {
		s.mux.Handle(pattern, httpI.Route(pattern, h))
	}
	handle("POST /v1/workers", s.handleRegisterWorker)
	handle("POST /v1/workers/{id}/heartbeat", s.handleHeartbeat)
	handle("POST /v1/task/claim", s.handleClaim)
	handle("POST /v1/photos", s.handlePhotos)
	handle("POST /v1/annotations", s.handleAnnotations)
	handle("GET /v1/map", s.handleMap)
	handle("GET /v1/map.pgm", s.handleMapPGM)
	handle("POST /v1/locate", s.handleLocate)
	handle("GET /v1/status", s.handleStatus)
	handle("GET /v1/snapshot", s.handleSnapshot)
	handle("GET /v1/events", s.handleEvents)
	handle("GET /v1/progress", s.handleProgress)
	handle("GET /v1/slo", s.sloT.Handler().ServeHTTP)
	handle("GET /healthz", s.handleHealthz)
	handle("GET /readyz", s.handleReadyz)
	// A bare server has no exposition to serve: GET /metrics stays 404.
	if reg != nil {
		handle("GET /metrics", reg.Handler().ServeHTTP)
	}
	return s, nil
}

// OwnerBusy reports how long the owner mutex has been held continuously
// (0 when free) — the watchdog's stall probe.
func (s *Server) OwnerBusy() time.Duration { return s.mu.Busy() }

// onSLOTransition handles a burn-rate edge: emit an slo_burn event onto
// the bus and, on a fast burn, capture
// profiles so the evidence of what burned the budget is on disk.
func (s *Server) onSLOTransition(tr slo.Transition) {
	s.evlog.Emit(events.Event{
		Kind:     events.KindSLOBurn,
		Endpoint: tr.Endpoint,
		Burning:  tr.Burning,
		Severity: tr.Severity,
		BurnRate: tr.BurnRate,
	})
	s.tel.Logger.Warn("slo transition",
		slog.String("endpoint", tr.Endpoint),
		slog.Bool("burning", tr.Burning),
		slog.String("severity", tr.Severity),
		slog.Float64("burn_rate", tr.BurnRate))
	if tr.Burning && tr.Severity == "fast" {
		s.wd.CaptureProfiles("slo_burn")
	}
}

// Snapshot returns the currently published read state; exposed for tests
// and instrumentation. The returned value is immutable.
func (s *Server) Snapshot() *ReadSnapshot { return s.snap.Load() }

// publishLocked rebuilds the ReadSnapshot from the system and publishes it.
// Callers must hold mu (or, in New, have exclusive access).
func (s *Server) publishLocked() {
	maps := s.sys.Maps()
	obstacles, visibility := maps.Obstacles, maps.Visibility
	origin := obstacles.Origin()

	rows := make([]string, 0, obstacles.Height())
	for j := obstacles.Height() - 1; j >= 0; j-- {
		row := make([]byte, obstacles.Width())
		for i := 0; i < obstacles.Width(); i++ {
			c := grid.Cell{I: i, J: j}
			switch {
			case obstacles.At(c) > 0:
				row[i] = '#'
			case visibility.At(c) > 0:
				row[i] = '.'
			default:
				row[i] = '_'
			}
		}
		rows = append(rows, string(row))
	}

	// Every triangulated point carries its own feature ID; outliers carry 0.
	features := make(map[uint64]bool, s.sys.NumPoints())
	s.sys.EachCloudPoint(func(p pointcloud.Point) {
		if p.FeatureID != 0 {
			features[p.FeatureID] = true
		}
	})

	photoTasks, annTasks := s.sys.TasksIssued()
	s.snap.Store(&ReadSnapshot{
		Map: MapResponse{
			Width:   obstacles.Width(),
			Height:  obstacles.Height(),
			Res:     obstacles.Res(),
			OriginX: origin.X,
			OriginY: origin.Y,
			Rows:    rows,
		},
		Status: StatusResponse{
			Venue:           s.sys.Venue().Name(),
			Views:           s.sys.NumViews(),
			Points:          s.sys.NumPoints(),
			PhotosProcessed: s.sys.PhotosProcessed(),
			PhotoTasks:      photoTasks,
			AnnotationTasks: annTasks,
			Covered:         s.sys.Covered(),
			PendingTasks:    len(s.sys.PendingTasks()),
			Lifecycle:       s.evlog.Campaign().Counters(),
			Dispatch:        s.disp.Status(),
		},
		Obstacles:  obstacles,
		Visibility: visibility,
		Features:   features,
	})
	s.snapM.Published()
}

// handleHealthz is the liveness probe: the process is up and serving.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, "ok\n")
}

// handleReadyz is the readiness probe: ready once the first ReadSnapshot
// has been published (the read endpoints would panic without one) and any
// journal replay has completed (counters would read zero mid-fold), and
// not ready while the latest checkpoint write has failed (the journal can
// no longer be compacted, and a full disk fails the next commit too).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.replaying.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = io.WriteString(w, "journal replay in progress\n")
		return
	}
	if s.evlog.CheckpointFailing() {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = io.WriteString(w, "latest checkpoint failed\n")
		return
	}
	if s.snap.Load() == nil {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = io.WriteString(w, "no snapshot published\n")
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, "ready\n")
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

var _ http.Handler = (*Server)(nil)

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// rejectDecode answers a failed request-body decode: an oversized body
// (the admission body cap) is a body_limit shed with 413, anything else a
// plain 400. It reports whether the request was shed.
func (s *Server) rejectDecode(w http.ResponseWriter, r *http.Request, endpoint string, err error) (shed bool) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		s.adm.shedBody(w, r, endpoint)
		return true
	}
	writeError(w, http.StatusBadRequest, fmt.Errorf("decode: %w", err))
	return false
}

// taskToDTO converts a task to its wire form. The generator's zero-valued
// seed means "aim at the task location"; the wire form carries that
// explicitly so a real frontier at the origin survives the round trip.
func taskToDTO(task taskgen.Task) TaskDTO {
	return TaskDTO{
		ID:      task.ID,
		Kind:    task.Kind.String(),
		X:       task.Location.X,
		Y:       task.Location.Y,
		SeedX:   task.Seed.X,
		SeedY:   task.Seed.Y,
		HasSeed: task.Seed != (geom.Vec2{}),
	}
}

func photoFromDTO(d PhotoDTO) camera.Photo {
	p := camera.Photo{
		Pose: camera.Pose{Pos: geom.V2(d.PoseX, d.PoseY), Yaw: d.Yaw},
		Intrinsics: camera.Intrinsics{
			HFOV: d.HFOV, VFOV: d.VFOV, Range: d.Range,
			MinRange: d.MinRange, EyeHeight: d.EyeHeight,
		},
		Sharpness: d.Sharpness,
	}
	for _, o := range d.Obs {
		p.Obs = append(p.Obs, camera.Observation{FeatureID: o.FeatureID})
	}
	return p
}

// PhotoToDTO converts a photo to its wire form; exported for the client.
func PhotoToDTO(p camera.Photo) PhotoDTO {
	d := PhotoDTO{
		PoseX: p.Pose.Pos.X, PoseY: p.Pose.Pos.Y, Yaw: p.Pose.Yaw,
		HFOV: p.Intrinsics.HFOV, VFOV: p.Intrinsics.VFOV,
		Range: p.Intrinsics.Range, MinRange: p.Intrinsics.MinRange,
		EyeHeight: p.Intrinsics.EyeHeight,
		Sharpness: p.Sharpness,
	}
	for _, o := range p.Obs {
		d.Obs = append(d.Obs, ObservationDTO{FeatureID: o.FeatureID})
	}
	return d
}

func (s *Server) handlePhotos(w http.ResponseWriter, r *http.Request) {
	s.adm.limitBody(w, r)
	var req UploadRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.rejectDecode(w, r, "upload", err)
		return
	}
	if len(req.Photos) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("empty batch"))
		return
	}
	photos := make([]camera.Photo, len(req.Photos))
	for i, d := range req.Photos {
		photos[i] = photoFromDTO(d)
	}

	release, ok := s.ownerAdmit(w, r, "upload", req.WorkerID)
	if !ok {
		return
	}
	defer release()
	leased, dup, err := s.beginLeasedUpload(req.WorkerID, req.LeaseID)
	if err != nil {
		writeError(w, leaseErrorStatus(err), err)
		return
	}
	if dup {
		writeJSON(w, http.StatusOK, UploadResponse{Duplicate: true})
		return
	}
	s.sys.SetRequestID(telemetry.RequestID(r.Context()))
	s.sys.SetTraceContext(telemetry.TraceContextFromContext(r.Context()))
	defer s.sys.SetRequestID("")
	defer s.sys.SetTraceContext(telemetry.TraceContext{})
	if leased {
		s.sys.SetWorker(req.WorkerID, req.LeaseID)
		defer s.sys.SetWorker("", "")
	}
	var out core.BatchOutcome
	if req.Bootstrap {
		out, err = s.sys.ProcessBootstrap(photos, s.rng)
	} else {
		// An unleased upload names its task by the ID its task_issued event
		// published and removes it from the queue (a claimed task is
		// already out; TakeTask then no-ops).
		s.sys.TakeTask(req.TaskID)
		seed := uploadSeed(req.HasSeed, req.SeedX, req.SeedY, req.LocX, req.LocY)
		out, err = s.sys.ProcessPhotoBatch(geom.V2(req.LocX, req.LocY), seed, photos, s.rng)
	}
	if leased {
		s.disp.FinishUpload(req.WorkerID, req.LeaseID, err == nil)
	}
	if s.batchFailed(w, err) {
		return
	}
	if leased && out.RetriedForBlur && len(out.TasksIssued) > 0 {
		s.disp.NoteBlur(req.WorkerID, out.TasksIssued[0].ID)
	}
	s.publishLocked()
	s.maybeCheckpointLocked()
	writeJSON(w, http.StatusOK, UploadResponse{
		Registered:    len(out.Batch.Registered),
		Rejected:      len(out.Batch.RejectedBlurry),
		Unregistered:  len(out.Batch.Unregistered),
		NewPoints:     out.Batch.NewPoints,
		CoverageCells: out.CoverageCells,
		VenueCovered:  out.VenueCovered,
	})
}

// batchFailed answers an owner-path batch error and reports whether there
// was one. A rejected input is 422. A failed journal commit is 500: the
// model kept the batch, so the read snapshot is republished to match it,
// but the upload is not acknowledged because its events are not durable.
func (s *Server) batchFailed(w http.ResponseWriter, err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, core.ErrJournalCommit):
		s.publishLocked()
		writeError(w, http.StatusInternalServerError, err)
	default:
		writeError(w, http.StatusUnprocessableEntity, err)
	}
	return true
}

// beginLeasedUpload validates an upload's lease fields. leased reports
// whether the upload runs under a lease (both fields present); dup marks an
// idempotent re-upload of a completed lease. Uploads naming only one of
// worker/lease are rejected outright.
func (s *Server) beginLeasedUpload(workerID, leaseID string) (leased, dup bool, err error) {
	if workerID == "" && leaseID == "" {
		return false, false, nil
	}
	if workerID == "" || leaseID == "" {
		return false, false, fmt.Errorf("workerId and leaseId must be presented together")
	}
	dup, err = s.disp.BeginUpload(workerID, leaseID)
	if err != nil {
		return false, false, err
	}
	return true, dup, nil
}

// leaseErrorStatus maps dispatch sentinels onto HTTP statuses: a foreign
// lease conflicts (409), an expired lease is gone (410), an unknown lease
// was never granted (404).
func leaseErrorStatus(err error) int {
	switch {
	case errors.Is(err, dispatch.ErrForeignLease):
		return http.StatusConflict
	case errors.Is(err, dispatch.ErrLeaseExpired):
		return http.StatusGone
	case errors.Is(err, dispatch.ErrUnknownLease), errors.Is(err, dispatch.ErrUnknownWorker):
		return http.StatusNotFound
	default:
		return http.StatusBadRequest
	}
}

func (s *Server) handleAnnotations(w http.ResponseWriter, r *http.Request) {
	s.adm.limitBody(w, r)
	var req AnnotateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.rejectDecode(w, r, "upload", err)
		return
	}
	if len(req.Photos) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("annotation without photos"))
		return
	}
	task := annotation.Task{Location: geom.V2(req.LocX, req.LocY)}
	for _, d := range req.Photos {
		task.Photos = append(task.Photos, photoFromDTO(d))
	}
	var anns []annotation.Annotation
	for _, m := range req.Marks {
		a := annotation.Annotation{WorkerID: m.WorkerID, PhotoIdx: m.PhotoIdx}
		for i, c := range m.Corners {
			a.Corners[i] = geom.V2(c[0], c[1])
		}
		anns = append(anns, a)
	}

	release, ok := s.ownerAdmit(w, r, "upload", req.WorkerID)
	if !ok {
		return
	}
	defer release()
	leased, dup, err := s.beginLeasedUpload(req.WorkerID, req.LeaseID)
	if err != nil {
		writeError(w, leaseErrorStatus(err), err)
		return
	}
	if dup {
		writeJSON(w, http.StatusOK, AnnotateResponse{Duplicate: true})
		return
	}
	s.sys.SetRequestID(telemetry.RequestID(r.Context()))
	s.sys.SetTraceContext(telemetry.TraceContextFromContext(r.Context()))
	defer s.sys.SetRequestID("")
	defer s.sys.SetTraceContext(telemetry.TraceContext{})
	if leased {
		s.sys.SetWorker(req.WorkerID, req.LeaseID)
		defer s.sys.SetWorker("", "")
	}
	s.sys.TakeTask(req.TaskID)
	seed := uploadSeed(req.HasSeed, req.SeedX, req.SeedY, req.LocX, req.LocY)
	out, err := s.sys.ProcessAnnotation(task, seed, anns, s.rng)
	if leased {
		s.disp.FinishUpload(req.WorkerID, req.LeaseID, err == nil)
	}
	if s.batchFailed(w, err) {
		return
	}
	if leased && out.RetriedForBlur && len(out.TasksIssued) > 0 {
		s.disp.NoteBlur(req.WorkerID, out.TasksIssued[0].ID)
	}
	s.publishLocked()
	s.maybeCheckpointLocked()
	writeJSON(w, http.StatusOK, AnnotateResponse{
		Identified:    out.Recon.Identified,
		Reconstructed: out.Recon.Reconstructed,
		CoverageCells: out.CoverageCells,
		VenueCovered:  out.VenueCovered,
	})
}

func (s *Server) handleMap(w http.ResponseWriter, r *http.Request) {
	s.adm.armWriteDeadline(w)
	writeJSON(w, http.StatusOK, s.snap.Load().Map)
}

// handleMapPGM serves the current map as a PGM image, viewable directly in
// any image tool.
func (s *Server) handleMapPGM(w http.ResponseWriter, r *http.Request) {
	s.adm.armWriteDeadline(w)
	snap := s.snap.Load()
	img, err := metrics.WritePGM(snap.Obstacles, snap.Visibility, nil)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "image/x-portable-graymap")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(img)
}

func (s *Server) handleLocate(w http.ResponseWriter, r *http.Request) {
	if !s.rateAdmit(w, r, "locate", "") {
		return
	}
	s.adm.limitBody(w, r)
	start := time.Now()
	tr := s.tel.Tracer.StartRequest("locate", telemetry.RequestID(r.Context()),
		telemetry.TraceContextFromContext(r.Context()))
	result := "ok"
	defer func() {
		s.locM.Duration.With(result).Observe(time.Since(start).Seconds())
		tr.Finish()
	}()

	sp := tr.Span("locate.decode")
	var req LocateRequest
	err := json.NewDecoder(r.Body).Decode(&req)
	sp.End()
	if err != nil {
		result = "bad_request"
		tr.SetError(err)
		s.rejectDecode(w, r, "locate", err)
		return
	}
	photo := photoFromDTO(req.Photo)

	// The feature index is precomputed in the snapshot, so localisation
	// runs off the owner path and never queues behind an upload.
	sp = tr.Span("locate.match")
	modelFeatures := s.snap.Load().Features
	matched := 0
	for _, o := range photo.Obs {
		if modelFeatures[o.FeatureID] {
			matched++
		}
	}
	sp.End()
	tr.SetCount("matched", matched)
	s.locM.Matched.Observe(float64(matched))

	sp = tr.Span("locate.localize")
	pos, err := nav.Localize(photo, modelFeatures, photo.Pose.Pos, s.locateRand(photo))
	sp.End()
	if err != nil {
		result = "unlocalized"
		tr.SetError(err)
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusOK, LocateResponse{X: pos.X, Y: pos.Y, Matched: matched})
}

// locateRand derives a locate request's private rng: a splitmix-style hash
// of the server salt, the claimed pose and the observed feature IDs. The
// result is deterministic per request content — repeating a query returns
// the same estimate, as a real localiser's systematic error would — and
// needs no shared state, so concurrent locates never contend.
func (s *Server) locateRand(photo camera.Photo) *rand.Rand {
	h := s.locateSalt
	mix := func(v uint64) {
		h ^= v
		h ^= h >> 30
		h *= 0xBF58476D1CE4E5B9
		h ^= h >> 27
		h *= 0x94D049BB133111EB
		h ^= h >> 31
	}
	mix(math.Float64bits(photo.Pose.Pos.X))
	mix(math.Float64bits(photo.Pose.Pos.Y))
	mix(math.Float64bits(photo.Pose.Yaw))
	for _, o := range photo.Obs {
		mix(o.FeatureID)
	}
	return rand.New(rand.NewSource(int64(h >> 1)))
}

// handleSnapshot streams the backend's serialised state — the paper's
// model-and-maps database record — so a new server can resume the session.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	release, ok := s.ownerAdmit(w, r, "snapshot", "")
	if !ok {
		return
	}
	defer release()
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := s.sys.WriteSnapshot(w); err != nil {
		// Headers are already sent; the truncated stream will fail to
		// decode on the client, which is the correct failure mode.
		return
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.adm.armWriteDeadline(w)
	writeJSON(w, http.StatusOK, s.snap.Load().Status)
}

// uploadSeed resolves an upload's task seed: the explicit seed when the
// client marked one, the task location otherwise. The flag — not a
// zero-coordinate check — decides, so a discovery frontier at (0,0) is a
// valid seed.
func uploadSeed(hasSeed bool, seedX, seedY, locX, locY float64) geom.Vec2 {
	if hasSeed {
		return geom.V2(seedX, seedY)
	}
	return geom.V2(locX, locY)
}

// CheckpointState writes an event-log checkpoint and then calls saveModel
// with the log's last sequence number — both under one owner-lock
// acquisition, so a model saved by the callback describes the same cut of
// campaign history as the checkpoint. Every model mutation emits an
// event, so a callback that sees the seq it last saved at may skip the
// write. The campaign manager persists each campaign this way at shutdown;
// tests of a journal without a model file pass a nil saveModel.
func (s *Server) CheckpointState(saveModel func(seq uint64) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkpointLocked(); err != nil || saveModel == nil {
		return err
	}
	return saveModel(s.evlog.LastSeq())
}

// checkpointLocked captures one consistent cut of (event seq, campaign
// aggregate, dispatch state) and persists it. The lock order is the claim
// path's: the caller holds the owner lock (freezing core emitters), the
// dispatcher serialises itself under its own lock and, still holding it,
// hands the state to the log — so no event can interleave between the
// dispatch capture and the checkpoint's seq.
func (s *Server) checkpointLocked() error {
	return s.disp.Checkpoint(func(state json.RawMessage) error {
		return s.evlog.WriteCheckpoint(state)
	})
}

// maybeCheckpointLocked runs on the owner path after mutations: when the
// log's checkpoint policy says one is due, write it. A failure does not
// fail the mutation — the journal tail is still durable, a failed
// checkpoint only costs restart time, not correctness — but the log counts
// it in snaptask_events_checkpoint_failures_total and /readyz answers 503
// until a later checkpoint succeeds.
func (s *Server) maybeCheckpointLocked() {
	if !s.evlog.CheckpointDue() {
		return
	}
	if err := s.checkpointLocked(); err != nil {
		s.tel.Logger.Error("checkpoint failed", "err", err)
	}
}

// TaskKindFromString parses a wire task kind.
func TaskKindFromString(s string) (taskgen.Kind, error) {
	switch s {
	case "photo":
		return taskgen.KindPhoto, nil
	case "annotation":
		return taskgen.KindAnnotation, nil
	default:
		return 0, fmt.Errorf("server: unknown task kind %q", s)
	}
}
