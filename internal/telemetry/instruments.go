// Instrument bundles: the named metric sets the core system and the
// server register. Centralising the names and help strings here keeps the
// metric catalogue greppable in one place (and testable: the format test
// registers every bundle and validates the full exposition).
package telemetry

import (
	"sync/atomic"
	"time"
)

// IngestMetrics is the instrument set updated by the model owner after
// every processed batch and on every model snapshot write or load. All
// fields are nil-safe no-ops when the bundle is built over a nil registry.
type IngestMetrics struct {
	// Batches counts processed batches by kind (bootstrap, photo_batch,
	// annotation); failed batches carry result="error".
	Batches *CounterVec
	// PhotosProcessed counts photos accepted into batches.
	PhotosProcessed *Counter
	// BlurryRejected counts photos failing the sharpness check — each one
	// is a retry the guided loop asks of the worker.
	BlurryRejected *Counter
	// Unregistered counts sharp photos that did not match the model.
	Unregistered *Counter
	// TasksIssued counts generated tasks by kind (photo, annotation —
	// the latter are the featureless-surface tasks).
	TasksIssued *CounterVec
	// BlurVariance observes the per-photo variance-of-Laplacian sharpness
	// score, making the blur threshold (default 150) visible as a
	// distribution in /metrics.
	BlurVariance *Histogram
	// BatchRejected counts rejected batches by cause (blur,
	// registration_failure, no_coverage_growth, error).
	BatchRejected *CounterVec
	// ModelViews gauges registered views in the SfM model.
	ModelViews *Gauge
	// ModelPoints gauges triangulated cloud points (before SOR).
	ModelPoints *Gauge
	// SOROutliers gauges points removed by the last SOR pass.
	SOROutliers *Gauge
	// CoverageCells gauges the coverage map's positive cells.
	CoverageCells *Gauge
	// SnapshotWriteSeconds observes model snapshot writes: shutdown and
	// archive checkpoints and GET /v1/snapshot.
	SnapshotWriteSeconds *Histogram
	// SnapshotLoadSeconds observes the model snapshot load a restored
	// campaign started from.
	SnapshotLoadSeconds *Histogram
	// SnapshotBytes gauges the size of the latest model snapshot written
	// or loaded.
	SnapshotBytes *Gauge
	// ViewCasts counts per-view visibility ray casts by cause: new (views
	// the map builder did not hold), stale (held views recast after an
	// obstacle flip in range) and restored (restored views cast once
	// against the restored basis, so their stale cast can be subtracted).
	// A restore itself casts nothing.
	ViewCasts *CounterVec
}

// NewIngestMetrics registers the ingest instrument set on reg. With a nil
// registry the returned bundle holds nil instruments, all of which no-op.
func NewIngestMetrics(reg *Registry) *IngestMetrics {
	return &IngestMetrics{
		Batches: reg.CounterVec("snaptask_ingest_batches_total",
			"Processed upload batches.", "kind", "result"),
		PhotosProcessed: reg.Counter("snaptask_ingest_photos_total",
			"Photos accepted into processed batches."),
		BlurryRejected: reg.Counter("snaptask_ingest_blurry_rejected_total",
			"Photos rejected by the sharpness check (worker retries)."),
		Unregistered: reg.Counter("snaptask_ingest_unregistered_total",
			"Sharp photos that failed to register into the model."),
		TasksIssued: reg.CounterVec("snaptask_tasks_issued_total",
			"Tasks generated by Algorithm 1.", "kind"),
		BlurVariance: reg.Histogram("snaptask_blur_variance",
			"Per-photo variance-of-Laplacian sharpness scores.",
			BlurVarianceBuckets()),
		BatchRejected: reg.CounterVec("snaptask_ingest_batch_rejected_total",
			"Rejected upload batches by cause.", "cause"),
		ModelViews: reg.Gauge("snaptask_model_views",
			"Registered views in the SfM model."),
		ModelPoints: reg.Gauge("snaptask_model_points",
			"Triangulated 3D points in the model (before outlier removal)."),
		SOROutliers: reg.Gauge("snaptask_model_sor_outliers",
			"Points removed by the latest statistical-outlier-removal pass."),
		CoverageCells: reg.Gauge("snaptask_coverage_cells",
			"Positive cells in the coverage map."),
		SnapshotWriteSeconds: reg.Histogram("snaptask_model_snapshot_write_seconds",
			"Model snapshot write latency (checkpoint or GET /v1/snapshot).", DurationBuckets()),
		SnapshotLoadSeconds: reg.Histogram("snaptask_model_snapshot_load_seconds",
			"Model snapshot load latency of a restored campaign.", DurationBuckets()),
		SnapshotBytes: reg.Gauge("snaptask_model_snapshot_bytes",
			"Size of the latest model snapshot written or loaded."),
		ViewCasts: reg.CounterVec("snaptask_map_view_casts_total",
			"Per-view visibility ray casts by cause (new, stale, restored).", "cause"),
	}
}

// BlurVarianceBuckets is the bucket layout for sharpness scores: dense
// around the default blur threshold (150) so its neighbourhood is resolved.
func BlurVarianceBuckets() []float64 {
	return []float64{25, 50, 75, 100, 150, 200, 300, 450, 700, 1000, 1500}
}

// EventMetrics instruments the campaign event journal and its pub/sub bus.
type EventMetrics struct {
	// Appended counts events written to the journal.
	Appended *Counter
	// DroppedSubscribers counts SSE subscribers evicted for falling behind
	// (the bus never blocks the model owner).
	DroppedSubscribers *Counter
	// Subscribers gauges live event-stream subscribers.
	Subscribers *Gauge
	// FsyncSeconds observes journal fsync latency (one fsync per processed
	// batch).
	FsyncSeconds *Histogram
	// Corrupt counts integrity failures surfaced by the persistence layer:
	// unparseable mid-file journal lines and unreadable checkpoint files.
	// Non-zero means replay or SSE catch-up hit damaged history.
	Corrupt *Counter
	// Checkpoints counts checkpoints written (each one compacts covered
	// segments).
	Checkpoints *Counter
	// CheckpointSeconds observes checkpoint write latency (serialise + fsync
	// + rename + compact).
	CheckpointSeconds *Histogram
	// CheckpointFailures counts checkpoint writes that failed (tail fsync
	// or checkpoint file). /readyz answers 503 until the next one succeeds.
	CheckpointFailures *Counter
}

// NewEventMetrics registers the event-journal instrument set on reg. With a
// nil registry the bundle's instruments no-op.
func NewEventMetrics(reg *Registry) *EventMetrics {
	return &EventMetrics{
		Appended: reg.Counter("snaptask_events_appended_total",
			"Campaign events appended to the journal."),
		DroppedSubscribers: reg.Counter("snaptask_events_dropped_subscribers_total",
			"Event-stream subscribers evicted for falling behind."),
		Subscribers: reg.Gauge("snaptask_events_subscribers",
			"Live event-stream subscribers."),
		FsyncSeconds: reg.Histogram("snaptask_events_journal_fsync_seconds",
			"Journal fsync latency (one fsync per processed batch).",
			[]float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
				0.01, 0.025, 0.05, 0.1}),
		Corrupt: reg.Counter("snaptask_events_journal_corrupt_total",
			"Journal/checkpoint integrity failures detected (corrupt lines or checkpoint files)."),
		Checkpoints: reg.Counter("snaptask_events_checkpoints_total",
			"Checkpoints written (each compacts fully covered journal segments)."),
		CheckpointSeconds: reg.Histogram("snaptask_events_checkpoint_seconds",
			"Checkpoint write latency (serialise, fsync, rename, compact).",
			[]float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
				0.1, 0.25, 0.5}),
		CheckpointFailures: reg.Counter("snaptask_events_checkpoint_failures_total",
			"Checkpoint writes that failed (journal tail fsync or checkpoint file)."),
	}
}

// DispatchMetrics instruments the lease-based task dispatcher: the worker
// registry, active leases, and the expiry/requeue recovery path.
type DispatchMetrics struct {
	// Workers gauges registered workers in the dispatch registry.
	Workers *Gauge
	// ActiveLeases gauges currently held (unexpired, uncompleted) leases.
	ActiveLeases *Gauge
	// Claims counts claim attempts by result (granted, no_task, budget,
	// covered, error).
	Claims *CounterVec
	// LeaseExpiries counts leases that passed their deadline without a
	// completing upload.
	LeaseExpiries *Counter
	// TaskRequeues counts expired-lease tasks returned to the queue.
	TaskRequeues *Counter
	// ClaimSeconds observes claim-endpoint latency.
	ClaimSeconds *Histogram
}

// NewDispatchMetrics registers the dispatch instrument set on reg. With a
// nil registry the bundle's instruments no-op.
func NewDispatchMetrics(reg *Registry) *DispatchMetrics {
	return &DispatchMetrics{
		Workers: reg.Gauge("snaptask_dispatch_workers",
			"Workers in the dispatch registry."),
		ActiveLeases: reg.Gauge("snaptask_dispatch_active_leases",
			"Currently held task leases."),
		Claims: reg.CounterVec("snaptask_dispatch_claims_total",
			"Task claim attempts by result.", "result"),
		LeaseExpiries: reg.Counter("snaptask_dispatch_lease_expiries_total",
			"Leases expired after their holder stopped heartbeating."),
		TaskRequeues: reg.Counter("snaptask_dispatch_task_requeues_total",
			"Tasks requeued from expired leases."),
		ClaimSeconds: reg.Histogram("snaptask_dispatch_claim_seconds",
			"POST /v1/task/claim handling latency.", DurationBuckets()),
	}
}

// LocateMetrics instruments the localization read path — the serving
// workload PR 7 optimised, now measurable on its own rather than only
// through the generic per-route HTTP histogram.
type LocateMetrics struct {
	// Duration observes end-to-end /v1/locate handling latency by result
	// (ok, no_model, bad_request).
	Duration *HistogramVec
	// Matched observes the number of model features matched per locate.
	Matched *Histogram
}

// NewLocateMetrics registers the locate instrument set on reg. With a nil
// registry the bundle's instruments no-op.
func NewLocateMetrics(reg *Registry) *LocateMetrics {
	return &LocateMetrics{
		Duration: reg.HistogramVec("snaptask_locate_duration_seconds",
			"End-to-end localization request latency.", DurationBuckets(), "result"),
		Matched: reg.Histogram("snaptask_locate_matched_features",
			"Model features matched per localization request.",
			[]float64{0, 1, 2, 5, 10, 25, 50, 100, 250, 500}),
	}
}

// AdmissionMetrics instruments the server's admission control: the bounded
// owner-path queue, per-worker rate limiting and the shed path. Overload is
// a first-class observable state — every rejected request lands in a
// counter here (and in a trace and a load_shed event server-side).
type AdmissionMetrics struct {
	// QueueDepth gauges requests holding or waiting for the owner lock.
	QueueDepth *Gauge
	// QueueWait observes how long admitted owner-path requests waited for
	// the lock — the queueing delay component of upload latency.
	QueueWait *Histogram
	// Shed counts rejected requests by cause (queue_full, rate_limit,
	// body_limit).
	Shed *CounterVec
}

// NewAdmissionMetrics registers the admission instrument set on reg. With a
// nil registry the bundle's instruments no-op.
func NewAdmissionMetrics(reg *Registry) *AdmissionMetrics {
	return &AdmissionMetrics{
		QueueDepth: reg.Gauge("snaptask_admission_queue_depth",
			"Requests holding or waiting for the owner lock."),
		QueueWait: reg.Histogram("snaptask_admission_queue_wait_seconds",
			"Owner-lock queue wait of admitted requests.", DurationBuckets()),
		Shed: NewShedCounter(reg),
	}
}

// NewShedCounter registers the shed family alone: AdmissionMetrics.Shed,
// for a caller that rejects requests without an owner queue of its own.
func NewShedCounter(reg *Registry) *CounterVec {
	return reg.CounterVec("snaptask_requests_shed_total",
		"Requests rejected by admission control, by cause.", "cause")
}

// SnapshotMetrics instruments the server's read-snapshot publication.
type SnapshotMetrics struct {
	// Publishes counts published read snapshots.
	Publishes *Counter

	lastPublish atomic.Int64 // unix nanos of the latest publication
}

// NewSnapshotMetrics registers the snapshot instrument set on reg,
// including a staleness gauge computed at scrape time. With a nil registry
// the bundle's instruments no-op.
func NewSnapshotMetrics(reg *Registry) *SnapshotMetrics {
	m := &SnapshotMetrics{
		Publishes: reg.Counter("snaptask_snapshot_publishes_total",
			"Read-snapshot publications (one per owner-path mutation)."),
	}
	reg.GaugeFunc("snaptask_snapshot_age_seconds",
		"Seconds since the last read-snapshot publication.", m.age)
	return m
}

// Published records one snapshot publication.
func (m *SnapshotMetrics) Published() {
	if m == nil {
		return
	}
	m.Publishes.Inc()
	m.lastPublish.Store(time.Now().UnixNano())
}

// age is the staleness gauge callback.
func (m *SnapshotMetrics) age() float64 {
	last := m.lastPublish.Load()
	if last == 0 {
		return 0
	}
	return time.Since(time.Unix(0, last)).Seconds()
}

// CampaignMetrics instruments the multi-campaign manager's lifecycle; the
// scrape-time rollups are registered by RegisterCampaignRollups.
type CampaignMetrics struct {
	// Active is the number of live (non-archived) campaigns.
	Active *Gauge
	// Archived is the number of archived campaigns still listed.
	Archived *Gauge
}

// NewCampaignMetrics registers the campaign-manager instrument set on reg.
// With a nil registry the bundle's instruments no-op.
func NewCampaignMetrics(reg *Registry) *CampaignMetrics {
	return &CampaignMetrics{
		Active: reg.Gauge("snaptask_campaigns_active",
			"Live (non-archived) campaigns hosted by the manager."),
		Archived: reg.Gauge("snaptask_campaigns_archived",
			"Archived campaigns still listed by the manager."),
	}
}

// RegisterCampaignRollups registers the manager's scrape-time aggregate
// gauges: total pending tasks and covered-campaign count across every live
// campaign. Nil callbacks register the families (for the catalogue)
// without a series.
func RegisterCampaignRollups(reg *Registry, pending, covered func() float64) {
	reg.GaugeFunc("snaptask_campaigns_pending_tasks",
		"Pending tasks summed over every live campaign.", pending)
	reg.GaugeFunc("snaptask_campaigns_covered",
		"Live campaigns whose venue coverage objective is met.", covered)
}
