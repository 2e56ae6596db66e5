// Group ingest: fold several workers' upload batches in one owner-path
// operation. The batches register into the model in order, then the
// expensive SOR + map-rebuild stage runs once for the whole group instead
// of once per upload — the throughput shape a campaign with many
// simultaneous workers needs.
//
// Documented deviation from the strict per-upload Algorithm 1 loop: the
// coverage-growth check and the task-generation step run once per group
// (with aggregate inputs), not once per batch. Per-batch accepted/rejected
// events are still emitted individually so the journal stays per-upload.
package core

import (
	"fmt"
	"math/rand"

	"snaptask/internal/camera"
	"snaptask/internal/geom"
	"snaptask/internal/sfm"
	"snaptask/internal/taskgen"
)

// UploadBatch is one task's photo upload inside a grouped ingest call.
type UploadBatch struct {
	// TaskLoc is the completed task's location; TaskSeed its
	// discovery-frontier point (use TaskLoc when unknown).
	TaskLoc  geom.Vec2
	TaskSeed geom.Vec2
	Photos   []camera.Photo
}

// GroupOutcome reports one processed upload group.
type GroupOutcome struct {
	// Batches holds the per-upload registration results, in input order.
	Batches           []sfm.BatchResult
	CoverageCells     int
	CoverageIncreased bool
	TasksIssued       []taskgen.Task
	VenueCovered      bool
}

// ProcessPhotoBatchGroup ingests a group of completed-task uploads as one
// owner-path operation: every batch registers in input order, then one SOR
// + map rebuild and one task-generation step cover the whole group.
func (s *System) ProcessPhotoBatchGroup(batches []UploadBatch, rng *rand.Rand) (outcome GroupOutcome, retErr error) {
	if len(batches) == 0 {
		return GroupOutcome{}, fmt.Errorf("core: empty photo batch group")
	}
	for i, b := range batches {
		if len(b.Photos) == 0 {
			return GroupOutcome{}, fmt.Errorf("core: empty photo batch %d in group", i)
		}
	}
	tr := s.beginBatch("photo_group")
	defer func() { retErr = s.endBatch(tr, "photo_group", retErr) }()
	before := s.progressCells()

	results := make([]sfm.BatchResult, 0, len(batches))
	for _, b := range batches {
		res, err := s.model.RegisterBatch(b.Photos, rng)
		if err != nil {
			return GroupOutcome{}, fmt.Errorf("core: register group: %w", err)
		}
		results = append(results, res)
	}

	var allPhotos []camera.Photo
	registered, blurry, unregistered := 0, 0, 0
	for i, r := range results {
		allPhotos = append(allPhotos, batches[i].Photos...)
		registered += len(r.Registered)
		blurry += len(r.RejectedBlurry)
		unregistered += len(r.Unregistered)
	}
	s.photosProcessed += len(allPhotos)
	tr.SetCount("batches", len(batches))
	tr.SetCount("photos", len(allPhotos))
	tr.SetCount("registered", registered)
	tr.SetCount("blurry", blurry)
	tr.SetCount("unregistered", unregistered)
	if s.ingestM != nil {
		s.ingestM.PhotosProcessed.Add(uint64(len(allPhotos)))
		s.ingestM.BlurryRejected.Add(uint64(blurry))
		s.ingestM.Unregistered.Add(uint64(unregistered))
		s.observeSharpness(allPhotos)
	}

	if err := s.rebuildMaps(); err != nil {
		return GroupOutcome{}, err
	}
	after := s.progressCells()
	grew := after >= before+s.growthThreshold(before)
	for i, r := range results {
		s.emitBatchEvent("photo_batch", r, batches[i].Photos, grew)
	}
	s.emitCoverageDelta()

	last := batches[len(batches)-1]
	out, err := s.step(taskgen.StepInput{
		BatchRegistered:   registered > 0,
		CoverageIncreased: grew,
		BatchSharpness:    medianSharpness(allPhotos),
		TaskLocation:      last.TaskLoc,
		TaskSeed:          last.TaskSeed,
	})
	if err != nil {
		return GroupOutcome{}, err
	}
	return GroupOutcome{
		Batches:           results,
		CoverageCells:     after,
		CoverageIncreased: grew,
		TasksIssued:       out.Tasks,
		VenueCovered:      out.VenueCovered,
	}, nil
}
