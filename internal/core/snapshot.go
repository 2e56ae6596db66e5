package core

import (
	"encoding/gob"
	"fmt"
	"io"

	"snaptask/internal/camera"
	"snaptask/internal/sfm"
	"snaptask/internal/taskgen"
	"snaptask/internal/venue"
)

// systemSnapshot is the gob-serialised backend state — the paper's "model
// and maps are stored in a database for further iterations". Maps are
// recomputed from the model on load rather than stored.
type systemSnapshot struct {
	Config                Config
	Model                 sfm.Snapshot
	Generator             taskgen.Snapshot
	Pending               []taskgen.Task
	Covered               bool
	NextArtID             uint64
	PhotoTasksIssued      int
	AnnotationTasksIssued int
	PhotosProcessed       int
}

// WriteSnapshot serialises the backend state. The venue and world are not
// stored: they describe the physical environment and are reconstructed by
// the caller (in the simulation, from the world seed).
func (s *System) WriteSnapshot(w io.Writer) error {
	snap := systemSnapshot{
		Config:                s.cfg,
		Model:                 s.model.Snapshot(),
		Generator:             s.gen.Snapshot(),
		Pending:               append([]taskgen.Task(nil), s.pending...),
		Covered:               s.covered,
		NextArtID:             s.nextArtID,
		PhotoTasksIssued:      s.photoTasksIssued,
		AnnotationTasksIssued: s.annotationTasksIssued,
		PhotosProcessed:       s.photosProcessed,
	}
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("core: encode snapshot: %w", err)
	}
	return nil
}

// LoadSystem restores a backend from a snapshot, rebinding it to the given
// venue and world (which must match the ones the snapshot was taken with)
// and recomputing the maps from the restored model.
//
// Artificial features injected by past annotation tasks live in the model
// snapshot; they are re-added to the world so future captures observe them.
func LoadSystem(r io.Reader, v *venue.Venue, world *camera.World) (*System, error) {
	if v == nil || world == nil {
		return nil, fmt.Errorf("core: nil venue or world")
	}
	var snap systemSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("core: decode snapshot: %w", err)
	}
	// Every real model holds the full world feature oracle. A snapshot that
	// decodes to none was written with a model field this build does not
	// know (gob drops it silently); restoring it would restart the campaign
	// from an empty model under a journal that says otherwise.
	if len(snap.Model.Features) == 0 {
		return nil, fmt.Errorf("core: snapshot carries no model features")
	}

	s, err := NewSystem(v, world, snap.Config)
	if err != nil {
		return nil, err
	}
	model, err := sfm.FromSnapshot(snap.Model)
	if err != nil {
		return nil, err
	}
	s.model = model
	gen, err := taskgen.FromSnapshot(snap.Generator)
	if err != nil {
		return nil, err
	}
	s.gen = gen
	s.pending = append([]taskgen.Task(nil), snap.Pending...)
	s.covered = snap.Covered
	s.nextArtID = snap.NextArtID
	s.photoTasksIssued = snap.PhotoTasksIssued
	s.annotationTasksIssued = snap.AnnotationTasksIssued
	s.photosProcessed = snap.PhotosProcessed

	// Restore artificial features into the capture world so future photos
	// see the imprinted textures.
	var artificial []venue.Feature
	for _, f := range snap.Model.Features {
		if f.Artificial {
			artificial = append(artificial, venue.Feature{ID: f.ID, Pos: f.Pos, Artificial: true})
		}
	}
	if len(artificial) > 0 {
		world.AddFeatures(artificial)
	}

	if err := s.rebuildMaps(); err != nil {
		return nil, err
	}
	return s, nil
}
