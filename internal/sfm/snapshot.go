package sfm

import (
	"fmt"
	"slices"

	"snaptask/internal/geom"
	"snaptask/internal/pointcloud"
)

// FeatureEntry is one world-feature oracle record in a snapshot.
type FeatureEntry struct {
	ID         uint64
	Pos        geom.Vec3
	Artificial bool
}

// Snapshot is the serialisable state of a Model — what the paper's backend
// "stores in a database for further iterations". All fields are exported
// for encoding/gob.
type Snapshot struct {
	Cfg         Config
	Views       []View
	TrackIDs    []uint64
	TrackViews  [][]int
	Points      []pointcloud.Point
	Order       []uint64
	Outliers    []pointcloud.Point
	NextPhotoID int
	Features    []FeatureEntry
}

// Snapshot captures the model's complete state.
func (m *Model) Snapshot() Snapshot {
	s := Snapshot{
		Cfg:         m.cfg,
		Views:       append([]View(nil), m.views...),
		Order:       make([]uint64, len(m.pts)),
		Points:      append([]pointcloud.Point(nil), m.pts...),
		Outliers:    append([]pointcloud.Point(nil), m.outliers...),
		NextPhotoID: m.nextPhotoID,
	}
	for i, p := range m.pts {
		s.Order[i] = p.FeatureID
	}
	// Maps are serialised in sorted-ID order so the same model state always
	// encodes to the same bytes (snapshot files are diffable/hashable).
	trackIDs := make([]uint64, 0, len(m.tracks))
	for id := range m.tracks {
		trackIDs = append(trackIDs, id)
	}
	slices.Sort(trackIDs)
	for _, id := range trackIDs {
		s.TrackIDs = append(s.TrackIDs, id)
		s.TrackViews = append(s.TrackViews, append([]int(nil), m.tracks[id]...))
	}
	featIDs := make([]uint64, 0, len(m.featPos))
	for id := range m.featPos {
		featIDs = append(featIDs, id)
	}
	slices.Sort(featIDs)
	for _, id := range featIDs {
		info := m.featPos[id]
		s.Features = append(s.Features, FeatureEntry{ID: id, Pos: info.pos, Artificial: info.artificial})
	}
	return s
}

// FromSnapshot reconstructs a model from a snapshot.
func FromSnapshot(s Snapshot) (*Model, error) {
	if len(s.TrackIDs) != len(s.TrackViews) {
		return nil, fmt.Errorf("sfm: snapshot track arrays mismatch: %d vs %d",
			len(s.TrackIDs), len(s.TrackViews))
	}
	if len(s.Points) != len(s.Order) {
		return nil, fmt.Errorf("sfm: snapshot points/order mismatch: %d vs %d",
			len(s.Points), len(s.Order))
	}
	m := &Model{
		cfg:         s.Cfg.withDefaults(),
		featPos:     make(map[uint64]featureInfo, len(s.Features)),
		views:       append([]View(nil), s.Views...),
		tracks:      make(map[uint64][]int, len(s.TrackIDs)),
		pts:         append([]pointcloud.Point(nil), s.Points...),
		ptIdx:       make(map[uint64]int, len(s.Points)),
		touched:     make(map[uint64]struct{}),
		outliers:    append([]pointcloud.Point(nil), s.Outliers...),
		nextPhotoID: s.NextPhotoID,
	}
	for i, id := range s.TrackIDs {
		for _, v := range s.TrackViews[i] {
			if v < 0 || v >= len(m.views) {
				return nil, fmt.Errorf("sfm: snapshot track %d references view %d of %d", id, v, len(m.views))
			}
		}
		m.tracks[id] = append([]int(nil), s.TrackViews[i]...)
	}
	for i, id := range s.Order {
		m.ptIdx[id] = i
	}
	for _, f := range s.Features {
		m.featPos[f.ID] = featureInfo{pos: f.Pos, artificial: f.Artificial}
	}
	return m, nil
}
