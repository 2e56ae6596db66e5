package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"time"

	"snaptask/internal/binenc"
	"snaptask/internal/camera"
	"snaptask/internal/taskgen"
	"snaptask/internal/venue"
)

// A model snapshot is the paper's "model and maps are stored in a database
// for further iterations". The maps are stored as the merged visibility
// counts they are read off; obstacles and per-view ray casts are
// recomputed on load. The file is
//
//	magic "SNAPTASK", version uint32
//	section meta     JSON snapshotMeta (config, taskgen state, counters)
//	section model    sfm.Model binary encoding (columns)
//	section sor      SOR split, count n, n mean and n k-th kNN distances
//	section vis      mapping.Incremental merged counts (AppendState)
//	trailer          CRC-32C of everything before it, uint32
//
// with every fixed-width value little-endian and every section prefixed by
// its uint64 length.
const (
	snapshotMagic   = "SNAPTASK"
	snapshotVersion = 4
	snapshotHeader  = len(snapshotMagic) + 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// snapshotMeta is the small, self-describing part of a snapshot.
type snapshotMeta struct {
	Config                Config
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
// the caller (in the simulation, from the world seed). The snapshot is
// encoded straight from the live model into one buffer and written with a
// single Write.
func (s *System) WriteSnapshot(w io.Writer) error {
	start := time.Now()
	b, err := s.appendSnapshot(make([]byte, 0, s.snapshotBytes+s.snapshotBytes/8))
	if err != nil {
		return err
	}
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("core: write snapshot: %w", err)
	}
	s.snapshotBytes = len(b)
	if s.ingestM != nil {
		s.ingestM.SnapshotWriteSeconds.Observe(time.Since(start).Seconds())
		s.ingestM.SnapshotBytes.Set(float64(len(b)))
	}
	return nil
}

func (s *System) appendSnapshot(b []byte) ([]byte, error) {
	meta, err := json.Marshal(snapshotMeta{
		Config:                s.cfg,
		Generator:             s.gen.Snapshot(),
		Pending:               s.pending,
		Covered:               s.covered,
		NextArtID:             s.nextArtID,
		PhotoTasksIssued:      s.photoTasksIssued,
		AnnotationTasksIssued: s.annotationTasksIssued,
		PhotosProcessed:       s.photosProcessed,
	})
	if err != nil {
		return nil, fmt.Errorf("core: encode snapshot meta: %w", err)
	}
	b = append(b, snapshotMagic...)
	b = binary.LittleEndian.AppendUint32(b, snapshotVersion)
	b = binenc.AppendU64(b, uint64(len(meta)))
	b = append(b, meta...)
	b, err = binenc.AppendSection(b, s.model.AppendBinary)
	if err != nil {
		return nil, fmt.Errorf("core: encode model: %w", err)
	}
	// The SOR and visibility sections cannot fail to encode.
	current := s.cachesCurrent()
	b, _ = binenc.AppendSection(b, func(b []byte) ([]byte, error) { return s.appendSORDistances(b, current), nil })
	b, _ = binenc.AppendSection(b, func(b []byte) ([]byte, error) {
		if !current {
			return b, nil
		}
		return s.vis.AppendState(b), nil
	})
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli)), nil
}

// cachesCurrent reports whether the SOR filter's cached distances cover
// the model's current cloud and the visibility builder's merged counts its
// current views. A snapshot stores both caches or, when either does not,
// neither: the restore then recomputes, as the live system's next rebuild
// would.
func (s *System) cachesCurrent() bool {
	split, mean, _ := s.sor.Distances()
	return split == s.model.NumPoints() && len(mean) == split+s.model.NumOutliers() &&
		s.vis.Holds(s.model.NumViews())
}

// appendSORDistances stores the SOR filter's cached per-point distances,
// so a restore adopts them instead of rerunning kNN over the whole cloud;
// with current false it stores them empty.
func (s *System) appendSORDistances(b []byte, current bool) []byte {
	split, mean, kth := s.sor.Distances()
	if !current {
		split, mean, kth = 0, nil, nil
	}
	b = binenc.AppendU64(b, uint64(split))
	b = binenc.AppendU64(b, uint64(len(mean)))
	for _, col := range [2][]float64{mean, kth} {
		for _, d := range col {
			b = binenc.AppendF64(b, d)
		}
	}
	return b
}

// LoadSystem restores a backend from a snapshot written by WriteSnapshot,
// rebinding it to the given venue and world, which must be the ones the
// snapshot was taken with: the model's natural feature oracle comes from
// the world and must match the fingerprint the snapshot stores.
//
// The SOR filter adopts the stored distances and the visibility builder
// the stored merged counts, so the restore runs no kNN query and casts no
// view; the obstacle map is recomputed from the model and must match the
// occupancy the counts were cast against.
// Artificial features injected by past annotation tasks live in the model
// snapshot; they are re-added to the world so future captures observe
// them. A torn, corrupt or foreign file is an error, never a panic.
func LoadSystem(r io.Reader, v *venue.Venue, world *camera.World) (*System, error) {
	start := time.Now()
	if v == nil || world == nil {
		return nil, fmt.Errorf("core: nil venue or world")
	}
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: read snapshot: %w", err)
	}
	body, err := snapshotBody(data)
	if err != nil {
		return nil, err
	}
	rd := binenc.NewReader(body)
	metaJSON, modelSec, sorSec, visSec := rd.Section(), rd.Section(), rd.Section(), rd.Section()
	if err := rd.Err(); err != nil {
		return nil, fmt.Errorf("core: decode snapshot: %w", err)
	}
	if rd.Remaining() != 0 {
		return nil, fmt.Errorf("core: decode snapshot: %d trailing bytes", rd.Remaining())
	}
	var meta snapshotMeta
	if err := json.Unmarshal(metaJSON, &meta); err != nil {
		return nil, fmt.Errorf("core: decode snapshot meta: %w", err)
	}

	s, err := newSystem(v, world, meta.Config)
	if err != nil {
		return nil, err
	}
	if err := s.model.UnmarshalBinary(modelSec); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	gen, err := taskgen.FromSnapshot(meta.Generator)
	if err != nil {
		return nil, err
	}
	s.gen = gen
	s.pending = meta.Pending
	s.covered = meta.Covered
	s.nextArtID = meta.NextArtID
	s.photoTasksIssued = meta.PhotoTasksIssued
	s.annotationTasksIssued = meta.AnnotationTasksIssued
	s.photosProcessed = meta.PhotosProcessed
	if err := s.adoptSORDistances(sorSec); err != nil {
		return nil, err
	}
	s.foldViews()
	if err := s.vis.Restore(s.mapViews, visSec); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	if artificial := s.model.ArtificialFeatures(); len(artificial) > 0 {
		world.AddFeatures(artificial)
	}
	if err := s.rebuildMaps(); err != nil {
		return nil, err
	}
	s.snapshotBytes = len(data)
	s.loadSeconds = time.Since(start).Seconds()
	return s, nil
}

// readAll reads r to its end in one allocation when r tells its size, as
// a file or an in-memory reader does; io.ReadAll's gradual growth copies a
// multi-megabyte snapshot many times over.
func readAll(r io.Reader) ([]byte, error) {
	size := 0
	switch x := r.(type) {
	case interface{ Len() int }:
		size = x.Len()
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := x.Stat(); err == nil {
			size = int(fi.Size())
		}
	}
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// snapshotBody checks a snapshot's header and checksum and returns the
// bytes between them.
func snapshotBody(data []byte) ([]byte, error) {
	if len(data) < snapshotHeader || !bytes.Equal(data[:len(snapshotMagic)], []byte(snapshotMagic)) {
		return nil, fmt.Errorf("core: not a v%d snapshot (no %q header)", snapshotVersion, snapshotMagic)
	}
	if ver := binary.LittleEndian.Uint32(data[len(snapshotMagic):]); ver != snapshotVersion {
		return nil, fmt.Errorf("core: not a v%d snapshot (version %d)", snapshotVersion, ver)
	}
	n := len(data) - 4
	if n < snapshotHeader {
		return nil, fmt.Errorf("core: snapshot truncated at %d bytes", len(data))
	}
	if got, want := crc32.Checksum(data[:n], castagnoli), binary.LittleEndian.Uint32(data[n:]); got != want {
		return nil, fmt.Errorf("core: snapshot checksum mismatch (torn or corrupt file): %08x, trailer %08x", got, want)
	}
	return data[snapshotHeader:n], nil
}

// adoptSORDistances primes the SOR filter with stored distances. It marks
// the whole model cloud as consumed (CloudIncremental) so the next
// rebuild's FilterAppend sees an empty delta that lines up with the adopted
// cache; marks left behind would make it Reset and recompute everything.
func (s *System) adoptSORDistances(sec []byte) error {
	rd := binenc.NewReader(sec)
	split := rd.Int()
	n := rd.Count(16)
	mean, kth := rd.F64s(n), rd.F64s(n)
	if err := rd.Err(); err != nil {
		return fmt.Errorf("core: decode SOR distances: %w", err)
	}
	if rd.Remaining() != 0 {
		return fmt.Errorf("core: decode SOR distances: %d trailing bytes", rd.Remaining())
	}
	if n == 0 {
		return nil
	}
	if split != s.model.NumPoints() {
		return fmt.Errorf("core: SOR distances split at %d, model has %d points", split, s.model.NumPoints())
	}
	cloud, _, _ := s.model.CloudIncremental()
	if err := s.sor.Adopt(cloud, split, mean, kth); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}
