package sfm

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"snaptask/internal/binenc"
	"snaptask/internal/geom"
	"snaptask/internal/pointcloud"
	"snaptask/internal/venue"
)

// The model encoding is what the paper's backend "stores in a database for
// further iterations", minus the natural feature oracle: that is a pure
// function of the world, which a restore rebuilds anyway, so only its
// fingerprint is stored. Layout, all fixed-width values little-endian:
//
//	config           3 int64, 6 float64 (field order of Config)
//	nextPhotoID      int64
//	oracle           natural feature count, fingerprint (uint64 each)
//	views            count, then one column per viewCols field
//	points           count, then one column per pointCols field
//	outliers         as points
//	tracks           count, then per untriangulated track in ascending
//	                 feature-ID order: uvarint ID delta, uvarint length,
//	                 uvarint view-index deltas
//	artificial feats count, then one column per featureCols field
var (
	viewCols = binenc.Columns[View]{
		Ints: []func(*View) *int{
			func(v *View) *int { return &v.PhotoID },
			func(v *View) *int { return &v.NumObs },
		},
		Floats: []func(*View) *float64{
			func(v *View) *float64 { return &v.Pose.Pos.X },
			func(v *View) *float64 { return &v.Pose.Pos.Y },
			func(v *View) *float64 { return &v.Pose.Yaw },
			func(v *View) *float64 { return &v.Intrinsics.HFOV },
			func(v *View) *float64 { return &v.Intrinsics.VFOV },
			func(v *View) *float64 { return &v.Intrinsics.Range },
			func(v *View) *float64 { return &v.Intrinsics.MinRange },
			func(v *View) *float64 { return &v.Intrinsics.EyeHeight },
		},
	}
	pointCols = binenc.Columns[pointcloud.Point]{
		Ints:  []func(*pointcloud.Point) *int{func(p *pointcloud.Point) *int { return &p.Views }},
		Uints: []func(*pointcloud.Point) *uint64{func(p *pointcloud.Point) *uint64 { return &p.FeatureID }},
		Floats: []func(*pointcloud.Point) *float64{
			func(p *pointcloud.Point) *float64 { return &p.Pos.X },
			func(p *pointcloud.Point) *float64 { return &p.Pos.Y },
			func(p *pointcloud.Point) *float64 { return &p.Pos.Z },
		},
		Bools: []func(*pointcloud.Point) *bool{func(p *pointcloud.Point) *bool { return &p.Artificial }},
	}
	featureCols = binenc.Columns[venue.Feature]{
		Uints: []func(*venue.Feature) *uint64{func(f *venue.Feature) *uint64 { return &f.ID }},
		Floats: []func(*venue.Feature) *float64{
			func(f *venue.Feature) *float64 { return &f.Pos.X },
			func(f *venue.Feature) *float64 { return &f.Pos.Y },
			func(f *venue.Feature) *float64 { return &f.Pos.Z },
		},
	}
)

// AppendBinary appends the model's encoding to b (layout above). The same
// model state always encodes to the same bytes, so encodings compare and
// hash as the model does.
func (m *Model) AppendBinary(b []byte) ([]byte, error) {
	c := m.cfg
	for _, v := range []int{c.MinViewsForPoint, c.MinSharedForReg, c.MinSeedMatches} {
		b = binenc.AppendU64(b, uint64(v))
	}
	for _, v := range []float64{c.MinBaseline, c.PointNoiseSigma, c.PoseNoiseSigma,
		c.MatchDropProb, c.OutlierProb, c.SharpnessThreshold} {
		b = binenc.AppendF64(b, v)
	}
	b = binenc.AppendU64(b, uint64(m.nextPhotoID))
	b = binenc.AppendU64(b, m.natN)
	b = binenc.AppendU64(b, m.natSum)
	b = viewCols.Append(b, m.views)
	b = pointCols.Append(b, m.pts)
	b = pointCols.Append(b, m.outliers)

	ids := make([]uint64, 0, len(m.tracks))
	for id := range m.tracks {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	b = binenc.AppendU64(b, uint64(len(ids)))
	var prevID uint64
	for _, id := range ids {
		vs := m.tracks[id]
		b = binary.AppendUvarint(b, id-prevID)
		b = binary.AppendUvarint(b, uint64(len(vs)))
		prevID = id
		prev := 0
		for _, v := range vs {
			if v < prev {
				return nil, fmt.Errorf("sfm: track %d view list not ascending", id)
			}
			b = binary.AppendUvarint(b, uint64(v-prev))
			prev = v
		}
	}
	return featureCols.Append(b, m.artificial), nil
}

// MarshalBinary returns the model's encoding (see AppendBinary).
func (m *Model) MarshalBinary() ([]byte, error) { return m.AppendBinary(nil) }

// UnmarshalBinary restores an encoded reconstruction into m, which must be
// fresh from NewModel over the world the encoded model was built in. m
// keeps its natural feature oracle, which must match the stored
// fingerprint; views, points, tracks and artificial features come from
// data. A track of a triangulated feature is refused: the model drops
// those, so accepting one would admit a second encoding of the same
// state. So are artificial features out of ascending ID order or with a
// natural feature's ID. Nothing in m changes unless the whole encoding
// decodes.
func (m *Model) UnmarshalBinary(data []byte) error {
	r := binenc.NewReader(data)
	var c Config
	for _, p := range []*int{&c.MinViewsForPoint, &c.MinSharedForReg, &c.MinSeedMatches} {
		*p = r.Int()
	}
	for _, p := range []*float64{&c.MinBaseline, &c.PointNoiseSigma, &c.PoseNoiseSigma,
		&c.MatchDropProb, &c.OutlierProb, &c.SharpnessThreshold} {
		*p = r.F64()
	}
	nextPhotoID := r.Int()
	wantN, wantSum := r.U64(), r.U64()
	if err := r.Err(); err != nil {
		return fmt.Errorf("sfm: decode model: %w", err)
	}
	if m.natN != wantN || m.natSum != wantSum {
		return fmt.Errorf("sfm: world feature oracle (%d features, fingerprint %016x) differs from the snapshot's (%d, %016x): different venue or world seed",
			m.natN, m.natSum, wantN, wantSum)
	}
	views := viewCols.Read(r)
	pts := pointCols.Read(r)
	outliers := pointCols.Read(r)
	ptIdx := make(map[uint64]int, len(pts))
	for i, p := range pts {
		ptIdx[p.FeatureID] = i
	}
	tracks := readTracks(r, len(views), ptIdx)
	artificial := featureCols.Read(r)
	if err := r.Err(); err != nil {
		return fmt.Errorf("sfm: decode model: %w", err)
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("sfm: decode model: %d trailing bytes", r.Remaining())
	}
	for i, f := range artificial {
		if i > 0 && f.ID <= artificial[i-1].ID {
			return fmt.Errorf("sfm: artificial feature IDs not ascending at %d", f.ID)
		}
		if m.isNatural(f.ID) {
			return fmt.Errorf("sfm: artificial feature %d is a natural feature of the world", f.ID)
		}
	}

	m.cfg = c.withDefaults()
	m.nextPhotoID = nextPhotoID
	m.views = views
	m.pts = pts
	m.outliers = outliers
	m.tracks = tracks
	m.ptIdx = ptIdx
	clear(m.touched)
	m.cloudMarkPts, m.cloudMarkOut = 0, 0
	for i := range artificial {
		artificial[i].Artificial = true
	}
	m.artificial = artificial
	return nil
}

// readTracks decodes the track section, refusing a track whose feature
// has a point in ptIdx.
func readTracks(r *binenc.Reader, nViews int, ptIdx map[uint64]int) map[uint64][]int {
	// An encoded track takes at least two bytes, a view reference one.
	n := r.Count(2)
	if r.Err() != nil {
		return nil
	}
	tracks := make(map[uint64][]int, n)
	var id uint64
	for i := 0; i < n; i++ {
		delta := r.Uvarint()
		if i > 0 && delta == 0 {
			r.Fail(fmt.Errorf("sfm: track IDs not ascending"))
		}
		id += delta
		l := r.Uvarint()
		if r.Err() != nil {
			return nil
		}
		if _, ok := ptIdx[id]; ok {
			r.Fail(fmt.Errorf("sfm: track of triangulated feature %d", id))
			return nil
		}
		if l > uint64(r.Remaining()) {
			r.Fail(fmt.Errorf("%w: track %d holds %d views, %d bytes left", binenc.ErrShort, id, l, r.Remaining()))
			return nil
		}
		vs := make([]int, l)
		v := 0
		for j := range vs {
			d := r.Uvarint()
			if d >= uint64(nViews-v) {
				r.Fail(fmt.Errorf("sfm: track %d references view beyond %d", id, nViews))
				return nil
			}
			v += int(d)
			vs[j] = v
		}
		tracks[id] = vs
	}
	return tracks
}

// ArtificialFeatures returns the artificial (annotation-imprinted) features
// of the model's oracle in ascending ID order.
func (m *Model) ArtificialFeatures() []venue.Feature { return slices.Clone(m.artificial) }

// featureHash is one natural feature's term in the oracle fingerprint (a
// wrapping sum over the natural features, so it does not depend on their
// order): a mixed hash of the ID and position bits.
func featureHash(id uint64, p geom.Vec3) uint64 {
	h := id
	for _, v := range [3]float64{p.X, p.Y, p.Z} {
		h = mix64(h ^ math.Float64bits(v))
	}
	return mix64(h)
}

// mix64 is the splitmix64 finalizer.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return h
}
