package sfm

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"snaptask/internal/camera"
	"snaptask/internal/geom"
	"snaptask/internal/venue"
)

func mustMarshal(t *testing.T, m *Model) []byte {
	t.Helper()
	b, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// grownModel registers a few overlapping batches over the test scene and
// adds artificial features, so every section of the encoding is non-empty.
func grownModel(t *testing.T) (*Model, []venue.Feature) {
	t.Helper()
	w, feats := testScene(t)
	m := NewModel(Config{OutlierProb: 0.5}, feats)
	rng := rand.New(rand.NewSource(3))
	for batch := 0; batch < 3; batch++ {
		var photos []camera.Photo
		for k := 0; k < 4; k++ {
			photos = append(photos, capture(t, w, 2.5+float64(batch)*1.1+float64(k)*0.4, rng))
		}
		if _, err := m.RegisterBatch(photos, rng); err != nil {
			t.Fatal(err)
		}
	}
	m.AddWorldFeatures([]venue.Feature{
		{ID: 1 << 40, Pos: geom.V3(1, 2, 3), Artificial: true},
		{ID: 1<<40 + 1, Pos: geom.V3(4, 5, 6), Artificial: true},
	})
	if len(m.pts) == 0 || len(m.outliers) == 0 || len(m.tracks) == 0 {
		t.Fatalf("model too small: %d points, %d outliers, %d tracks", len(m.pts), len(m.outliers), len(m.tracks))
	}
	return m, feats
}

// TestModelBinaryRoundTrip decodes an encoded model into a fresh model over
// the same world features and requires identical state and bytes.
func TestModelBinaryRoundTrip(t *testing.T) {
	m, feats := grownModel(t)
	data := mustMarshal(t, m)
	m2 := NewModel(Config{}, feats)
	if err := m2.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if m2.cfg != m.cfg || m2.nextPhotoID != m.nextPhotoID {
		t.Fatalf("config/photo ID: %+v %d vs %+v %d", m2.cfg, m2.nextPhotoID, m.cfg, m.nextPhotoID)
	}
	for name, pair := range map[string][2]any{
		"views":    {m2.views, m.views},
		"points":   {m2.pts, m.pts},
		"outliers": {m2.outliers, m.outliers},
		"tracks":   {m2.tracks, m.tracks},
		"ptIdx":    {m2.ptIdx, m.ptIdx},
		"features": {m2.featPos, m.featPos},
	} {
		if !reflect.DeepEqual(pair[0], pair[1]) {
			t.Errorf("%s differ after round trip", name)
		}
	}
	if !bytes.Equal(mustMarshal(t, m2), data) {
		t.Error("re-encoding a decoded model changed its bytes")
	}
}

// TestUnmarshalBinaryRejects covers a different world, every truncation,
// an out-of-range view reference, an oversized count, a track of a
// triangulated point and non-canonical artificial features: each is an
// error, and m is left untouched.
func TestUnmarshalBinaryRejects(t *testing.T) {
	m, feats := grownModel(t)
	data := mustMarshal(t, m)

	moved := append([]venue.Feature(nil), feats...)
	moved[7].Pos.X += 1e-9
	if err := NewModel(Config{}, moved).UnmarshalBinary(data); err == nil {
		t.Error("model over a different world accepted")
	}
	for n := 0; n < len(data); n++ {
		fresh := NewModel(Config{}, feats)
		if err := fresh.UnmarshalBinary(data[:n]); err == nil {
			t.Fatalf("encoding truncated to %d of %d bytes accepted", n, len(data))
		}
		if len(fresh.views) != 0 || len(fresh.featPos) != len(feats) {
			t.Fatalf("failed decode of %d bytes modified the model", n)
		}
	}

	// The view count sits right after config, photo ID and oracle
	// fingerprint: 3+6+1+2 words.
	const viewCountAt = 12 * 8
	for name, count := range map[string]uint64{
		"huge view count":  1 << 62,
		"views past input": uint64(len(data)),
	} {
		bad := bytes.Clone(data)
		binary.LittleEndian.PutUint64(bad[viewCountAt:], count)
		if err := NewModel(Config{}, feats).UnmarshalBinary(bad); err == nil {
			t.Errorf("%s accepted", name)
		}
	}

	// Drop the last view: tracks now reference a view that does not exist.
	short := NewModel(Config{}, feats)
	short.cfg, short.views, short.tracks = m.cfg, m.views[:len(m.views)-1], m.tracks
	if err := NewModel(Config{}, feats).UnmarshalBinary(mustMarshal(t, short)); err == nil {
		t.Error("track referencing a missing view accepted")
	}

	// A triangulated feature keeps no track, so a file holding one is not
	// an encoding the model writes.
	dup := NewModel(Config{}, feats)
	dup.cfg, dup.views, dup.pts = m.cfg, m.views, m.pts
	dup.tracks = maps.Clone(m.tracks)
	dup.tracks[m.pts[0].FeatureID] = []int{0, 1, 2}
	err := NewModel(Config{}, feats).UnmarshalBinary(mustMarshal(t, dup))
	if err == nil || !strings.Contains(err.Error(), "track of triangulated feature") {
		t.Errorf("track of a triangulated point: err = %v", err)
	}

	// Nor does the model write artificial features out of ID order, twice,
	// or under a natural feature's ID.
	for name, art := range map[string][]venue.Feature{
		"not ascending": {m.artificial[1], m.artificial[0]},
		"duplicated":    {m.artificial[0], m.artificial[0]},
		"natural ID":    {{ID: feats[0].ID, Pos: feats[0].Pos}},
	} {
		odd := NewModel(Config{}, feats)
		odd.cfg, odd.artificial = m.cfg, art
		err := NewModel(Config{}, feats).UnmarshalBinary(mustMarshal(t, odd))
		if err == nil || !strings.Contains(err.Error(), "artificial feature") {
			t.Errorf("artificial features %s: err = %v", name, err)
		}
	}
}

// rescanOracle recomputes, from featPos alone, the natural-feature count
// and fingerprint and the ID-sorted artificial list the model keeps.
func rescanOracle(m *Model) (n, sum uint64, artificial []venue.Feature) {
	for id, f := range m.featPos {
		if f.artificial {
			artificial = append(artificial, venue.Feature{ID: id, Pos: f.pos, Artificial: true})
			continue
		}
		n++
		sum += featureHash(id, f.pos)
	}
	slices.SortFunc(artificial, func(a, b venue.Feature) int { return cmp.Compare(a.ID, b.ID) })
	return n, sum, artificial
}

func checkOracle(t *testing.T, m *Model, when string) {
	t.Helper()
	n, sum, artificial := rescanOracle(m)
	if m.natN != n || m.natSum != sum {
		t.Fatalf("%s: natural fingerprint (%d, %016x), rescan gives (%d, %016x)", when, m.natN, m.natSum, n, sum)
	}
	if got := m.ArtificialFeatures(); !slices.Equal(got, artificial) {
		t.Fatalf("%s: artificial features %v, rescan gives %v", when, got, artificial)
	}
}

// TestOracleSummaryMatchesRescan adds batches of features over a small ID
// space, so IDs are re-added with a new position and switch between
// natural and artificial, and requires the kept fingerprint and artificial
// list to equal a full rescan of the oracle after every batch and after a
// decode.
func TestOracleSummaryMatchesRescan(t *testing.T) {
	_, feats := testScene(t)
	m := NewModel(Config{}, feats)
	checkOracle(t, m, "new model")
	rng := rand.New(rand.NewSource(9))
	maxID := uint64(len(feats)) + 40
	for batch := 0; batch < 200; batch++ {
		var add []venue.Feature
		for k := rng.Intn(6); k >= 0; k-- {
			add = append(add, venue.Feature{
				ID:         uint64(rng.Int63n(int64(maxID))),
				Pos:        geom.V3(rng.Float64(), rng.Float64(), rng.Float64()),
				Artificial: rng.Intn(2) == 0,
			})
		}
		m.AddWorldFeatures(add)
		checkOracle(t, m, fmt.Sprintf("batch %d", batch))
	}
	if len(m.artificial) == 0 {
		t.Fatal("no artificial feature left to check")
	}

	// A decode drops the fresh model's artificial features and adopts
	// the encoded ones.
	var natural []venue.Feature
	for id, f := range m.featPos {
		if !f.artificial {
			natural = append(natural, venue.Feature{ID: id, Pos: f.pos})
		}
	}
	fresh := NewModel(Config{}, natural)
	fresh.AddWorldFeatures([]venue.Feature{{ID: maxID + 1, Pos: geom.V3(1, 1, 1), Artificial: true}})
	if err := fresh.UnmarshalBinary(mustMarshal(t, m)); err != nil {
		t.Fatal(err)
	}
	checkOracle(t, fresh, "after decode")
	if !maps.Equal(fresh.featPos, m.featPos) {
		t.Error("decoded oracle differs")
	}
}
