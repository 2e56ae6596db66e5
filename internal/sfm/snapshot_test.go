package sfm

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"maps"
	"math"
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
		"features": {oracle(m2), oracle(m)},
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
		if len(fresh.views) != 0 || fresh.natN != uint64(len(feats)) || len(fresh.artificial) != 0 {
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

// oracle returns every feature the model's oracle holds, natural and
// artificial, by ID.
func oracle(m *Model) map[uint64]venue.Feature {
	out := make(map[uint64]venue.Feature)
	for id, f := range m.natural {
		if f.known {
			out[uint64(id)] = venue.Feature{ID: uint64(id), Pos: f.pos}
		}
	}
	for _, f := range m.artificial {
		out[f.ID] = f
	}
	return out
}

// rescanOracle recomputes, from the oracle's entries alone, the
// natural-feature count and fingerprint and the ID-sorted artificial list
// the model keeps.
func rescanOracle(m *Model) (n, sum uint64, artificial []venue.Feature) {
	for id, f := range oracle(m) {
		if f.Artificial {
			artificial = append(artificial, f)
			continue
		}
		n++
		sum += featureHash(id, f.Pos)
	}
	slices.SortFunc(artificial, func(a, b venue.Feature) int { return cmp.Compare(a.ID, b.ID) })
	return n, sum, artificial
}

// checkOracle requires the kept fingerprint and artificial list to match a
// rescan, and want (when not nil) to be exactly the oracle's content.
func checkOracle(t *testing.T, m *Model, want map[uint64]venue.Feature, when string) {
	t.Helper()
	n, sum, artificial := rescanOracle(m)
	if m.natN != n || m.natSum != sum {
		t.Fatalf("%s: natural fingerprint (%d, %016x), rescan gives (%d, %016x)", when, m.natN, m.natSum, n, sum)
	}
	if got := m.ArtificialFeatures(); !slices.Equal(got, artificial) {
		t.Fatalf("%s: artificial features %v, rescan gives %v", when, got, artificial)
	}
	if want != nil && !maps.Equal(oracle(m), want) {
		t.Fatalf("%s: oracle holds %d features, want %d", when, len(oracle(m)), len(want))
	}
	for id, f := range want {
		pos, artificial, ok := m.feature(id)
		if !ok || pos != f.Pos || artificial != f.Artificial {
			t.Fatalf("%s: feature(%d) = %v %v %v, want %v", when, id, pos, artificial, ok, f)
		}
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
	// want models the oracle: the ID, position and kind of the feature
	// most recently added under each ID.
	want := make(map[uint64]venue.Feature)
	for _, f := range feats {
		want[f.ID] = venue.Feature{ID: f.ID, Pos: f.Pos}
	}
	checkOracle(t, m, want, "new model")
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
		for _, f := range add {
			want[f.ID] = f
		}
		checkOracle(t, m, want, fmt.Sprintf("batch %d", batch))
	}
	if len(m.artificial) == 0 {
		t.Fatal("no artificial feature left to check")
	}

	// A decode drops the fresh model's artificial features and adopts
	// the encoded ones.
	var natural []venue.Feature
	for _, f := range want {
		if !f.Artificial {
			natural = append(natural, f)
		}
	}
	fresh := NewModel(Config{}, natural)
	fresh.AddWorldFeatures([]venue.Feature{{ID: maxID + 1, Pos: geom.V3(1, 1, 1), Artificial: true}})
	if err := fresh.UnmarshalBinary(mustMarshal(t, m)); err != nil {
		t.Fatal(err)
	}
	checkOracle(t, fresh, want, "after decode")
}

// TestNaturalFeatureIDBound: the ID-indexed natural oracle refuses an ID
// that would size its table past 2^32 entries, while an artificial feature
// may carry any ID.
func TestNaturalFeatureIDBound(t *testing.T) {
	m := NewModel(Config{}, []venue.Feature{{ID: 5}})
	m.AddWorldFeatures([]venue.Feature{{ID: maxNaturalID, Artificial: true}, {ID: math.MaxUint64, Artificial: true}})
	if m.natN != 1 || len(m.artificial) != 2 {
		t.Fatalf("oracle holds %d natural and %d artificial features, want 1 and 2", m.natN, len(m.artificial))
	}
	defer func() {
		if recover() == nil {
			t.Error("natural feature ID 2^32 accepted")
		}
	}()
	m.AddWorldFeatures([]venue.Feature{{ID: maxNaturalID}})
}
