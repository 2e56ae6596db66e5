package server

import (
	"maps"
	"math/rand"
	"net/http"
	"reflect"
	"slices"
	"testing"

	"snaptask/internal/camera"
	"snaptask/internal/grid"
)

// gridValues lists a grid's layout and cell values, row-major.
func gridValues(m *grid.Map) []int {
	out := []int{m.Width(), m.Height()}
	m.Each(func(_ grid.Cell, v int) { out = append(out, v) })
	return out
}

// TestPublishedSnapshotImmutable holds a published snapshot, which shares
// the system's obstacle and visibility grids instead of copying them, and
// checks that a photo batch, an annotation (which seals the entrance
// barrier into the rebuilt maps) and a claim leave it exactly as it was.
func TestPublishedSnapshotImmutable(t *testing.T) {
	ts, srv, _, w, v := newEventsTestServer(t, t.TempDir())
	bootstrapUpload(t, ts, w, v, 3)

	held := srv.Snapshot()
	if held.Obstacles != srv.sys.Maps().Obstacles || held.Visibility != srv.sys.Maps().Visibility {
		t.Fatal("snapshot does not share the system's maps")
	}
	obstacles, visibility := gridValues(held.Obstacles), gridValues(held.Visibility)
	mapResp := held.Map
	rows := slices.Clone(held.Map.Rows)
	features := maps.Clone(held.Features)

	rng := rand.New(rand.NewSource(8))
	worker := registerWorker(t, ts.URL)
	claim, ok := claimTask(t, ts.URL, worker)
	if !ok {
		t.Fatal("no task to claim after bootstrap")
	}
	if _, code := uploadForClaim(t, ts.URL, w, claim, 0, rng); code != http.StatusOK {
		t.Fatalf("leased upload code %d", code)
	}
	afterBatch := srv.Snapshot()

	sweep, err := w.Sweep(v.Entrance(), camera.DefaultIntrinsics(), camera.CaptureOptions{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	ann := AnnotateRequest{TaskID: -1, LocX: v.Entrance().X, LocY: v.Entrance().Y}
	for _, p := range sweep {
		ann.Photos = append(ann.Photos, PhotoToDTO(p))
	}
	ann.Marks = []AnnotationDTO{{WorkerID: 1, Corners: [4][2]float64{{0.2, 0.2}, {0.8, 0.2}, {0.8, 0.8}, {0.2, 0.8}}}}
	if code := postJSON(t, ts.URL+"/v1/annotations", ann, new(AnnotateResponse)); code != http.StatusOK {
		t.Fatalf("annotation code %d", code)
	}
	if _, ok := claimTask(t, ts.URL, worker); !ok {
		t.Fatal("no task to claim after the annotation")
	}

	if reflect.DeepEqual(gridValues(afterBatch.Visibility), visibility) {
		t.Fatal("the photo batch did not change the visibility map; the test shows nothing")
	}
	if got := gridValues(held.Obstacles); !reflect.DeepEqual(got, obstacles) {
		t.Error("held snapshot's obstacles grid changed")
	}
	if got := gridValues(held.Visibility); !reflect.DeepEqual(got, visibility) {
		t.Error("held snapshot's visibility grid changed")
	}
	if !reflect.DeepEqual(held.Map, mapResp) || !slices.Equal(held.Map.Rows, rows) {
		t.Error("held snapshot's map response changed")
	}
	if !maps.Equal(held.Features, features) {
		t.Error("held snapshot's locate index changed")
	}
}
