package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"snaptask/internal/annotation"
	"snaptask/internal/binenc"
	"snaptask/internal/camera"
	"snaptask/internal/crowd"
	"snaptask/internal/grid"
	"snaptask/internal/mapping"
	"snaptask/internal/metrics"
	"snaptask/internal/pointcloud"
	"snaptask/internal/taskgen"
	"snaptask/internal/telemetry"
	"snaptask/internal/venue"
)

// TestSnapshotRoundTrip runs part of a mapping session, snapshots the
// backend, restores it into a fresh world, and finishes the session there:
// the paper's "stored in a database for further iterations".
func TestSnapshotRoundTrip(t *testing.T) {
	v, err := venue.SmallRoom()
	if err != nil {
		t.Fatal(err)
	}
	mkWorld := func() *camera.World {
		return camera.NewWorld(v, v.GenerateFeatures(rand.New(rand.NewSource(1))))
	}
	world := mkWorld()
	sys, err := NewSystem(v, world, Config{Margin: 3})
	if err != nil {
		t.Fatal(err)
	}
	gt, err := v.GroundTruthAt(sys.Layout())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	boot, err := BootstrapCapture(world, v, camera.DefaultIntrinsics(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ProcessBootstrap(boot, rng); err != nil {
		t.Fatal(err)
	}
	// Execute a couple of tasks.
	worker := &crowd.GuidedWorker{World: world, Venue: v, Intrinsics: camera.DefaultIntrinsics(), Pos: v.Entrance()}
	walk := v.WalkMap(gt)
	for i := 0; i < 2; i++ {
		task, ok := sys.NextTask()
		if !ok {
			break
		}
		res, err := worker.DoPhotoTask(walk, task.Location, rng)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.ProcessPhotoBatch(task.Location, task.AimPoint(), res.Photos, rng); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := sys.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	// Restore into a FRESH world (as a server restart would).
	world2 := mkWorld()
	sys2, err := LoadSystem(&buf, v, world2)
	if err != nil {
		t.Fatal(err)
	}
	if sys2.PhotosProcessed() != sys.PhotosProcessed() {
		t.Errorf("photos processed: %d vs %d", sys2.PhotosProcessed(), sys.PhotosProcessed())
	}
	if sys2.Model().NumViews() != sys.Model().NumViews() {
		t.Errorf("views: %d vs %d", sys2.Model().NumViews(), sys.Model().NumViews())
	}
	if sys2.Model().NumPoints() != sys.Model().NumPoints() {
		t.Errorf("points: %d vs %d", sys2.Model().NumPoints(), sys.Model().NumPoints())
	}
	if sys2.Covered() != sys.Covered() {
		t.Error("covered flag lost")
	}
	if len(sys2.PendingTasks()) != len(sys.PendingTasks()) {
		t.Errorf("pending: %d vs %d", len(sys2.PendingTasks()), len(sys.PendingTasks()))
	}
	// Maps recomputed on load match the live system's.
	if sys2.Maps().Coverage.CountPositive() != sys.Maps().Coverage.CountPositive() {
		t.Errorf("coverage cells: %d vs %d",
			sys2.Maps().Coverage.CountPositive(), sys.Maps().Coverage.CountPositive())
	}

	// The restored backend can finish the session through the normal loop.
	worker2 := &crowd.GuidedWorker{World: world2, Venue: v, Intrinsics: camera.DefaultIntrinsics(), Pos: v.Entrance()}
	rng2 := rand.New(rand.NewSource(3))
	loopRes, err := RunGuidedLoop(sys2, worker2, walk, LoopOptions{MaxTasks: 50, SkipBootstrap: true}, rng2)
	if err != nil {
		t.Fatal(err)
	}
	if !loopRes.Covered {
		t.Fatalf("restored session did not finish (%d tasks)", len(loopRes.Iterations))
	}
	truthCov, err := gt.Coverage()
	if err != nil {
		t.Fatal(err)
	}
	cov, err := metrics.CoveragePercent(sys2.Maps().Coverage, truthCov)
	if err != nil {
		t.Fatal(err)
	}
	if cov < 85 {
		t.Errorf("post-restore coverage = %.1f%%", cov)
	}
}

// smallSnapshot bootstraps a small-room system and returns its snapshot
// with the venue and the feature seed its world was built from.
func smallSnapshot(t testing.TB) ([]byte, *venue.Venue) {
	t.Helper()
	v, err := venue.SmallRoom()
	if err != nil {
		t.Fatal(err)
	}
	world := camera.NewWorld(v, v.GenerateFeatures(rand.New(rand.NewSource(1))))
	sys, err := NewSystem(v, world, Config{Margin: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	boot, err := BootstrapCapture(world, v, camera.DefaultIntrinsics(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ProcessBootstrap(boot, rng); err != nil {
		t.Fatal(err)
	}
	return writeSnapshot(t, sys), v
}

func writeSnapshot(t testing.TB, sys *System) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sys.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// resealed returns data with its CRC-32C trailer recomputed, so a test
// can reach the decoder behind the checksum.
func resealed(data []byte) []byte {
	out := bytes.Clone(data)
	n := len(out) - 4
	binary.LittleEndian.PutUint32(out[n:], crc32.Checksum(out[:n], castagnoli))
	return out
}

// TestLoadSystemValidation feeds LoadSystem broken inputs. Each must be an
// error, never a panic, and no length field may allocate past the input.
func TestLoadSystemValidation(t *testing.T) {
	if _, err := LoadSystem(bytes.NewReader(nil), nil, nil); err == nil {
		t.Error("nil venue accepted")
	}
	snap, v := smallSnapshot(t)
	world := func(seed int64) *camera.World {
		return camera.NewWorld(v, v.GenerateFeatures(rand.New(rand.NewSource(seed))))
	}
	if _, err := LoadSystem(bytes.NewReader(snap), v, world(1)); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	v1, err := os.ReadFile("testdata/v1-gob-head.snap")
	if err != nil {
		t.Fatal(err)
	}

	// Offsets of the length fields: the meta section's length follows the
	// header; the model section's length follows the meta section; its
	// view count follows 12 words of config, photo ID and fingerprint.
	metaLenAt := snapshotHeader
	modelLenAt := metaLenAt + 8 + int(binary.LittleEndian.Uint64(snap[metaLenAt:]))
	viewCountAt := modelLenAt + 8 + 12*8
	sorAt := modelLenAt + 8 + int(binary.LittleEndian.Uint64(snap[modelLenAt:]))
	sorCountAt := sorAt + 8 + 8
	// The visibility section is the last: ray step, basis fingerprint and
	// cell count, then the covered-cell records.
	visAt := sorAt + 8 + int(binary.LittleEndian.Uint64(snap[sorAt:]))
	visSec := snap[visAt+8 : len(snap)-4]
	if len(visSec) == 0 {
		t.Fatal("snapshot stores no visibility counts")
	}
	cells := binary.LittleEndian.Uint64(visSec[16:])
	withU64 := func(at int, v uint64) []byte {
		out := bytes.Clone(snap)
		binary.LittleEndian.PutUint64(out[at:], v)
		return resealed(out)
	}
	withVis := func(sec []byte) []byte {
		out := binenc.AppendU64(bytes.Clone(snap[:visAt]), uint64(len(sec)))
		return resealed(append(append(out, sec...), 0, 0, 0, 0))
	}
	// records builds a visibility section on the real header from records
	// of six uvarints (cell delta, views, four quadrant counts).
	records := func(recs ...[6]uint64) []byte {
		sec := binenc.AppendU64(bytes.Clone(visSec[:24]), uint64(len(recs)))
		for _, r := range recs {
			for _, x := range r {
				sec = binary.AppendUvarint(sec, x)
			}
		}
		return withVis(sec)
	}
	flipped := bytes.Clone(snap)
	flipped[len(flipped)/2] ^= 0x10
	version := func(v uint32) []byte {
		out := bytes.Clone(snap)
		binary.LittleEndian.PutUint32(out[len(snapshotMagic):], v)
		return resealed(out)
	}

	for _, tc := range []struct {
		name  string
		data  []byte
		world *camera.World
		want  string
	}{
		{"empty", nil, world(1), "not a v4 snapshot"},
		{"pre-change gob file", v1, world(1), "not a v4 snapshot"},
		{"version 2 file", version(2), world(1), "not a v4 snapshot (version 2)"},
		{"version 3 file", version(3), world(1), "not a v4 snapshot (version 3)"},
		{"future version", version(5), world(1), "not a v4 snapshot (version 5)"},
		{"torn to header", snap[:snapshotHeader], world(1), "truncated"},
		{"torn mid-file", snap[:len(snap)/2], world(1), "checksum"},
		{"torn trailer", snap[:len(snap)-1], world(1), "checksum"},
		{"bit flip", flipped, world(1), "checksum"},
		{"different world seed", snap, world(2), "different venue or world seed"},
		{"meta length past input", withU64(metaLenAt, 1<<62), world(1), "exceeds remaining"},
		{"model length past input", withU64(modelLenAt, uint64(len(snap))), world(1), "exceeds remaining"},
		{"view count past input", withU64(viewCountAt, 1<<40), world(1), "exceeds remaining"},
		{"SOR count past input", withU64(sorCountAt, 1<<40), world(1), "exceeds remaining"},
		{"wrong visibility cell count", withU64(visAt+8+16, cells+1), world(1), "layout has"},
		{"zero visibility cell delta", records([6]uint64{1, 1, 1, 0, 0, 0}, [6]uint64{0, 1, 1, 0, 0, 0}), world(1), "cell delta 0"},
		{"visibility cell delta past the layout", records([6]uint64{cells + 1, 1, 1, 0, 0, 0}), world(1), "cell delta"},
		{"visibility trailing bytes", withVis(append(bytes.Clone(visSec), 0)), world(1), "trailing bytes"},
		{"visibility basis of other obstacles", withU64(visAt+8+8, binary.LittleEndian.Uint64(visSec[8:])^1), world(1), "occupancy"},
	} {
		_, err := LoadSystem(bytes.NewReader(tc.data), v, tc.world)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestSnapshotCachesStoredTogether checks that a snapshot stores the
// visibility counts exactly when it stores the SOR distances: a
// full-rebuild system keeps no SOR cache, so it stores neither, and its
// restore casts every view.
func TestSnapshotCachesStoredTogether(t *testing.T) {
	v, err := venue.SmallRoom()
	if err != nil {
		t.Fatal(err)
	}
	world := func() *camera.World { return camera.NewWorld(v, v.GenerateFeatures(rand.New(rand.NewSource(1)))) }
	w := world()
	sys, err := NewSystem(v, w, Config{Margin: 3, FullRebuild: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	boot, err := BootstrapCapture(w, v, camera.DefaultIntrinsics(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ProcessBootstrap(boot, rng); err != nil {
		t.Fatal(err)
	}
	snap := writeSnapshot(t, sys)
	rd := binenc.NewReader(snap[snapshotHeader : len(snap)-4])
	rd.Section()
	rd.Section()
	sor, vis := rd.Section(), rd.Section()
	if rd.Err() != nil || len(sor) != 16 || binary.LittleEndian.Uint64(sor[8:]) != 0 || len(vis) != 0 {
		t.Fatalf("full-rebuild snapshot stores %d SOR bytes and %d visibility bytes; want both empty (err %v)", len(sor), len(vis), rd.Err())
	}
	loaded, err := LoadSystem(bytes.NewReader(snap), v, world())
	if err != nil {
		t.Fatal(err)
	}
	if c := loaded.vis.Casts(); c.New != loaded.NumViews() || c.Stale+c.Restored != 0 {
		t.Fatalf("restore without stored counts cast %+v; want all %d views new", c, loaded.NumViews())
	}
	requireMapEqual(t, "visibility", loaded.Maps().Visibility, sys.Maps().Visibility)
}

// TestSnapshotMetrics checks that a restored system reports its load,
// the view casts it made (none: it adopts the stored counts) and every
// snapshot write on the model snapshot instruments.
func TestSnapshotMetrics(t *testing.T) {
	snap, v := smallSnapshot(t)
	sys, err := LoadSystem(bytes.NewReader(snap), v, camera.NewWorld(v, v.GenerateFeatures(rand.New(rand.NewSource(1)))))
	if err != nil {
		t.Fatal(err)
	}
	if c := sys.vis.Casts(); c != (mapping.CastCounts{}) {
		t.Fatalf("load cast %+v; want the stored visibility counts adopted", c)
	}
	sys.SetTelemetry(&telemetry.Telemetry{Registry: telemetry.NewRegistry()})
	m := sys.ingestM
	if m.SnapshotLoadSeconds.Count() != 1 || m.SnapshotBytes.Value() != float64(len(snap)) {
		t.Fatalf("after load: %d load observations, %v bytes; want 1, %d",
			m.SnapshotLoadSeconds.Count(), m.SnapshotBytes.Value(), len(snap))
	}
	for _, cause := range []string{"new", "stale", "restored"} {
		if n := m.ViewCasts.With(cause).Value(); n != 0 {
			t.Fatalf("after load: %d %s casts counted; want 0", n, cause)
		}
	}
	for i := 1; i <= 2; i++ {
		writeSnapshot(t, sys)
		if m.SnapshotWriteSeconds.Count() != uint64(i) || m.SnapshotBytes.Value() != float64(len(snap)) {
			t.Fatalf("after write %d: %d write observations, %v bytes", i, m.SnapshotWriteSeconds.Count(), m.SnapshotBytes.Value())
		}
	}
}

// FuzzLoadSystem checks that no input makes LoadSystem panic, and that any
// input it accepts writes back byte-identically.
func FuzzLoadSystem(f *testing.F) {
	snap, v := smallSnapshot(f)
	for _, n := range []int{len(snap), len(snap) - 1, len(snap) / 2, 64, snapshotHeader, 3, 0} {
		f.Add(snap[:n])
	}
	base := camera.NewWorld(v, v.GenerateFeatures(rand.New(rand.NewSource(1))))
	f.Fuzz(func(t *testing.T, data []byte) {
		sys, err := LoadSystem(bytes.NewReader(data), v, base.Clone())
		if err != nil {
			return
		}
		if again := writeSnapshot(t, sys); !bytes.Equal(again, data) {
			t.Fatal("accepted snapshot does not write back byte-identically")
		}
	})
}

// libraryRun is a guided session on the library venue, with everything
// needed to keep driving it.
type libraryRun struct {
	v      *venue.Venue
	sys    *System
	worker *crowd.GuidedWorker
	walk   *grid.Map
	rng    *rand.Rand
}

// libraryWorld builds the library's feature world; every call returns an
// identical, independent world.
func libraryWorld(v *venue.Venue) *camera.World {
	return camera.NewWorld(v, v.GenerateFeatures(rand.New(rand.NewSource(7))))
}

// runLibrary runs the guided loop for tasks tasks on the library. At these
// seeds the first annotation task is the 29th and the second the 36th.
func runLibrary(t *testing.T, tasks int) *libraryRun {
	t.Helper()
	v, err := venue.Library()
	if err != nil {
		t.Fatal(err)
	}
	w := libraryWorld(v)
	sys, err := NewSystem(v, w, Config{})
	if err != nil {
		t.Fatal(err)
	}
	gt, err := v.GroundTruthAt(sys.Layout())
	if err != nil {
		t.Fatal(err)
	}
	run := &libraryRun{
		v:      v,
		sys:    sys,
		worker: &crowd.GuidedWorker{World: w, Venue: v, Intrinsics: camera.DefaultIntrinsics(), Pos: v.Entrance()},
		walk:   v.WalkMap(gt),
		rng:    rand.New(rand.NewSource(8)),
	}
	if _, err := RunGuidedLoop(sys, run.worker, run.walk, LoopOptions{MaxTasks: tasks}, run.rng); err != nil {
		t.Fatal(err)
	}
	return run
}

// TestSnapshotRewriteIsByteIdentical writes a library model that has been
// through an annotation task, loads it into a fresh world and writes it
// again: the bytes must not change, and the load must adopt the stored SOR
// distances rather than recompute them.
func TestSnapshotRewriteIsByteIdentical(t *testing.T) {
	run := runLibrary(t, 30)
	snap := writeSnapshot(t, run.sys)
	gen := run.sys.gen.Snapshot()
	if len(run.sys.Model().ArtificialFeatures()) == 0 || len(run.sys.PendingTasks()) == 0 ||
		len(gen.TriedKeys) == 0 || len(gen.EscalationKeys) == 0 {
		t.Fatal("model lacks artificial features, pending tasks or taskgen state")
	}
	loaded, err := LoadSystem(bytes.NewReader(snap), run.v, libraryWorld(run.v))
	if err != nil {
		t.Fatal(err)
	}
	if n := loaded.sor.KNNQueries(); n != 0 {
		t.Fatalf("load ran %d kNN queries; want the stored distances adopted", n)
	}
	if again := writeSnapshot(t, loaded); !bytes.Equal(again, snap) {
		t.Fatalf("rewrite differs: %d vs %d bytes", len(again), len(snap))
	}
}

// filteredCloud returns the system's current SOR-filtered cloud from its
// cached distances (an empty delta runs no kNN query).
func filteredCloud(t *testing.T, s *System) []pointcloud.Point {
	t.Helper()
	c, _, err := s.sor.FilterAppend(s.model.Cloud(), s.NumPoints(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return c.Points()
}

// requireSameState requires a and b to hold the same snapshot bytes,
// model encoding, filtered cloud, maps and pending tasks.
func requireSameState(t *testing.T, when string, a, b *System) {
	t.Helper()
	if !bytes.Equal(writeSnapshot(t, a), writeSnapshot(t, b)) {
		t.Fatalf("%s: snapshots differ", when)
	}
	if !bytes.Equal(modelBytes(t, a), modelBytes(t, b)) {
		t.Fatalf("%s: models differ", when)
	}
	if !reflect.DeepEqual(filteredCloud(t, a), filteredCloud(t, b)) {
		t.Fatalf("%s: filtered clouds differ", when)
	}
	requireMapEqual(t, when+" obstacles", a.Maps().Obstacles, b.Maps().Obstacles)
	requireMapEqual(t, when+" visibility", a.Maps().Visibility, b.Maps().Visibility)
	requireMapEqual(t, when+" aspects", a.Maps().Aspects, b.Maps().Aspects)
	requireMapEqual(t, when+" coverage", a.Maps().Coverage, b.Maps().Coverage)
	if !reflect.DeepEqual(a.PendingTasks(), b.PendingTasks()) {
		t.Fatalf("%s: pending tasks differ", when)
	}
}

// TestLoadedSystemContinuesLikeUninterrupted snapshots a library session
// between its first and second annotation task, loads the snapshot, and
// feeds the live and the loaded system the same batches with same-seeded
// rngs: after every batch both must agree exactly.
func TestLoadedSystemContinuesLikeUninterrupted(t *testing.T) {
	run := runLibrary(t, 30)
	a := run.sys
	b, err := LoadSystem(bytes.NewReader(writeSnapshot(t, a)), run.v, libraryWorld(run.v))
	if err != nil {
		t.Fatal(err)
	}
	if n := b.sor.KNNQueries(); n != 0 {
		t.Fatalf("load ran %d kNN queries; want the stored distances adopted", n)
	}
	requireSameState(t, "after load", a, b)

	rngA, rngB := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	annotations := 0
	for step := 0; step < 8 && !a.Covered(); step++ {
		task, ok := a.NextTask()
		taskB, okB := b.NextTask()
		if !ok || !okB || !reflect.DeepEqual(task, taskB) {
			t.Fatalf("step %d: next tasks %+v (%v) vs %+v (%v)", step, task, ok, taskB, okB)
		}
		switch task.Kind {
		case taskgen.KindPhoto:
			ptr, err := run.worker.DoPhotoTask(run.walk, task.Location, run.rng)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := a.ProcessPhotoBatch(task.Location, task.AimPoint(), ptr.Photos, rngA); err != nil {
				t.Fatal(err)
			}
			if _, err := b.ProcessPhotoBatch(task.Location, task.AimPoint(), ptr.Photos, rngB); err != nil {
				t.Fatal(err)
			}
		case taskgen.KindAnnotation:
			annotations++
			atask, err := run.worker.DoAnnotationTask(run.walk, task.AimPoint(), run.rng)
			if err != nil {
				t.Fatal(err)
			}
			anns, err := annotation.SimulateWorkers(atask, run.v, a.cfg.Workers, run.rng)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := a.ProcessAnnotation(atask, task.AimPoint(), anns, rngA); err != nil {
				t.Fatal(err)
			}
			if _, err := b.ProcessAnnotation(atask, task.AimPoint(), anns, rngB); err != nil {
				t.Fatal(err)
			}
		}
		requireSameState(t, fmt.Sprintf("step %d (%v)", step, task.Kind), a, b)
	}
	if annotations == 0 {
		t.Error("continuation ran no annotation task")
	}
}
