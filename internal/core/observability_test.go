package core

import (
	"bytes"
	"log/slog"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"snaptask/internal/annotation"
	"snaptask/internal/camera"
	"snaptask/internal/crowd"
	"snaptask/internal/events"
	"snaptask/internal/taskgen"
	"snaptask/internal/telemetry"
	"snaptask/internal/venue"
)

// runObservabilityScript drives a fresh small-room system through a fixed
// seeded script: the bootstrap, photo tasks (one of them swept blurred so
// Algorithm 1 re-issues it) and one annotation round. observe wires
// telemetry and events into the system before the first batch.
func runObservabilityScript(t *testing.T, observe func(*System)) *System {
	t.Helper()
	v, err := venue.SmallRoom()
	if err != nil {
		t.Fatal(err)
	}
	w := camera.NewWorld(v, v.GenerateFeatures(rand.New(rand.NewSource(21))))
	sys, err := NewSystem(v, w, Config{Margin: 3})
	if err != nil {
		t.Fatal(err)
	}
	observe(sys)
	gt, err := v.GroundTruthAt(sys.Layout())
	if err != nil {
		t.Fatal(err)
	}
	truth := v.WalkMap(gt)
	worker := &crowd.GuidedWorker{World: w, Venue: v, Intrinsics: camera.DefaultIntrinsics(), Pos: v.Entrance()}
	rng := rand.New(rand.NewSource(22))

	boot, err := BootstrapCapture(w, v, worker.Intrinsics, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ProcessBootstrap(boot, rng); err != nil {
		t.Fatal(err)
	}
	retried := false
	for i := 0; i < 5; i++ {
		task, ok := sys.NextTask()
		if !ok || task.Kind != taskgen.KindPhoto {
			t.Fatalf("sweep %d: no photo task pending (ok=%v)", i, ok)
		}
		worker.BlurProb = 0
		if i == 1 {
			worker.BlurProb = 1
		}
		ptr, err := worker.DoPhotoTask(truth, task.Location, rng)
		if err != nil {
			t.Fatal(err)
		}
		out, err := sys.ProcessPhotoBatch(task.Location, task.AimPoint(), ptr.Photos, rng)
		if err != nil {
			t.Fatal(err)
		}
		retried = retried || out.RetriedForBlur
	}
	if !retried {
		t.Fatal("the blurred sweep triggered no retry")
	}

	at, err := worker.DoAnnotationTask(truth, v.Bounds().Center(), rng)
	if err != nil {
		t.Fatal(err)
	}
	anns, err := annotation.SimulateWorkers(at, v, sys.cfg.Workers, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ProcessAnnotation(at, v.Bounds().Center(), anns, rng); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestObservabilityNeverChangesTheModel runs one seeded script through a
// bare system and through one wired to a full telemetry bundle and a
// journaled event log, and requires the same model, queue and counters:
// recording, logging and tracing only watch the Algorithm 1 loop.
func TestObservabilityNeverChangesTheModel(t *testing.T) {
	bare := runObservabilityScript(t, func(*System) {})

	var logs bytes.Buffer
	tel := telemetry.New(slog.New(slog.NewTextHandler(&logs, &slog.HandlerOptions{Level: slog.LevelDebug})), 64)
	var evlog *events.Log
	observed := runObservabilityScript(t, func(sys *System) {
		var err error
		evlog, err = events.OpenDir(t.TempDir(), telemetry.NewEventMetrics(tel.Registry),
			events.DirStoreOptions{}, events.CheckpointPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		sys.SetTelemetry(tel)
		sys.SetEvents(evlog)
	})
	defer evlog.Close()

	// The observed run really was observed.
	if evlog.LastSeq() == 0 || len(tel.Tracer.Recent()) == 0 ||
		!strings.Contains(logs.String(), "batch processed") ||
		!strings.Contains(tel.Registry.Expose(), `snaptask_ingest_batches_total{kind="annotation",result="ok"} 1`) {
		t.Fatal("the observed run recorded no journal, trace, log line or batch metric")
	}

	var a, b bytes.Buffer
	if err := bare.WriteSnapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := observed.WriteSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("snapshots differ between the bare and the observed run")
	}
	if !reflect.DeepEqual(bare.PendingTasks(), observed.PendingTasks()) {
		t.Error("pending tasks differ between the bare and the observed run")
	}
	bp, ba := bare.TasksIssued()
	op, oa := observed.TasksIssued()
	if bp != op || ba != oa || bare.PhotosProcessed() != observed.PhotosProcessed() {
		t.Errorf("counters differ: tasks %d/%d vs %d/%d, photos %d vs %d",
			bp, ba, op, oa, bare.PhotosProcessed(), observed.PhotosProcessed())
	}
}

// TestSetTelemetryReportsEarlierCasts processes the bootstrap bare, then
// wires telemetry: the casts counter must count the views cast before the
// wiring, which went to the no-op bundle at the time.
func TestSetTelemetryReportsEarlierCasts(t *testing.T) {
	sys, w, v := smallSystem(t)
	rng := rand.New(rand.NewSource(2))
	boot, err := BootstrapCapture(w, v, camera.DefaultIntrinsics(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ProcessBootstrap(boot, rng); err != nil {
		t.Fatal(err)
	}
	cast := sys.vis.Casts().New
	if cast == 0 {
		t.Fatal("the bootstrap cast no view")
	}
	sys.SetTelemetry(&telemetry.Telemetry{Registry: telemetry.NewRegistry()})
	if n := sys.ingestM.ViewCasts.With("new").Value(); n != uint64(cast) {
		t.Fatalf("SetTelemetry reported %d new casts; want the %d made before it", n, cast)
	}
}
