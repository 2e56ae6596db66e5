package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"snaptask/internal/camera"
	"snaptask/internal/client"
	"snaptask/internal/core"
	"snaptask/internal/server"
	"snaptask/internal/venue"
)

func TestBuildVenue(t *testing.T) {
	tests := []struct {
		name    string
		wantErr bool
	}{
		{"library", false},
		{"small", false},
		{"office", false},
		{"bogus", true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			v, err := venue.ByName(tt.name, 1)
			if (err != nil) != tt.wantErr {
				t.Fatalf("err = %v, wantErr %v", err, tt.wantErr)
			}
			if err == nil && v.Area() <= 0 {
				t.Error("empty venue")
			}
		})
	}
}

func TestRunFlagErrors(t *testing.T) {
	ctx := context.Background()
	if err := run(ctx, []string{"-venue", "bogus"}); err == nil {
		t.Error("bogus venue accepted")
	}
	if err := run(ctx, []string{"-not-a-flag"}); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run(ctx, []string{"-log-level", "shout"}); err == nil {
		t.Error("bogus log level accepted")
	}
	if err := run(ctx, []string{"-log-format", "xml"}); err == nil {
		t.Error("bogus log format accepted")
	}
	// -journal-dir is the only way a campaign persists; -journal and
	// -save are unknown flags. The trace store size and the watchdog's
	// tick and stall threshold are fixed in code.
	for _, flag := range []string{"-journal", "-save", "-trace-cap", "-watchdog-interval", "-stall-threshold"} {
		if err := run(ctx, []string{flag, "x"}); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s x: err = %v, want unknown flag", flag, err)
		}
	}
}

// TestPprofEndpoint starts the server with -pprof-addr and expects the
// profiling index to come up on the side listener (and only there — the
// default is off, covered by the main API mux having no /debug routes).
func TestPprofEndpoint(t *testing.T) {
	pprofAddr := freeAddr(t)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-venue", "small", "-pprof-addr", pprofAddr})
	}()
	defer func() {
		cancel()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("run did not return after context cancellation")
		}
	}()

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get("http://" + pprofAddr + "/debug/pprof/")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("pprof index status %d", resp.StatusCode)
			}
			// The span ring rides on the same debug listener.
			resp, err = http.Get("http://" + pprofAddr + "/debug/traces")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("debug traces status %d", resp.StatusCode)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pprof endpoint never came up: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestGracefulShutdown cancels the serve context (the SIGINT/SIGTERM path)
// and expects run to drain, write the shutdown checkpoint's model.snap into
// the -journal-dir, and return nil rather than ErrServerClosed.
func TestGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-venue", "small", "-journal-dir", dir})
	}()
	// Shutdown-before-Serve is handled by net/http (Serve returns
	// ErrServerClosed immediately), so an early cancel is safe too.
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v, want nil on graceful shutdown", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after context cancellation")
	}

	// The checkpointed model restores into a working system.
	f, err := os.Open(filepath.Join(dir, "model.snap"))
	if err != nil {
		t.Fatalf("model not checkpointed: %v", err)
	}
	defer f.Close()
	v, err := venue.ByName("small", 42)
	if err != nil {
		t.Fatal(err)
	}
	world := camera.NewWorld(v, v.GenerateFeatures(rand.New(rand.NewSource(42))))
	if _, err := core.LoadSystem(f, v, world); err != nil {
		t.Fatalf("checkpointed model does not load: %v", err)
	}
}

// TestShutdownCheckpointFailureFailsRun pins that a shutdown checkpoint
// that cannot write the model is an error, not a log line: a non-empty
// directory squats on <journal-dir>/model.snap, so the atomic rename
// fails, and run must return an error naming the path.
func TestShutdownCheckpointFailureFailsRun(t *testing.T) {
	addr := freeAddr(t)
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", addr, "-venue", "small", "-journal-dir", dir, "-log-level", "error"})
	}()
	waitOK(t, addr, "/healthz")

	snap := filepath.Join(dir, "model.snap")
	if err := os.MkdirAll(filepath.Join(snap, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("run returned nil although the shutdown checkpoint could not write the model")
		}
		if !strings.Contains(err.Error(), snap) {
			t.Fatalf("run error %q does not name %s", err, snap)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after context cancellation")
	}
}

// TestLeaseLifecycleE2E drives the full dispatch story against the real
// server entrypoint: registration, claims, reassignment after the holder
// stops heartbeating, blur exclusion, and a restart over the journal that
// restores the /v1/status dispatch section byte-identically.
func TestLeaseLifecycleE2E(t *testing.T) {
	addr := freeAddr(t)
	args := []string{
		"-addr", addr, "-venue", "small", "-journal-dir", t.TempDir(),
		"-lease-ttl", "1s", "-log-level", "error",
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, args) }()
	waitOK(t, addr, "/readyz")

	// The same simulated world the server derives from -venue/-seed.
	v, err := venue.ByName("small", 42)
	if err != nil {
		t.Fatal(err)
	}
	world := camera.NewWorld(v, v.GenerateFeatures(rand.New(rand.NewSource(42))))
	rng := rand.New(rand.NewSource(9))
	cl := client.New("http://"+addr, nil)

	photos, err := core.BootstrapCapture(world, v, camera.DefaultIntrinsics(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.UploadBootstrap(photos); err != nil {
		t.Fatal(err)
	}

	w1, err := cl.RegisterWorker(server.RegisterWorkerRequest{})
	if err != nil {
		t.Fatal(err)
	}
	w2, err := cl.RegisterWorker(server.RegisterWorkerRequest{})
	if err != nil {
		t.Fatal(err)
	}

	// w1 claims and goes silent; past the TTL the task is w2's.
	task1, ok, err := cl.Claim(w1.ID, nil)
	if err != nil || !ok {
		t.Fatalf("w1 claim: ok=%v err=%v", ok, err)
	}
	time.Sleep(1500 * time.Millisecond)
	task2, ok, err := cl.Claim(w2.ID, nil)
	if err != nil || !ok {
		t.Fatalf("w2 claim after expiry: ok=%v err=%v", ok, err)
	}
	if task2.ID != task1.ID {
		t.Fatalf("w2 got task %d, want the abandoned task %d", task2.ID, task1.ID)
	}

	// w2 uploads a careless, fully blurred sweep: the task is re-issued
	// with w2 excluded.
	if _, err := cl.Heartbeat(w2.ID); err != nil {
		t.Fatal(err)
	}
	blurry, err := world.Sweep(task2.Location, camera.DefaultIntrinsics(),
		camera.CaptureOptions{MotionBlurLen: 14}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.UploadPhotos(task2, blurry); err != nil {
		t.Fatalf("blurry upload: %v", err)
	}
	if _, ok, err := cl.Claim(w2.ID, nil); err != nil || ok {
		t.Fatalf("blur-excluded worker was reassigned the task: ok=%v err=%v", ok, err)
	}
	task3, ok, err := cl.Claim(w1.ID, nil)
	if err != nil || !ok {
		t.Fatalf("w1 claim of re-issued task: ok=%v err=%v", ok, err)
	}
	if task3.ID == task2.ID {
		t.Fatal("re-issued task kept the old ID")
	}

	before := dispatchStatusJSON(t, addr)

	// Restart over the same journal.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("first run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("first run did not stop")
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	done2 := make(chan error, 1)
	go func() { done2 <- run(ctx2, args) }()
	defer func() {
		cancel2()
		select {
		case <-done2:
		case <-time.After(30 * time.Second):
			t.Fatal("second run did not stop")
		}
	}()
	waitOK(t, addr, "/readyz")

	after := dispatchStatusJSON(t, addr)
	if before != after {
		t.Fatalf("dispatch status diverged across restart:\nbefore: %s\nafter:  %s", before, after)
	}
}

// freeAddr returns a loopback address with a port that was free a moment
// ago.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// waitOK polls path until the server answers it with 200.
func waitOK(t *testing.T, addr, path string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + path)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never answered %s: %v", path, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// dispatchStatusJSON fetches /v1/status and renders its dispatch section
// canonically (map keys sort on marshal).
func dispatchStatusJSON(t *testing.T, addr string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	d, ok := status["dispatch"]
	if !ok {
		t.Fatal("status has no dispatch section")
	}
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
