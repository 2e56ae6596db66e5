// Command snaptask-agent is the mobile-client simulator: a guided
// participant that connects to a snaptask-server backend, optionally
// uploads the bootstrap capture, then registers its workers and claims
// tasks under leases, navigates to them, performs 360° sweeps or annotation
// photo sets and uploads the results — the role the paper's Android app and
// its human carrier play.
//
// The agent must be started with the same -venue and -seed as the server
// so that its camera observes the same simulated world.
//
// Usage:
//
//	snaptask-agent -server http://127.0.0.1:8080 -venue library -seed 42 -bootstrap
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"os"
	"time"

	"snaptask/internal/camera"
	"snaptask/internal/client"
	"snaptask/internal/core"
	"snaptask/internal/crowd"
	"snaptask/internal/loadgen"
	"snaptask/internal/server"
	"snaptask/internal/telemetry"
	"snaptask/internal/venue"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "snaptask-agent:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("snaptask-agent", flag.ContinueOnError)
	serverURL := fs.String("server", "http://127.0.0.1:8080", "backend base URL")
	venueName := fs.String("venue", "library", "venue: library, small or office")
	seed := fs.Int64("seed", 42, "world seed (must match the server)")
	campaignID := fs.String("campaign", "",
		"target campaign ID; requests go to /v1/campaigns/{id}/... (empty = server default campaign)")
	agentSeed := fs.Int64("agent-seed", 7, "agent behaviour seed")
	bootstrap := fs.Bool("bootstrap", false, "upload the initial entrance capture first")
	maxTasks := fs.Int("tasks", 300, "maximum tasks to execute per worker")
	blurProb := fs.Float64("blur", 0, "probability of a careless blurred sweep")
	workers := fs.Int("workers", 1,
		"simulated workers (at least 1); each registers with the dispatcher and claims tasks under leases")
	crashProb := fs.Float64("crash", 0,
		"per-claim probability a worker vanishes mid-lease without heartbeating, exercising expiry requeue")
	think := fs.Duration("think", 0,
		"median heavy-tail think time, resampled every loop iteration (0 = fixed 50ms idle poll)")
	thinkSigma := fs.Float64("think-sigma", 1.0,
		"lognormal spread of -think (1.0 gives a ~7x p99/median ratio)")
	logLevel := fs.String("log-level", "info", "log level: debug, info, warn, error")
	logFormat := fs.String("log-format", "text", "log format: text or json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers < 1 {
		return fmt.Errorf("-workers must be at least 1, got %d", *workers)
	}

	logger, err := telemetry.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}

	v, err := venue.ByName(*venueName, *seed)
	if err != nil {
		return err
	}
	feats := v.GenerateFeatures(rand.New(rand.NewSource(*seed)))
	world := camera.NewWorld(v, feats)
	gt, err := v.GroundTruth(0.15)
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(*agentSeed))
	cl := client.New(*serverURL, nil)
	if *campaignID != "" {
		cl = cl.WithCampaign(*campaignID)
	}
	// Every request the fleet sends carries a client-minted request ID and
	// W3C traceparent; logging them here lets a slow or failed server-side
	// trace be joined back to the exact agent call that caused it.
	cl.OnRequest = func(info client.RequestInfo) {
		logger.Debug("request",
			slog.String("method", info.Method),
			slog.String("path", info.Path),
			slog.String("request_id", info.RequestID),
			slog.String("trace_id", info.TraceID))
	}
	walkMap := v.WalkMap(gt)
	// A heavy-tailed think time is resampled every loop iteration, so one
	// worker's slow stretch does not pin it slow for the whole run.
	var thinkFn func(*rand.Rand) time.Duration
	if *think > 0 {
		tt := loadgen.ThinkTime{Median: *think, Sigma: *thinkSigma, Max: 20 * *think}
		thinkFn = tt.Sample
	}

	if *bootstrap {
		photos, err := core.BootstrapCapture(world, v, camera.DefaultIntrinsics(), rng)
		if err != nil {
			return fmt.Errorf("bootstrap capture: %w", err)
		}
		resp, err := cl.UploadBootstrap(photos)
		if err != nil {
			return fmt.Errorf("bootstrap upload: %w", err)
		}
		logger.Info("bootstrap uploaded",
			slog.Int("registered", resp.Registered),
			slog.Int("points", resp.NewPoints))
	}

	// Each fleet worker gets its own client.Client (sharing one
	// http.Client's connection pool) so 429 retries and sheds attribute to
	// the worker that suffered them.
	hc := &http.Client{}
	newAgent := func() *client.Agent {
		wc := client.New(*serverURL, hc)
		if *campaignID != "" {
			wc = wc.WithCampaign(*campaignID)
		}
		wc.OnRequest = cl.OnRequest
		return &client.Agent{
			Client: wc,
			Worker: &crowd.GuidedWorker{
				World:      world,
				Venue:      v,
				Intrinsics: camera.DefaultIntrinsics(),
				Pos:        v.Entrance(),
				BlurProb:   *blurProb,
			},
			Venue:     v,
			WalkMap:   walkMap,
			CrashProb: *crashProb,
			Think:     thinkFn,
		}
	}
	if err := runFleet(logger, newAgent, *workers, *maxTasks, *agentSeed); err != nil {
		return err
	}

	status, err := cl.Status()
	if err != nil {
		return err
	}
	logger.Info("backend status",
		slog.Int("views", status.Views),
		slog.Int("points", status.Points),
		slog.Int("photos", status.PhotosProcessed),
		slog.Int("photo_tasks", status.PhotoTasks),
		slog.Int("annotation_tasks", status.AnnotationTasks),
		slog.Bool("covered", status.Covered))
	return nil
}

// runFleet registers n workers with the dispatcher and runs each one's
// lease-aware claim loop concurrently, each with its own simulated body,
// behaviour seed and HTTP client (so shed/retry counts attribute to the
// worker that suffered them). Per-worker stats — including 429 retries and
// residual sheds — are logged as each finishes; the first worker error (if
// any) is returned after all have stopped.
func runFleet(logger *slog.Logger, newAgent func() *client.Agent, n, maxTasks int, agentSeed int64) error {
	type result struct {
		id      string
		stats   client.AgentStats
		retried uint64
		err     error
	}
	results := make(chan result, n)
	for i := 0; i < n; i++ {
		a := newAgent()
		wrng := rand.New(rand.NewSource(agentSeed + int64(i)))
		go func() {
			pos := a.Worker.Pos
			reg, err := a.Client.RegisterWorker(server.RegisterWorkerRequest{
				X: pos.X, Y: pos.Y, HasLoc: true,
			})
			if err != nil {
				results <- result{err: err}
				return
			}
			stats, err := a.RunWorker(reg.ID, maxTasks, wrng)
			results <- result{id: reg.ID, stats: stats, retried: a.Client.Retried429(), err: err}
		}()
	}
	var firstErr error
	var totalSheds, totalRetried uint64
	for i := 0; i < n; i++ {
		r := <-results
		if r.err != nil {
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		totalSheds += uint64(r.stats.Sheds)
		totalRetried += r.retried
		// shed_rate is residual sheds per claim-loop attempt: how often the
		// backend's backpressure actually cost this worker an iteration.
		attempts := r.stats.Claims + r.stats.Sheds
		var shedRate float64
		if attempts > 0 {
			shedRate = float64(r.stats.Sheds) / float64(attempts)
		}
		logger.Info("worker done",
			slog.String("worker", r.id),
			slog.Int("claims", r.stats.Claims),
			slog.Int("photo_tasks", r.stats.PhotoTasks),
			slog.Int("annotation_tasks", r.stats.AnnotationTasks),
			slog.Int("crashes", r.stats.Crashes),
			slog.Int("lost_leases", r.stats.LostLeases),
			slog.Int("duplicates", r.stats.Duplicates),
			slog.Int("sheds", r.stats.Sheds),
			slog.Uint64("retried_429", r.retried),
			slog.Float64("shed_rate", shedRate),
			slog.Bool("covered", r.stats.Covered))
	}
	if totalSheds > 0 || totalRetried > 0 {
		logger.Info("fleet backpressure",
			slog.Uint64("sheds", totalSheds),
			slog.Uint64("retried_429", totalRetried))
	}
	return firstErr
}
