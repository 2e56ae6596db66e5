// Command snaptask-server runs the SnapTask backend over HTTP: task
// generation, photo-batch ingestion into the incremental SfM model, the
// featureless-surface annotation pipeline and map serving.
//
// The simulated world (venue + visual features) is derived
// deterministically from -venue and -seed; agents must be started with the
// same pair so that their cameras observe the same world.
//
// One process hosts many concurrent venue campaigns: -venue/-seed define
// the default campaign that every legacy route aliases to, POST
// /v1/campaigns creates more (each with its own model, owner lock, journal
// directory, dispatcher and admission queue), /v1/campaigns/{id}/... scopes
// any campaign route (a worker registers with one campaign and claims its
// tasks there), and /v1/status + /metrics carry per-campaign rollups.
// Named campaigns are journaled under <journal-dir>/campaigns/<id>/ and
// restored on restart.
//
// Observability: GET /metrics on the main listener exposes the Prometheus
// text exposition, GET /v1/slo reports multi-window burn rates against the
// per-endpoint latency/error objectives, GET /healthz and /readyz are the
// liveness / readiness probes, and all request and batch logging goes
// through log/slog (-log-level, -log-format). Pass -pprof-addr
// localhost:6060 to expose a separate debug listener with net/http/pprof
// plus GET /debug/traces, the tail-sampled span store of recent, error and
// slowest request traces (off by default). Pass -profile-dir to let the
// runtime watchdog write goroutine/heap/CPU profiles there when the owner
// lock is held past 5 s or an SLO burns fast.
//
// Admission control keeps overload observable and survivable: -max-queue
// bounds the owner-path queue (excess requests are shed with 429 +
// Retry-After instead of convoying on the lock), -rate-limit/-rate-burst
// token-bucket-limit each worker, -max-body-bytes caps uploads, and
// -write-timeout arms per-response deadlines against slow clients. Sheds
// are counted in snaptask_requests_shed_total{cause}, retained as error
// traces, and coalesced onto the event bus as load_shed events.
//
// Pass -journal-dir campaign.d to persist the campaign: every lifecycle
// transition lands in rotating JSONL segments, GET /v1/events streams the
// feed live over SSE (resumable via Last-Event-ID), and GET /v1/progress
// serves the derived coverage/photos/tasks time series. A checkpoint of the
// folded campaign and dispatch state is written periodically
// (-checkpoint-interval, -checkpoint-every), fully covered segments are
// compacted away, and a restart replays only the tail after the newest
// checkpoint — restart cost stays flat no matter how long the campaign has
// run.
//
// The server shuts down gracefully on SIGINT/SIGTERM: in-flight requests
// on both listeners drain (bounded by -shutdown-timeout) and, with
// -journal-dir, a final checkpoint writes each campaign's model to
// model.snap in its journal directory, so the next start resumes it. A
// failed final checkpoint makes the process exit non-zero. -load imports
// a model snapshot (GET /v1/snapshot exports one) into the default
// campaign.
//
// Usage:
//
//	snaptask-server -addr :8080 -venue library -seed 42
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"snaptask/internal/camera"
	"snaptask/internal/campaign"
	"snaptask/internal/core"
	"snaptask/internal/events"
	"snaptask/internal/server"
	"snaptask/internal/telemetry"
	"snaptask/internal/venue"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "snaptask-server:", err)
		os.Exit(1)
	}
}

// run serves until the listener fails or ctx is cancelled (the signal
// path); cancellation drains connections and returns nil on a clean stop.
func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("snaptask-server", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	venueName := fs.String("venue", "library", "venue: library, small or office")
	seed := fs.Int64("seed", 42, "world seed (agents must use the same)")
	margin := fs.Float64("margin", 12, "map margin beyond the venue bounds (m)")
	statePath := fs.String("load", "", "resume from a snapshot file (see GET /v1/snapshot)")
	journalDir := fs.String("journal-dir", "",
		"checkpointing event store directory (segments + periodic checkpoints, and model.snap written at shutdown): restart replays only the tail after the newest checkpoint instead of the full history")
	checkpointInterval := fs.Duration("checkpoint-interval", time.Minute,
		"with -journal-dir: write a checkpoint when this much time has passed since the last one (0 disables the time trigger)")
	checkpointEvery := fs.Uint64("checkpoint-every", 4096,
		"with -journal-dir: write a checkpoint after this many events since the last one (0 disables the count trigger)")
	segmentMaxBytes := fs.Int64("journal-segment-bytes", 4<<20,
		"with -journal-dir: rotate the active journal segment beyond this size (a checkpoint covering the whole segment also rotates it)")
	leaseTTL := fs.Duration("lease-ttl", 60*time.Second,
		"task lease duration: a claimed task whose worker stops heartbeating this long is requeued for other workers")
	incentiveBudget := fs.Float64("incentive-budget", 0,
		"campaign incentive budget; >0 enables incentive-aware task assignment for workers that report a location")
	drain := fs.Duration("shutdown-timeout", 10*time.Second, "graceful shutdown drain limit")
	pprofAddr := fs.String("pprof-addr", "",
		"serve net/http/pprof and /debug/traces on this address (e.g. localhost:6060); empty disables")
	logLevel := fs.String("log-level", "info", "log level: debug, info, warn, error")
	logFormat := fs.String("log-format", "text", "log format: text or json")
	profileDir := fs.String("profile-dir", "",
		"directory for watchdog-triggered pprof profiles (owner-path stalls, fast SLO burns); empty disables triggered capture")
	maxQueue := fs.Int("max-queue", 256,
		"bounded owner-path admission queue: requests beyond this many waiting for (or holding) the owner lock are shed with 429 + Retry-After; 0 disables the bound")
	rateLimit := fs.Float64("rate-limit", 0,
		"per-worker token-bucket rate limit in requests/second (429 + Retry-After beyond it); 0 disables rate limiting")
	rateBurst := fs.Float64("rate-burst", 0,
		"token-bucket burst size; 0 defaults to max(1, -rate-limit)")
	maxBodyBytes := fs.Int64("max-body-bytes", 8<<20,
		"request body size cap (413 beyond it); 0 disables the cap")
	writeTimeout := fs.Duration("write-timeout", 30*time.Second,
		"per-response write deadline against slow-reading clients (SSE streams are exempt); 0 disables")
	if err := fs.Parse(args); err != nil {
		return err
	}

	logger, err := telemetry.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	tel := telemetry.New(logger, 64)

	// -load restores the default campaign's model from an explicit snapshot
	// file; otherwise the manager restores <journal-dir>/model.snap when
	// present, or builds a fresh system from the spec.
	var sys *core.System
	if *statePath != "" {
		v, err := venue.ByName(*venueName, *seed)
		if err != nil {
			return err
		}
		world := camera.NewWorld(v, v.GenerateFeatures(rand.New(rand.NewSource(*seed))))
		f, err := os.Open(*statePath)
		if err != nil {
			return fmt.Errorf("open snapshot: %w", err)
		}
		sys, err = core.LoadSystem(f, v, world)
		closeErr := f.Close()
		if err != nil {
			return fmt.Errorf("load snapshot: %w", err)
		}
		if closeErr != nil {
			return closeErr
		}
		logger.Info("resumed session",
			slog.Int("photos_processed", sys.PhotosProcessed()),
			slog.Bool("covered", sys.Covered()))
	}
	wd := telemetry.NewWatchdog(tel.Registry, telemetry.WatchdogConfig{
		ProfileDir: *profileDir,
		Logger:     logger,
	})
	// The campaign manager hosts every venue campaign (the legacy routes
	// alias to the default one) and restores named campaigns from the
	// journal root's manifest before the default is installed.
	mgr, err := campaign.NewManager(campaign.ManagerConfig{
		JournalRoot:     *journalDir,
		SegmentMaxBytes: *segmentMaxBytes,
		Checkpoint:      events.CheckpointPolicy{Interval: *checkpointInterval, Every: *checkpointEvery},
		Admission: server.AdmissionConfig{
			MaxQueue:     *maxQueue,
			RatePerSec:   *rateLimit,
			RateBurst:    *rateBurst,
			MaxBodyBytes: *maxBodyBytes,
			WriteTimeout: *writeTimeout,
		},
		LeaseTTL:        *leaseTTL,
		IncentiveBudget: *incentiveBudget,
		Telemetry:       tel,
		Watchdog:        wd,
	})
	if err != nil {
		return err
	}
	def, err := mgr.CreateDefault(campaign.Spec{
		Venue:  *venueName,
		Seed:   *seed,
		Margin: *margin,
	}, sys)
	if err != nil {
		return err
	}
	defer func() {
		if err := mgr.Close(); err != nil {
			logger.Error("journal close failed", slog.String("err", err.Error()))
		}
	}()
	// Start after the campaigns are built: building wires the owner-busy
	// probe and the SLO evaluation hooks into the watchdog, and ticks
	// before that wiring would probe nothing.
	wd.Start()
	defer wd.Stop()
	if *profileDir != "" {
		logger.Info("watchdog armed", slog.String("profile_dir", *profileDir))
	}
	if *journalDir != "" {
		evlog := def.Log()
		c := evlog.Campaign().Counters()
		logger.Info("journal replayed",
			slog.String("path", *journalDir),
			slog.Uint64("events", evlog.LastSeq()),
			slog.Uint64("checkpoint_seq", evlog.CheckpointSeq()),
			slog.Int("batches_accepted", c.BatchesAccepted),
			slog.Int("photos", c.PhotosProcessed),
			slog.Int("coverage_cells", c.CoverageCells),
			slog.Bool("covered", c.Covered))
	}
	if n := len(mgr.List()); n > 1 {
		logger.Info("campaigns restored", slog.Int("campaigns", n))
	}

	var pprofServer *http.Server
	if *pprofAddr != "" {
		// A dedicated mux, not http.DefaultServeMux: only the profiling
		// handlers and the trace ring are exposed on the debug listener,
		// and nothing a third-party import sneaks onto the default mux.
		debugMux := http.NewServeMux()
		debugMux.HandleFunc("/debug/pprof/", pprof.Index)
		debugMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		debugMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		debugMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		debugMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debugMux.Handle("GET /debug/traces", tel.Tracer.Handler())
		pprofServer = &http.Server{
			Addr:              *pprofAddr,
			Handler:           debugMux,
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			logger.Info("debug listener up",
				slog.String("pprof", "http://"+*pprofAddr+"/debug/pprof/"),
				slog.String("traces", "http://"+*pprofAddr+"/debug/traces"))
			if err := pprofServer.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", slog.String("err", err.Error()))
			}
		}()
	}

	logger.Info("listening",
		slog.String("addr", *addr),
		slog.String("venue", *venueName),
		slog.Int("campaigns", len(mgr.List())))
	httpServer := &http.Server{
		Addr:              *addr,
		Handler:           mgr,
		ReadHeaderTimeout: 5 * time.Second,
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpServer.ListenAndServe() }()

	select {
	case err := <-serveErr:
		// Listener failure before any signal; nothing to drain. The debug
		// listener (if any) dies with the process.
		return err
	case <-ctx.Done():
	}

	logger.Info("shutting down", slog.Duration("drain_limit", *drain))
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Drain both listeners inside the same window: an in-flight profile
	// download gets the same grace as an in-flight upload, instead of the
	// abrupt Close the debug listener used to get.
	var (
		wg            sync.WaitGroup
		pprofShutdown error // written before wg.Done, read after wg.Wait
	)
	if pprofServer != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pprofShutdown = pprofServer.Shutdown(drainCtx)
		}()
	}
	shutdownErr := httpServer.Shutdown(drainCtx)
	wg.Wait()
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if shutdownErr != nil {
		return fmt.Errorf("shutdown: %w", shutdownErr)
	}
	if pprofShutdown != nil {
		return fmt.Errorf("debug listener shutdown: %w", pprofShutdown)
	}
	if *journalDir != "" {
		// A final checkpoint (event-log checkpoint + model snapshot, per
		// campaign) makes the next start replay an empty tail. It is the
		// only place the model is persisted, so its failure fails the run.
		if err := mgr.Checkpoint(); err != nil {
			return fmt.Errorf("shutdown checkpoint: %w", err)
		}
	}
	return nil
}
