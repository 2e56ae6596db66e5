// Runtime watchdog: periodic runtime gauges (goroutines, heap, GC pause,
// scheduler latency), an owner-path stall detector, and triggered profile
// capture. The watchdog goroutine ticks once per Interval; each tick it
// measures how late the tick fired (a cheap proxy for scheduler latency —
// a healthy process wakes within microseconds of the timer), probes how
// long the owner mutex has been held continuously, and runs registered
// hooks (the SLO evaluator). When the owner path stalls past the
// threshold, or a hook requests it (fast SLO burn), goroutine/heap/CPU
// pprof profiles are written to ProfileDir with atomic tmp+rename naming
// and bounded retention — the evidence is on disk before anyone has to
// reproduce the incident.
//
// Like every other telemetry type, a nil *Watchdog no-ops everywhere.
package telemetry

import (
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// WatchdogConfig configures the runtime watchdog. Zero-valued fields take
// the documented defaults.
type WatchdogConfig struct {
	// Interval between watchdog ticks (default 1s).
	Interval time.Duration
	// StallThreshold: the owner mutex held continuously this long counts
	// as a stall and triggers profile capture (default 5s).
	StallThreshold time.Duration
	// ProfileDir receives triggered pprof profiles; empty disables capture.
	ProfileDir string
	// MaxProfiles bounds retained profile files in ProfileDir (default 24;
	// oldest are pruned).
	MaxProfiles int
	// CPUProfileDuration is how long the triggered CPU profile records
	// (default 2s; it is captured asynchronously).
	CPUProfileDuration time.Duration
	// CaptureCooldown rate-limits triggered captures (default 1m).
	CaptureCooldown time.Duration
	// OwnerBusy reports how long the owner mutex has been held continuously
	// (zero when free). Nil disables stall detection.
	OwnerBusy func() time.Duration
	// Logger receives stall and capture log lines; nil discards them.
	Logger *slog.Logger
}

// Watchdog is the runtime monitor. Construct with NewWatchdog, then Start.
type Watchdog struct {
	cfg WatchdogConfig

	stalls      *Counter
	profiles    *CounterVec
	schedLat    *Histogram
	ownerBusyG  *Gauge
	lastCapture atomic.Int64 // unix nanos of the last triggered capture

	hooksMu sync.Mutex
	hooks   []func()

	captureMu  sync.Mutex // serialises profile writes + retention pruning
	cpuActive  atomic.Bool
	stalled    bool // edge detection, watchdog goroutine only
	started    atomic.Bool
	stopOnce   sync.Once
	stop, done chan struct{}
}

// memStatsTTL bounds how often the scrape-time gauges call ReadMemStats.
const memStatsTTL = time.Second

// NewWatchdog builds the watchdog and registers the runtime gauge set on
// reg (nil reg: gauges are skipped, stall detection and capture still
// work).
func NewWatchdog(reg *Registry, cfg WatchdogConfig) *Watchdog {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.StallThreshold <= 0 {
		cfg.StallThreshold = 5 * time.Second
	}
	if cfg.MaxProfiles <= 0 {
		cfg.MaxProfiles = 24
	}
	if cfg.CPUProfileDuration <= 0 {
		cfg.CPUProfileDuration = 2 * time.Second
	}
	if cfg.CaptureCooldown <= 0 {
		cfg.CaptureCooldown = time.Minute
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	w := &Watchdog{
		cfg:  cfg,
		stop: make(chan struct{}),
		done: make(chan struct{}),
		stalls: reg.Counter("snaptask_watchdog_stalls_total",
			"Owner-path stalls detected (mutex held past the stall threshold)."),
		profiles: reg.CounterVec("snaptask_watchdog_profiles_total",
			"Triggered pprof profile captures.", "reason"),
		schedLat: reg.Histogram("snaptask_watchdog_sched_latency_seconds",
			"How late the watchdog tick fired past its interval (scheduler latency proxy).",
			[]float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
				0.025, 0.05, 0.1, 0.25, 0.5, 1}),
		ownerBusyG: reg.Gauge("snaptask_watchdog_owner_busy_seconds",
			"How long the owner mutex has been held continuously (0 = free)."),
	}

	// Runtime gauges: computed at scrape time; ReadMemStats results are
	// cached for memStatsTTL so a scrape storm cannot hammer the runtime.
	var (
		msMu   sync.Mutex
		ms     runtime.MemStats
		msRead time.Time
	)
	memstat := func(read func(*runtime.MemStats) float64) func() float64 {
		return func() float64 {
			msMu.Lock()
			defer msMu.Unlock()
			if time.Since(msRead) > memStatsTTL {
				runtime.ReadMemStats(&ms)
				msRead = time.Now()
			}
			return read(&ms)
		}
	}
	reg.GaugeFunc("snaptask_runtime_goroutines",
		"Live goroutines.", func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("snaptask_runtime_heap_alloc_bytes",
		"Bytes of allocated heap objects.",
		memstat(func(m *runtime.MemStats) float64 { return float64(m.HeapAlloc) }))
	reg.GaugeFunc("snaptask_runtime_heap_objects",
		"Live heap objects.",
		memstat(func(m *runtime.MemStats) float64 { return float64(m.HeapObjects) }))
	reg.GaugeFunc("snaptask_runtime_gc_cycles_total",
		"Completed GC cycles.",
		memstat(func(m *runtime.MemStats) float64 { return float64(m.NumGC) }))
	reg.GaugeFunc("snaptask_runtime_gc_pause_last_seconds",
		"Duration of the most recent GC stop-the-world pause.",
		memstat(func(m *runtime.MemStats) float64 {
			if m.NumGC == 0 {
				return 0
			}
			return float64(m.PauseNs[(m.NumGC+255)%256]) / 1e9
		}))
	return w
}

// SetOwnerBusy wires the owner-path probe after construction — the server
// calls it from New, where the owner lock exists. Call before Start.
func (w *Watchdog) SetOwnerBusy(fn func() time.Duration) {
	if w == nil {
		return
	}
	w.cfg.OwnerBusy = fn
}

// AddHook registers fn to run on every watchdog tick (the SLO evaluator
// hangs here). Call before Start.
func (w *Watchdog) AddHook(fn func()) {
	if w == nil {
		return
	}
	w.hooksMu.Lock()
	w.hooks = append(w.hooks, fn)
	w.hooksMu.Unlock()
}

// Start launches the watchdog goroutine. Stop tears it down.
func (w *Watchdog) Start() {
	if w == nil || !w.started.CompareAndSwap(false, true) {
		return
	}
	go w.run()
}

// Stop terminates the watchdog goroutine and waits for it to exit. Safe to
// call more than once, and a no-op if Start never ran.
func (w *Watchdog) Stop() {
	if w == nil || !w.started.Load() {
		return
	}
	w.stopOnce.Do(func() { close(w.stop) })
	<-w.done
}

func (w *Watchdog) run() {
	defer close(w.done)
	ticker := time.NewTicker(w.cfg.Interval)
	defer ticker.Stop()
	last := time.Now()
	for {
		select {
		case <-w.stop:
			return
		case now := <-ticker.C:
			// Tick lateness past the interval approximates how long a
			// runnable goroutine waited for the scheduler.
			if late := now.Sub(last) - w.cfg.Interval; late > 0 {
				w.schedLat.Observe(late.Seconds())
			}
			last = now
			w.tick()
		}
	}
}

// tick probes the owner path and runs hooks; split out for tests.
func (w *Watchdog) tick() {
	if w.cfg.OwnerBusy != nil {
		busy := w.cfg.OwnerBusy()
		w.ownerBusyG.Set(busy.Seconds())
		if busy >= w.cfg.StallThreshold {
			if !w.stalled {
				w.stalled = true
				w.stalls.Inc()
				w.cfg.Logger.Warn("owner-path stall detected",
					slog.Duration("busy", busy),
					slog.Duration("threshold", w.cfg.StallThreshold))
				w.CaptureProfiles("stall")
			}
		} else {
			w.stalled = false
		}
	}
	w.hooksMu.Lock()
	hooks := w.hooks
	w.hooksMu.Unlock()
	for _, fn := range hooks {
		fn()
	}
}

// CaptureProfiles writes goroutine and heap profiles (and kicks off an
// asynchronous CPU profile) into ProfileDir, tagged with the reason.
// Captures are rate-limited by CaptureCooldown; files are written via
// tmp+rename so a crash mid-write never leaves a torn profile, and the
// directory is pruned to MaxProfiles afterwards. No-op without a
// ProfileDir.
func (w *Watchdog) CaptureProfiles(reason string) {
	if w == nil || w.cfg.ProfileDir == "" {
		return
	}
	now := time.Now()
	last := w.lastCapture.Load()
	if last != 0 && now.Sub(time.Unix(0, last)) < w.cfg.CaptureCooldown {
		return
	}
	if !w.lastCapture.CompareAndSwap(last, now.UnixNano()) {
		return // lost the race: another capture is underway
	}
	if err := os.MkdirAll(w.cfg.ProfileDir, 0o755); err != nil {
		w.cfg.Logger.Error("profile dir", slog.String("err", err.Error()))
		return
	}
	w.profiles.With(reason).Inc()

	// Zero-padded nanos keep lexical order == capture order for pruning.
	stamp := fmt.Sprintf("%020d-%s", now.UnixNano(), reason)
	w.captureMu.Lock()
	for _, kind := range []string{"goroutine", "heap"} {
		name := filepath.Join(w.cfg.ProfileDir, stamp+"-"+kind+".pprof")
		if err := w.writeLookup(kind, name); err != nil {
			w.cfg.Logger.Error("profile capture failed",
				slog.String("kind", kind), slog.String("err", err.Error()))
		}
	}
	w.prune()
	w.captureMu.Unlock()
	w.cfg.Logger.Warn("captured profiles",
		slog.String("reason", reason), slog.String("dir", w.cfg.ProfileDir))

	// CPU profiling records for a window, so it runs detached; only one
	// can be active process-wide.
	if w.cpuActive.CompareAndSwap(false, true) {
		go w.captureCPU(stamp)
	}
}

// writeLookup writes one named pprof lookup profile atomically.
func (w *Watchdog) writeLookup(kind, path string) error {
	p := pprof.Lookup(kind)
	if p == nil {
		return fmt.Errorf("unknown profile %q", kind)
	}
	f, err := os.CreateTemp(filepath.Dir(path), ".profile-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	if err := p.WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

// captureCPU records a CPU profile for the configured window.
func (w *Watchdog) captureCPU(stamp string) {
	defer w.cpuActive.Store(false)
	path := filepath.Join(w.cfg.ProfileDir, stamp+"-cpu.pprof")
	f, err := os.CreateTemp(w.cfg.ProfileDir, ".profile-*.tmp")
	if err != nil {
		return
	}
	defer os.Remove(f.Name())
	if err := pprof.StartCPUProfile(f); err != nil {
		// Another CPU profile (e.g. via the pprof HTTP handler) is active.
		f.Close()
		return
	}
	time.Sleep(w.cfg.CPUProfileDuration)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return
	}
	w.captureMu.Lock()
	_ = os.Rename(f.Name(), path)
	w.prune()
	w.captureMu.Unlock()
}

// prune drops the oldest profiles past MaxProfiles. Caller holds
// captureMu.
func (w *Watchdog) prune() {
	entries, err := os.ReadDir(w.cfg.ProfileDir)
	if err != nil {
		return
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".pprof") {
			names = append(names, e.Name())
		}
	}
	if len(names) <= w.cfg.MaxProfiles {
		return
	}
	sort.Strings(names)
	for _, n := range names[:len(names)-w.cfg.MaxProfiles] {
		_ = os.Remove(filepath.Join(w.cfg.ProfileDir, n))
	}
}
