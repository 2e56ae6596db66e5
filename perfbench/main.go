// Command perfbench is the repository benchmark: it builds on the real
// snaptask-server binary, spawns it as a child process, drives it over
// loopback from this single generator process, checks every answer, and
// prints each metric by name with its unit.
//
// Usage, from the repository root (perfbench/run.sh builds both binaries):
//
//	bash perfbench/run.sh --workload ingest|serve|mixed --seed N --seconds S --trace 0|1
//
// Workloads, all on the library venue and all through the campaign-scoped
// routes /v1/campaigns/{id}/...:
//
//   - ingest: two campaigns created through POST /v1/campaigns, each
//     driven from bootstrap by one closed-loop guided worker (claim, sweep
//     at the task, upload under the lease) until it stops issuing tasks;
//     then an open-loop read check of the finished models and graceful
//     restarts over the same -journal-dir.
//   - serve: a model prepared in-process and loaded with -load, driven by
//     open-loop Poisson reads (locate, map, status) and claims at a ladder
//     of fixed rates, then a closed-loop upload probe and graceful
//     restarts.
//   - mixed: the serve read and claim stream at one rate beside an
//     open-loop stream of full-sweep uploads into a model that is still
//     growing, then graceful restarts.
//
// With --trace 0 the last stdout line reports the end-to-end metrics; with
// --trace 1 it reports the per-layer metrics, and a layer table is
// printed. Every run writes its raw record under
// .bench_build/perfbench/results/.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// endToEnd lists the metrics every --trace 0 run reports on its result
// line, in BENCHMARK.json order: the ones every workload measures with a
// run-to-run spread well inside their bound on a shared 2-core host. The
// latencies (upload_p50_ms, upload_p90_ms, locate_p50_ms, locate_p99_ms,
// claim_p50_ms, claim_p99_ms, map_p99_ms) spread 0.17 to 0.9 of their
// median between seeds there and ingest_photos_per_s up to 0.21 on serve,
// serve_capacity_rps is one of four ladder rates, and failed_ratio is 0
// on a healthy run (it is the result line's failed/attempted); all of
// them are printed and recorded with the rest.
var endToEnd = []string{"setup_s", "restart_s", "peak_rss_mb"}

// runCtx is the state of one benchmark run.
type runCtx struct {
	ctx       context.Context
	sup       *supervisor
	root      string
	serverBin string
	dir       string // the run's temporary directory
	workload  string
	seed      int64
	seconds   time.Duration
	trace     bool
	nproc     int
	tally     *tally
	gen       *genStats
	e2e       map[string]metric // end-to-end metrics, incl. workload-only ones
	layers    map[string]metric // per-layer metrics (--trace 1)
	table     []layerRow        // per-endpoint layer table (--trace 1)
	phase     prom              // /metrics difference over the measured phase (--trace 1)
	notes     []string          // unmeasured layers and validity notes
	valid     bool              // false when the generator fell behind
	start     time.Time
}

func (r *runCtx) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: %6.1fs "+format+"\n", append([]any{time.Since(r.start).Seconds()}, args...)...)
}

func (r *runCtx) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// serverEnv pins the child's GOMAXPROCS so the record states it rather
// than assuming the runtime default.
func (r *runCtx) serverEnv() []string {
	return []string{"GOMAXPROCS=" + strconv.Itoa(r.nproc)}
}

// setUp starts the server n times through start, keeping the last child
// and stopping the others, and reports the median start time as setup_s.
// start must return only once the server is ready with the workload's
// model; fresh gives it an empty journal directory each time.
func (r *runCtx) setUp(n int, start func(journal string) (*serverProc, error)) (*serverProc, string, error) {
	var times []time.Duration
	for i := 0; i < n; i++ {
		journal, err := r.sup.tempDir(r.dir, "journal-")
		if err != nil {
			return nil, "", err
		}
		t0 := time.Now()
		p, err := start(journal)
		if err != nil {
			return nil, "", fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0))
		if i == n-1 {
			r.e2e["setup_s"] = medianSeconds(times)
			return p, journal, nil
		}
		if err := r.sup.stop(p, stopGrace); err != nil {
			return nil, "", fmt.Errorf("set-up: stop: %w", err)
		}
		if err := os.RemoveAll(journal); err != nil {
			return nil, "", err
		}
	}
	return nil, "", errors.New("set-up: no attempts")
}

// restarts stops p gracefully and starts it again with args, first once
// untimed and then timed until minRestarts restarts have taken at least
// restartSpan together. Each restart runs from SIGTERM until the new
// process is ready and every status path answers byte-identically to its
// value before the shutdown. It reports the median of the timed restarts
// as restart_s and returns the last child. The untimed restart is a
// warm-up: the first one after a phase runs consistently slower while the
// host settles from that phase, and would otherwise be one of the samples.
func (r *runCtx) restarts(p *serverProc, args []string, statusPaths []string) (*serverProc, error) {
	before, err := r.fetchAll(p, statusPaths)
	if err != nil {
		return p, err
	}
	// Return the generator's garbage now, so that its collector and
	// scavenger do not run beside the timed restarts.
	debug.FreeOSMemory()
	var (
		times []time.Duration
		span  time.Duration
	)
	for i := 0; len(times) < minRestarts || span < restartSpan; i++ {
		t0 := time.Now()
		if err := r.sup.stop(p, stopGrace); err != nil {
			return p, fmt.Errorf("restart: graceful stop failed: %w; log: %s", err, tailFile(p.logPath, 5))
		}
		stopped := time.Since(t0)
		p, err = r.sup.start(r.ctx, r.serverBin, args, r.serverEnv(), p.logPath)
		if err != nil {
			return p, fmt.Errorf("restart: %w", err)
		}
		ready := time.Since(t0)
		after, err := r.fetchAll(p, statusPaths)
		if err != nil {
			return p, err
		}
		elapsed := time.Since(t0)
		r.logf("restart %d: stopped %.3fs, ready %.3fs, status %.3fs", i, stopped.Seconds(), ready.Seconds(), elapsed.Seconds())
		for j, path := range statusPaths {
			if string(after[j]) != string(before[j]) {
				r.tally.fail(fmt.Errorf("restart %d: %s differs after restart:\nbefore %s\nafter  %s", i, path, before[j], after[j]))
				return p, nil
			}
		}
		if i > 0 {
			times = append(times, elapsed)
			span += elapsed
		}
	}
	r.e2e["restart_s"] = medianSeconds(times)
	return p, nil
}

func (r *runCtx) fetchAll(p *serverProc, paths []string) ([][]byte, error) {
	c := newHTTPClient(p.base(), 1)
	defer c.close()
	out := make([][]byte, len(paths))
	for i, path := range paths {
		data, err := c.getJSON(r.ctx, path, nil)
		if err != nil {
			return nil, err
		}
		out[i] = data
	}
	return out, nil
}

// recordRSS stores the child's peak resident set as peak_rss_mb.
func (r *runCtx) recordRSS(p *serverProc) error {
	mb, err := peakRSSMB(p.pid)
	if err != nil {
		return err
	}
	r.e2e["peak_rss_mb"] = metric{Value: mb, Unit: "MB", Samples: 1}
	return nil
}

// latency stores the p-th percentile of a request kind under name; a
// median is taken over time windows (see windowedMedian).
func (r *runCtx) latency(t *tally, name, kind string, p float64) {
	if p == 50 {
		r.e2e[name] = windowedMedian(t.samples(kind))
		return
	}
	r.e2e[name] = latencyMetric(t.latencies(kind), p)
}

// checkGenerator marks the run invalid when the open-loop schedule ran
// late: its latencies would then not measure the server.
func (r *runCtx) checkGenerator(late []time.Duration) {
	m := latencyMetric(late, 99)
	r.layers["gen.late_p99_ms"] = m
	r.note("generator late p%g %.2f ms over %d requests", m.Percentile, m.Value, m.Samples)
	if m.Value > lateLimitMS {
		r.valid = false
		r.note("generator fell behind: late p%.0f %.1f ms > %d ms; open-loop latencies of this run are invalid", m.Percentile, m.Value, lateLimitMS)
	}
}

// lateLimitMS is how late (p99) the open-loop dispatcher may run before a
// run's open-loop latencies are declared invalid.
const lateLimitMS = 20

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the raw, comparable result of one run.
type record struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      bool              `json:"trace"`
	Correct    bool              `json:"correct"`
	Valid      bool              `json:"valid"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Refused    int               `json:"refused"`
	Wrong      int               `json:"wrong"`
	FirstError string            `json:"first_error,omitempty"`
	EndToEnd   map[string]metric `json:"end_to_end"`
	PerLayer   map[string]metric `json:"per_layer,omitempty"`
	LayerTable []layerRow        `json:"layer_table,omitempty"`
	Notes      []string          `json:"notes,omitempty"`
	Nproc      int               `json:"nproc"`
	GenProcs   int               `json:"gomaxprocs_generator"`
	SrvProcs   int               `json:"gomaxprocs_server"`
	GoVersion  string            `json:"go_version"`
	Commit     string            `json:"commit"`
	WallS      float64           `json:"wall_s"`
}

func main() {
	os.Exit(mainCode())
}

func mainCode() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	root := fs.String("root", ".", "repository checkout root")
	serverBin := fs.String("server", "", "snaptask-server binary built from the checkout")
	workload := fs.String("workload", "", "ingest, serve or mixed")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "measured phase length in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	run, ok := workloads[*workload]
	if !ok || *serverBin == "" || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "perfbench: need -server, --workload ingest|serve|mixed, --seconds >= 1 and --trace 0|1")
		return 2
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)

	r := &runCtx{
		root: *root, serverBin: *serverBin, workload: *workload, seed: *seed,
		seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		nproc: nproc, tally: newTally(), gen: &genStats{},
		e2e: map[string]metric{}, layers: map[string]metric{}, valid: true,
		start: time.Now(),
	}
	r.sup = newSupervisor(r.logf)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r.ctx = ctx

	// SIGINT/SIGTERM: stop every child and remove every temporary
	// directory before exiting, wherever the run is.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig, ok := <-sigc
		if !ok {
			return
		}
		cancel()
		r.sup.cleanup()
		r.logf("interrupted by %v; server stopped", sig)
		os.Exit(128 + int(sig.(syscall.Signal)))
	}()
	defer signal.Stop(sigc)
	defer r.sup.cleanup()
	defer r.sup.onPanic()

	work := filepath.Join(r.root, ".bench_build", "perfbench")
	dir, err := r.sup.tempDir(filepath.Join(work, "tmp"), r.workload+"-")
	if err != nil {
		r.logf("%v", err)
		return 1
	}
	r.dir = dir

	err = run(r)
	r.sup.cleanup()
	if err != nil {
		if ctx.Err() != nil {
			return 1
		}
		r.logf("%s seed %d failed: %v", r.workload, r.seed, err)
		return 1
	}
	return r.report(work)
}

// report prints the human-readable summary, writes the raw record and
// prints the result line. The exit code is 1 when an answer was wrong.
func (r *runCtx) report(work string) int {
	t := r.tally
	correct := t.wrong == 0 && t.failed == 0
	res := result{
		Correct:   correct,
		Attempted: t.attempted,
		Failed:    t.failed + t.refused + t.wrong,
		Metrics:   map[string]metric{},
	}
	if res.Attempted > 0 {
		r.e2e["failed_ratio"] = metric{Value: float64(res.Failed) / float64(res.Attempted), Unit: "ratio", Samples: res.Attempted}
	}
	fmt.Printf("perfbench %s seed=%d seconds=%.0f trace=%v nproc=%d\n", r.workload, r.seed, r.seconds.Seconds(), r.trace, r.nproc)
	printMetrics("end-to-end", r.e2e)
	if r.trace {
		printMetrics("per-layer", r.layers)
		printLayerTable(r.table)
		r.printOverhead(work)
	}
	for _, n := range r.notes {
		fmt.Println("note:", n)
	}
	if t.firstErr != nil {
		fmt.Println("first failure:", t.firstErr)
	}
	names := endToEnd
	src := r.e2e
	if r.trace {
		names = perLayer
		src = r.layers
	}
	for _, name := range names {
		m, ok := src[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", name)
			return 1
		}
		res.Metrics[name] = metric{Value: m.Value, Unit: m.Unit}
	}
	rec := record{
		Workload: r.workload, Seed: r.seed, Seconds: r.seconds.Seconds(), Trace: r.trace,
		Correct: correct, Valid: r.valid, Attempted: t.attempted,
		Failed: t.failed, Refused: t.refused, Wrong: t.wrong,
		EndToEnd: r.e2e, Notes: r.notes,
		Nproc: r.nproc, GenProcs: runtime.GOMAXPROCS(0), SrvProcs: r.nproc,
		GoVersion: runtime.Version(), Commit: commitOf(r.root),
		WallS: time.Since(r.start).Seconds(),
	}
	if t.firstErr != nil {
		rec.FirstError = t.firstErr.Error()
	}
	if r.trace {
		rec.PerLayer, rec.LayerTable = r.layers, r.table
	}
	if err := writeRecord(filepath.Join(work, "results"), &rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: write record:", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

func printMetrics(title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%s:\n", title)
	for _, n := range names {
		m := ms[n]
		extra := ""
		if m.Samples > 0 {
			extra = fmt.Sprintf("  (n=%d", m.Samples)
			if m.Percentile > 0 {
				extra += fmt.Sprintf(", p%g", m.Percentile)
			}
			extra += ")"
		}
		fmt.Printf("  %-32s %12.4f %-6s%s\n", n, m.Value, m.Unit, extra)
	}
}

func writeRecord(dir string, rec *record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", rec.Workload, rec.Seed, btoi(rec.Trace))
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

func readRecord(dir, workload string, seed int64, trace bool) (*record, error) {
	data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", workload, seed, btoi(trace))))
	if err != nil {
		return nil, err
	}
	var rec record
	return &rec, json.Unmarshal(data, &rec)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// commitOf reads the checked-out commit from .git when there is one (the
// benchmark also runs in exported trees without history).
func commitOf(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	data, err := os.ReadFile(filepath.Join(root, ".git", strings.TrimPrefix(ref, "ref: ")))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}

// workloads maps --workload names to the functions that run them.
var workloads = map[string]func(*runCtx) error{
	"ingest": runIngest,
	"serve":  runServe,
	"mixed":  runMixed,
}
