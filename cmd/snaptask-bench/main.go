// Command snaptask-bench regenerates the paper's evaluation: every figure
// and table of Section V, plus ablations of the design parameters called
// out in DESIGN.md. Output is printed as aligned text tables; the series
// correspond one-to-one to the paper's plots.
//
// Usage:
//
//	snaptask-bench -exp all            # everything (several minutes)
//	snaptask-bench -exp fig11b         # one experiment
//	snaptask-bench -exp all -quick     # small venue, fast smoke run
//
// Experiments: fig8, fig9, fig10, fig11a, fig11b, fig12, table1,
// ablate-obstacle, ablate-tolerance, ablate-minarea, ablate-cell,
// ablate-window, ablate-sor. The extra experiments `ingest`, `restart`,
// `overhead` and `load` are not part of 'all'; each writes a
// machine-readable JSON report with -out FILE, and all but `overhead`
// compare the run against a committed report with -gate FILE and fail on
// regression (the two flags may name the same file). -out or -gate on any
// other experiment is an error.
//
// `ingest` benchmarks per-batch upload latency on the incremental vs
// full-recompute paths (BENCH_ingest.json); its gate fails on identical
// flipping false, or the largest-size incremental latency rising above
// twice the committed value. `restart` benchmarks server restart cost over
// a checkpointed event store versus a full replay of one that was never
// checkpointed, at 1x and 100x dispatch-churn event volume
// (BENCH_restart.json); its gate fails when the checkpointed restart stops
// being flat (100x/1x ratio above 2). Both gates refuse a run whose
// GOMAXPROCS differs from the committed file's. `load` drives a built
// snaptask-server with an open-loop fleet (BENCH_load.json; see load.go).
//
// `overhead` measures the telemetry tax on the ingest hot path: two
// identical backends consume the same photo batches, one fully
// instrumented (tracer, metrics, SLO recording), one bare, and the median
// of the paired per-batch latency ratios is the overhead. -overhead-gate
// FRACTION fails the run when the overhead exceeds the budget
// (EXPERIMENTS.md records 2%).
//
// -metrics-doc PATH regenerates docs/METRICS.md from the metric catalogue
// and exits; a test in internal/telemetry/catalog fails when the committed
// file drifts.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"runtime"
	rtdebug "runtime/debug"
	"sort"
	"strings"
	"time"

	"math/rand"

	"snaptask/internal/camera"
	"snaptask/internal/geom"

	"snaptask/internal/core"
	"snaptask/internal/events"
	"snaptask/internal/experiments"
	"snaptask/internal/floorplan"
	"snaptask/internal/grid"
	"snaptask/internal/incentive"
	"snaptask/internal/mapping"
	"snaptask/internal/metrics"
	"snaptask/internal/pointcloud"
	"snaptask/internal/taskgen"
	"snaptask/internal/telemetry"
	"snaptask/internal/telemetry/catalog"
	"snaptask/internal/telemetry/slo"
	"snaptask/internal/venue"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "snaptask-bench:", err)
		os.Exit(1)
	}
}

type bench struct {
	setup        *experiments.Setup
	seed         int64
	quick        bool
	out          string // -out: the experiment's JSON report
	gate         string // -gate: the committed report to compare against
	overheadGate float64
	log          *slog.Logger

	// lazily computed shared artefacts
	guided *experiments.GuidedResult
	opp    *experiments.IncrementalResult
	oppN   int
	ung    *experiments.IncrementalResult
	ungN   int
}

func run(args []string) error {
	fs := flag.NewFlagSet("snaptask-bench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment id or 'all'")
	seed := fs.Int64("seed", 42, "experiment seed")
	quick := fs.Bool("quick", false, "small venue, fast smoke run")
	out := fs.String("out", "", "write the experiment's JSON report to this file (ingest, restart, overhead, load)")
	gate := fs.String("gate", "",
		"regression gate: compare the experiment against this committed report (BENCH_ingest.json, BENCH_restart.json or BENCH_load.json) and fail on regression; ingest and restart runs must use the committed GOMAXPROCS")
	overheadGate := fs.Float64("overhead-gate", 0,
		"regression gate: fail the overhead experiment when the instrumented-ingest overhead exceeds this fraction (e.g. 0.02 = the 2% budget in EXPERIMENTS.md); 0 disables")
	metricsDoc := fs.String("metrics-doc", "",
		"write the generated metric catalogue (docs/METRICS.md) to this file and exit")
	logLevel := fs.String("log-level", "info", "log level: debug, info, warn, error")
	logFormat := fs.String("log-format", "text", "log format: text or json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Checked before the venue setup, which alone takes seconds.
	if gated, ok := reportExps[*exp]; (*out != "" && !ok) || (*gate != "" && !gated) {
		return fmt.Errorf("-out/-gate do not apply to experiment %q: ingest, restart and load take both, overhead takes -out", *exp)
	}

	// The tables on stdout are the deliverable; the logger narrates
	// progress on stderr so redirected table output stays clean.
	logger, err := telemetry.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}

	if *metricsDoc != "" {
		if err := os.WriteFile(*metricsDoc, []byte(catalog.Markdown()), 0o644); err != nil {
			return fmt.Errorf("metrics doc: %w", err)
		}
		fmt.Printf("wrote %s\n", *metricsDoc)
		return nil
	}

	b := &bench{seed: *seed, quick: *quick, out: *out, gate: *gate,
		overheadGate: *overheadGate, log: logger}
	var v *venue.Venue
	if *quick {
		v, err = venue.SmallRoom()
	} else {
		v, err = venue.Library()
	}
	if err != nil {
		return err
	}
	b.setup, err = experiments.NewSetup(v, *seed, core.Config{})
	if err != nil {
		return err
	}
	fmt.Printf("SnapTask evaluation — venue %q (%.0f m², bounds %.2f m), seed %d\n\n",
		v.Name(), v.Area(), v.OuterBoundsLength(), *seed)

	runners := map[string]func() error{
		"floorplan":        b.floorplanExp,
		"ext-budget":       b.extBudget,
		"fig8":             b.fig8,
		"fig9":             b.fig9,
		"fig10":            b.fig10,
		"fig11a":           b.fig11a,
		"fig11b":           b.fig11b,
		"fig12":            b.fig12,
		"table1":           b.table1,
		"ablate-obstacle":  b.ablateObstacle,
		"ablate-tolerance": b.ablateTolerance,
		"ablate-minarea":   b.ablateMinArea,
		"ablate-cell":      b.ablateCell,
		"ablate-window":    b.ablateWindow,
		"ablate-sor":       b.ablateSOR,
		"ingest":           b.ingest,
		"restart":          b.restart,
		"overhead":         b.overhead,
		"load":             b.load,
	}
	order := []string{
		"fig8", "fig9", "fig10", "fig11a", "fig11b", "fig12", "table1",
		"ablate-obstacle", "ablate-tolerance", "ablate-minarea",
		"ablate-cell", "ablate-window", "ablate-sor",
		"floorplan", "ext-budget",
	}
	if *exp == "all" {
		for _, name := range order {
			fmt.Printf("==== %s ====\n", name)
			if err := runners[name](); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			fmt.Println()
		}
		return nil
	}
	fn, ok := runners[*exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	return fn()
}

// reportExps lists the experiments that write a JSON report (-out), each
// mapped to whether it also takes a committed report as its gate (-gate).
var reportExps = map[string]bool{"ingest": true, "restart": true, "load": true, "overhead": false}

// readGate parses the committed report named by -gate (nil when unset).
// Experiments call it before they write anything: -gate and -out may name
// the same file.
func readGate[T any](path string) (*T, error) {
	if path == "" {
		return nil, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("gate: %w", err)
	}
	report := new(T)
	if err := json.Unmarshal(data, report); err != nil {
		return nil, fmt.Errorf("gate: parse %s: %w", path, err)
	}
	return report, nil
}

// writeReport writes an experiment's JSON report to the -out file, if any.
func writeReport(path string, report any) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("  wrote %s\n", path)
	return nil
}

func (b *bench) maxTasks() int {
	if b.quick {
		return 60
	}
	return 240
}

func (b *bench) guidedResult() (*experiments.GuidedResult, error) {
	if b.guided != nil {
		return b.guided, nil
	}
	b.log.Info("running the guided field test (the long step)",
		slog.Int("max_tasks", b.maxTasks()))
	res, err := b.setup.RunGuided(b.seed+1, experiments.GuidedOptions{
		MaxTasks:      b.maxTasks(),
		SnapshotEvery: 0,
	})
	if err != nil {
		return nil, err
	}
	b.guided = res
	return res, nil
}

func (b *bench) oppResult() (*experiments.IncrementalResult, error) {
	if b.opp != nil {
		return b.opp, nil
	}
	photos, _, err := b.setup.BuildOpportunistic(b.seed+2, 15, 700)
	if err != nil {
		return nil, err
	}
	b.oppN = len(photos)
	b.opp, err = b.setup.EvaluateIncremental(photos, 100, b.seed+3)
	return b.opp, err
}

func (b *bench) ungResult() (*experiments.IncrementalResult, error) {
	if b.ung != nil {
		return b.ung, nil
	}
	photos, err := b.setup.BuildUnguided(b.seed+4, 0)
	if err != nil {
		return nil, err
	}
	b.ungN = len(photos)
	b.ung, err = b.setup.EvaluateIncremental(photos, 100, b.seed+5)
	return b.ung, err
}

// fig8: opportunistic participant paths.
func (b *bench) fig8() error {
	_, paths, err := b.setup.BuildOpportunistic(b.seed+2, 15, 700)
	if err != nil {
		return err
	}
	fmt.Printf("Figure 8 — %d opportunistic trips (start -> end, length):\n", len(paths))
	for i, p := range paths {
		if len(p) == 0 {
			continue
		}
		fmt.Printf("  trip %2d: %v -> %v  (%.1f m, %d waypoints)\n",
			i+1, p[0], p[len(p)-1], p.Length(), len(p))
	}
	return nil
}

// fig9: generated task positions and execution offsets.
func (b *bench) fig9() error {
	res, err := b.guidedResult()
	if err != nil {
		return err
	}
	fmt.Println("Figure 9 — generated tasks (sequence, kind, issued position):")
	photoN, annN := 0, 0
	for _, m := range res.Marks {
		if m.Kind == taskgen.KindAnnotation {
			annN++
			fmt.Printf("  task %3d  ANNOTATION at %v\n", m.Seq, m.Issued)
		} else {
			photoN++
		}
	}
	fmt.Printf("  (%d photo tasks not listed individually)\n", photoN)
	var offSum float64
	for _, it := range res.Loop.Iterations {
		offSum += it.ArrivedOffset
	}
	if n := len(res.Loop.Iterations); n > 0 {
		fmt.Printf("  mean issued-vs-executed offset: %.2f m (navigation error <= %.1f m)\n",
			offSum/float64(n), 1.0)
	}
	fmt.Printf("  totals: %d photo tasks, %d annotation tasks\n", photoN, annN)
	return nil
}

// fig10: coverage growth per task.
func (b *bench) fig10() error {
	res, err := b.guidedResult()
	if err != nil {
		return err
	}
	fmt.Println("Figure 10 — map growth after each completed task:")
	fmt.Println("  task  kind        photos  bounds%  coverage%")
	for i, p := range res.Curve {
		kind := "photo"
		if res.Marks[i].Kind == taskgen.KindAnnotation {
			kind = "annotation"
		}
		fmt.Printf("  %4d  %-10s  %6d  %6.2f  %8.2f\n", i+1, kind, p.Photos, p.BoundsPct, p.CoveragePct)
	}
	last := res.Curve[len(res.Curve)-1]
	fmt.Printf("  final: %.2f%% coverage, %.2f%% outer bounds (paper: 98.12%% / 100%%), covered=%v\n",
		last.CoveragePct, last.BoundsPct, res.Covered)
	return nil
}

// curveTable prints a Figure 11 style comparison at shared photo budgets.
func (b *bench) curveTable(metric func(experiments.CurvePoint) float64, title, paperNote string) error {
	guided, err := b.guidedResult()
	if err != nil {
		return err
	}
	opp, err := b.oppResult()
	if err != nil {
		return err
	}
	ung, err := b.ungResult()
	if err != nil {
		return err
	}
	fmt.Println(title)
	fmt.Printf("  (datasets: opportunistic %d frames, unguided %d photos, guided %d photos)\n",
		b.oppN, b.ungN, guided.Loop.TotalPhotos)
	fmt.Println("  photos   SnapTask  Unguided  Opportunistic")
	budgets := []int{100, 200, 300, 400, 500, 600, 700, 800, 900}
	for _, n := range budgets {
		g := sampleCurve(guided.Curve, n, metric)
		u := sampleCurve(ung.Curve, n, metric)
		o := sampleCurve(opp.Curve, n, metric)
		fmt.Printf("  %6d   %8s  %8s  %13s\n", n, fmtPct(g), fmtPct(u), fmtPct(o))
	}
	gFinal := metric(guided.Curve[len(guided.Curve)-1])
	uFinal := metric(ung.Curve[len(ung.Curve)-1])
	oFinal := metric(opp.Curve[len(opp.Curve)-1])
	fmt.Printf("  final    %8s  %8s  %13s\n", fmtPct(gFinal), fmtPct(uFinal), fmtPct(oFinal))
	fmt.Printf("  SnapTask advantage at the final point: +%.2f%% vs unguided, +%.2f%% vs opportunistic\n",
		gFinal-uFinal, gFinal-oFinal)
	fmt.Println(" ", paperNote)
	return nil
}

// sampleCurve returns the metric at the last point with Photos <= n, or -1
// when the series has not reached n photos yet.
func sampleCurve(curve []experiments.CurvePoint, n int, metric func(experiments.CurvePoint) float64) float64 {
	best := -1.0
	for _, p := range curve {
		if p.Photos <= n {
			best = metric(p)
		}
	}
	return best
}

func fmtPct(v float64) string {
	if v < 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", v)
}

func (b *bench) fig11a() error {
	return b.curveTable(
		func(p experiments.CurvePoint) float64 { return p.BoundsPct },
		"Figure 11a — reconstructed outer bounds vs number of input photos:",
		"paper: SnapTask 100%, unguided 80.69%, opportunistic 72.04%")
}

func (b *bench) fig11b() error {
	return b.curveTable(
		func(p experiments.CurvePoint) float64 { return p.CoveragePct },
		"Figure 11b — model coverage vs number of input photos:",
		"paper: SnapTask 98.12%, unguided 77.4%, opportunistic 63.67% (+20.72 / +34.45)")
}

// fig12: final map renders for the three approaches plus ground truth.
func (b *bench) fig12() error {
	guided, err := b.guidedResult()
	if err != nil {
		return err
	}
	opp, err := b.oppResult()
	if err != nil {
		return err
	}
	ung, err := b.ungResult()
	if err != nil {
		return err
	}
	show := func(name string, maps *mapping.Maps) error {
		r, err := metrics.RenderASCII(maps.Obstacles, maps.Visibility, b.setup.TruthCov)
		if err != nil {
			return err
		}
		fmt.Printf("--- %s ---\n%s\n", name, shrink(r, 2))
		return nil
	}
	fmt.Println("Figure 12 — final maps (#=obstacle, .=visible, _=unknown inside truth):")
	if err := show("(a) opportunistic", opp.FinalMaps); err != nil {
		return err
	}
	if err := show("(b) unguided participatory", ung.FinalMaps); err != nil {
		return err
	}
	if err := show("(c) guided (SnapTask)", guided.FinalMaps); err != nil {
		return err
	}
	gt, err := b.setup.GT.Coverage()
	if err != nil {
		return err
	}
	r, err := metrics.RenderASCII(b.setup.GT.Obstacles, b.setup.GT.Freespace, gt)
	if err != nil {
		return err
	}
	fmt.Printf("--- (d) ground truth ---\n%s\n", shrink(r, 2))
	return nil
}

// shrink downsamples an ASCII render by the given factor to keep terminal
// output readable.
func shrink(render string, factor int) string {
	lines := strings.Split(strings.TrimRight(render, "\n"), "\n")
	var out strings.Builder
	for j := 0; j < len(lines); j += factor {
		line := lines[j]
		for i := 0; i < len(line); i += factor {
			// Prefer obstacles, then visibility, within the block.
			ch := byte(' ')
			for dj := 0; dj < factor && j+dj < len(lines); dj++ {
				for di := 0; di < factor && i+di < len(lines[j+dj]); di++ {
					c := lines[j+dj][i+di]
					if c == '#' {
						ch = '#'
					} else if c == '.' && ch != '#' {
						ch = '.'
					} else if c == '_' && ch == ' ' {
						ch = '_'
					}
				}
			}
			out.WriteByte(ch)
		}
		out.WriteByte('\n')
	}
	return out.String()
}

// table1: featureless surfaces reconstruction analysis.
func (b *bench) table1() error {
	res, err := b.guidedResult()
	if err != nil {
		return err
	}
	fmt.Println("Table I — featureless surfaces reconstruction:")
	fmt.Println("  task  identified  reconstructed  precision  recall  f-score")
	for _, row := range res.TableI {
		fmt.Printf("  %4d  %10d  %13d  %9.2f  %6.2f  %7.2f\n",
			row.Task, row.Identified, row.Reconstructed,
			row.PRF.Precision, row.PRF.Recall, row.PRF.F)
	}
	agg := experiments.AggregatePRF(res.TableI)
	fmt.Printf("  average over reconstructing tasks: precision %.2f%%, recall %.2f%%, F %.2f%%\n",
		agg.Precision*100, agg.Recall*100, agg.F*100)
	fmt.Println("  paper: 98.14% precision, 90.23% F-score on average")
	return nil
}

// floorplanExp vectorises the guided run's final obstacle map into wall
// segments — the "indoor map" artefact the paper compiles for its
// navigation clients.
func (b *bench) floorplanExp() error {
	res, err := b.guidedResult()
	if err != nil {
		return err
	}
	plan, err := floorplan.Extract(res.FinalMaps.Obstacles, floorplan.Config{})
	if err != nil {
		return err
	}
	fmt.Printf("Floor plan vectorisation — %d walls, %.1f m total (venue outer bounds: %.1f m + furniture):\n",
		len(plan.Walls), plan.TotalWallLength(), b.setup.Venue.OuterBoundsLength())
	n := len(plan.Walls)
	if n > 12 {
		n = 12
	}
	for i := 0; i < n; i++ {
		w := plan.Walls[i]
		fmt.Printf("  wall %2d: %v  (%.2f m, %d cells)\n", i+1, w.Seg, w.Length(), w.Cells)
	}
	if len(plan.Walls) > n {
		fmt.Printf("  ... and %d more\n", len(plan.Walls)-n)
	}
	return nil
}

// extBudget sweeps the incentive budget of the campaign extension (the
// paper's stated future work) on the small venue: coverage achieved vs
// budget spent.
func (b *bench) extBudget() error {
	v, err := venue.SmallRoom()
	if err != nil {
		return err
	}
	fmt.Println("Extension — incentive budget vs achieved coverage (small venue):")
	fmt.Println("  budget  spent  tasks  dropped  covered  coverage%")
	for _, budget := range []float64{8, 14, 20, 60} {
		s, err := experiments.NewSetup(v, b.seed, core.Config{Margin: 3})
		if err != nil {
			return err
		}
		world := s.World
		sys, err := core.NewSystem(s.Venue, world, s.Config)
		if err != nil {
			return err
		}
		campaign, err := incentive.NewCampaign(budget)
		if err != nil {
			return err
		}
		pool := incentive.UniformPool(6, s.Venue.Bounds(), 3, 0.2, 0.8, b.seed+9)
		res, err := incentive.RunCampaign(sys, pool, campaign, s.WalkMap, 60,
			rand.New(rand.NewSource(b.seed+10)))
		if err != nil {
			return err
		}
		cov, err := metrics.CoveragePercent(sys.Maps().AspectCoverage(), s.TruthCov)
		if err != nil {
			return err
		}
		fmt.Printf("  %6.0f  %5.1f  %5d  %7d  %7v  %8.1f\n",
			budget, res.Spent, res.PhotoTasks+res.AnnotationTasks, res.TasksDropped, res.Covered, cov)
	}
	fmt.Println("  (more budget -> more affordable assignments -> higher coverage)")
	return nil
}

// ingestRow is one model-size checkpoint of the ingest benchmark.
type ingestRow struct {
	Views         int     `json:"views"`
	Points        int     `json:"points"`
	BatchPhotos   int     `json:"batch_photos"`
	FullMS        float64 `json:"full_ms"`
	IncrementalMS float64 `json:"incremental_ms"`
	Speedup       float64 `json:"speedup"`
	Identical     bool    `json:"identical"`
}

// ingestReport is the machine-readable BENCH_ingest.json payload.
type ingestReport struct {
	Venue      string      `json:"venue"`
	Seed       int64       `json:"seed"`
	Quick      bool        `json:"quick"`
	GoMaxProcs int         `json:"gomaxprocs"`
	Sizes      []ingestRow `json:"sizes"`
}

// ingest drives two backends in lockstep over identical photo batches — one
// on the delta-driven ingest path, one forcing a full recompute per batch —
// and reports the median per-batch latency of each around fixed model sizes.
// The two models must stay byte-identical throughout; any divergence is
// reported in the `identical` column and fails the experiment.
func (b *bench) ingest() error {
	gate, err := readGate[ingestReport](b.gate)
	if err != nil {
		return err
	}

	v := b.setup.Venue
	world := b.setup.World
	sizes := []int{100, 500, 1000}
	if b.quick {
		sizes = []int{60, 120, 180}
	}

	sysInc, err := core.NewSystem(v, world, core.Config{})
	if err != nil {
		return err
	}
	sysFull, err := core.NewSystem(v, world, core.Config{FullRebuild: true})
	if err != nil {
		return err
	}
	rngInc := rand.New(rand.NewSource(b.seed + 20))
	rngFull := rand.New(rand.NewSource(b.seed + 20))
	capRng := rand.New(rand.NewSource(b.seed + 21))

	boot, err := core.BootstrapCapture(world, v, camera.DefaultIntrinsics(), capRng)
	if err != nil {
		return err
	}
	if _, err := sysInc.ProcessBootstrap(boot, rngInc); err != nil {
		return err
	}
	if _, err := sysFull.ProcessBootstrap(boot, rngFull); err != nil {
		return err
	}

	// Free-space sweep positions, reused round-robin.
	var free []geom.Vec2
	bounds := v.Bounds()
	for y := bounds.Min.Y + 0.7; y < bounds.Max.Y; y += 1.1 {
		for x := bounds.Min.X + 0.7; x < bounds.Max.X; x += 1.1 {
			if p := geom.V2(x, y); !v.Blocked(p) {
				free = append(free, p)
			}
		}
	}
	if len(free) == 0 {
		return fmt.Errorf("ingest: venue has no free sweep positions")
	}

	type sample struct {
		viewsBefore, pointsBefore, photos int
		inc, full                         time.Duration
	}
	var samples []sample
	modelEqual := func() bool {
		bi, err := sysInc.Model().MarshalBinary()
		if err != nil {
			return false
		}
		bf, err := sysFull.Model().MarshalBinary()
		if err != nil {
			return false
		}
		return bytes.Equal(bi, bf) &&
			sysInc.Maps().CoverageCells() == sysFull.Maps().CoverageCells()
	}

	const trials = 3 // batches measured per checkpoint (median taken)
	last := sizes[len(sizes)-1]
	for batch := 0; ; batch++ {
		before := sysInc.Model().NumViews()
		points := sysInc.Model().NumPoints()
		if before >= last {
			// Enough batches past the last checkpoint?
			n := 0
			for _, s := range samples {
				if s.viewsBefore >= last {
					n++
				}
			}
			if n >= trials {
				break
			}
		}
		pos := free[batch%len(free)]
		photos, err := world.Sweep(pos, camera.DefaultIntrinsics(), camera.CaptureOptions{}, capRng)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := sysInc.ProcessPhotoBatch(pos, pos, photos, rngInc); err != nil {
			return err
		}
		tInc := time.Since(t0)
		t0 = time.Now()
		if _, err := sysFull.ProcessPhotoBatch(pos, pos, photos, rngFull); err != nil {
			return err
		}
		tFull := time.Since(t0)
		samples = append(samples, sample{
			viewsBefore: before, pointsBefore: points, photos: len(photos),
			inc: tInc, full: tFull,
		})
	}
	identical := modelEqual()

	median := func(ds []time.Duration) float64 {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return float64(ds[len(ds)/2]) / 1e6
	}
	report := ingestReport{
		Venue:      v.Name(),
		Seed:       b.seed,
		Quick:      b.quick,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	fmt.Println("Ingest path — per-batch upload latency, full recompute vs incremental:")
	fmt.Println("  views  points  batch   full(ms)  incr(ms)  speedup  identical")
	for _, size := range sizes {
		var incs, fulls []time.Duration
		photosN, views, points := 0, 0, 0
		for _, s := range samples {
			if s.viewsBefore >= size && len(incs) < trials {
				incs = append(incs, s.inc)
				fulls = append(fulls, s.full)
				if photosN == 0 {
					photosN, views, points = s.photos, s.viewsBefore, s.pointsBefore
				}
			}
		}
		if len(incs) == 0 {
			continue
		}
		row := ingestRow{
			Views:         views,
			Points:        points,
			BatchPhotos:   photosN,
			FullMS:        median(fulls),
			IncrementalMS: median(incs),
			Identical:     identical,
		}
		if row.IncrementalMS > 0 {
			row.Speedup = row.FullMS / row.IncrementalMS
		}
		report.Sizes = append(report.Sizes, row)
		fmt.Printf("  %5d  %6d  %5d  %9.1f  %8.1f  %6.1fx  %v\n",
			row.Views, row.Points, row.BatchPhotos, row.FullMS, row.IncrementalMS, row.Speedup, row.Identical)
	}
	if !identical {
		return fmt.Errorf("ingest: incremental and full models diverged")
	}

	if gate != nil {
		if err := checkIngestGate(gate, &report); err != nil {
			return err
		}
		fmt.Printf("  regression gate passed against %s\n", b.gate)
	}
	return writeReport(b.out, report)
}

// checkIngestGate fails when the fresh ingest report regresses against the
// committed baseline: the incremental/full `identical` invariant may never
// flip to false, and the incremental per-batch latency at the largest model
// size — the cost every served upload pays — may not exceed twice the
// committed value (twice, not equal, because CI runners are noisy; losing
// the delta path costs more than that, since the committed full-recompute
// time is several times the incremental one). The run must match the
// committed venue, -quick and GOMAXPROCS: at a higher GOMAXPROCS the full
// path alone can fit under the bound.
func checkIngestGate(committed, fresh *ingestReport) error {
	if len(committed.Sizes) == 0 || len(fresh.Sizes) == 0 {
		return fmt.Errorf("ingest gate: empty report (committed %d sizes, fresh %d)",
			len(committed.Sizes), len(fresh.Sizes))
	}
	if committed.Quick != fresh.Quick || committed.Venue != fresh.Venue || committed.GoMaxProcs != fresh.GoMaxProcs {
		return fmt.Errorf("ingest gate: baseline ran venue=%q quick=%v gomaxprocs=%d but this run is venue=%q quick=%v gomaxprocs=%d — not comparable",
			committed.Venue, committed.Quick, committed.GoMaxProcs, fresh.Venue, fresh.Quick, fresh.GoMaxProcs)
	}
	base := committed.Sizes[len(committed.Sizes)-1]
	cur := fresh.Sizes[len(fresh.Sizes)-1]
	if base.Identical && !cur.Identical {
		return fmt.Errorf("ingest gate: incremental and full models no longer identical (baseline was)")
	}
	if bound := base.IncrementalMS * 2; cur.IncrementalMS > bound {
		return fmt.Errorf("ingest gate: largest-size incremental latency %.1f ms exceeds bound %.1f ms (2 x committed %.1f ms at %d views)",
			cur.IncrementalMS, bound, base.IncrementalMS, base.Views)
	}
	return nil
}

// restartRow is one event-volume point of the restart benchmark.
type restartRow struct {
	Mult       int    `json:"mult"`
	Events     uint64 `json:"events"`
	TailEvents uint64 `json:"tail_events"`
	// CheckpointMS: open the checkpointing directory store and replay —
	// newest checkpoint + tail only.
	CheckpointMS float64 `json:"checkpoint_restart_ms"`
	// FullReplayMS: open a directory store that was never checkpointed and
	// fold every event from seq 1 — the O(lifetime) restart that
	// checkpoints replace.
	FullReplayMS float64 `json:"full_replay_restart_ms"`
}

// restartReport is the machine-readable BENCH_restart.json payload.
type restartReport struct {
	Seed           int64        `json:"seed"`
	Quick          bool         `json:"quick"`
	GoMaxProcs     int          `json:"gomaxprocs"`
	CampaignEvents int          `json:"campaign_events"`
	ChurnBase      int          `json:"churn_base_events"`
	Rows           []restartRow `json:"rows"`
	// Ratio is checkpointed restart at the largest multiplier over the 1x
	// baseline — the flat-restart claim says this stays near 1, and the
	// gate fails above 2.
	Ratio float64 `json:"checkpoint_restart_ratio"`
}

// restart measures server restart cost as a function of campaign lifetime.
// The event history models a deployed campaign: a fixed mapping phase (the
// venue converges once) followed by dispatch churn — claims, expiries,
// requeues — that keeps growing for as long as the deployment runs. The
// churn phase is scaled 1x vs 100x and the restart (open + replay) is timed
// over a checkpointed directory store and over one that never checkpoints.
// The never-checkpointed restart is O(lifetime); the checkpointed restart
// replays only the tail after the newest checkpoint and must stay flat.
func (b *bench) restart() error {
	gate, err := readGate[restartReport](b.gate)
	if err != nil {
		return err
	}

	campaignN, churnBase := 2000, 5000
	if b.quick {
		campaignN, churnBase = 500, 1000
	}
	report := restartReport{
		Seed:           b.seed,
		Quick:          b.quick,
		GoMaxProcs:     runtime.GOMAXPROCS(0),
		CampaignEvents: campaignN,
		ChurnBase:      churnBase,
	}

	fmt.Println("Restart cost — checkpointed store vs full replay:")
	fmt.Println("  churn      events   tail  checkpoint(ms)  full-replay(ms)")
	for _, mult := range []int{1, 100} {
		row, err := b.restartAt(mult, campaignN, churnBase*mult)
		if err != nil {
			return fmt.Errorf("restart at %dx: %w", mult, err)
		}
		report.Rows = append(report.Rows, row)
		fmt.Printf("  %4dx  %10d  %5d  %14.1f  %15.1f\n",
			row.Mult, row.Events, row.TailEvents, row.CheckpointMS, row.FullReplayMS)
	}
	base, top := report.Rows[0], report.Rows[len(report.Rows)-1]
	if base.CheckpointMS > 0 {
		report.Ratio = top.CheckpointMS / base.CheckpointMS
	}
	fmt.Printf("  checkpointed restart at %dx volume: %.2fx the 1x baseline (flat <= 2.0)\n",
		top.Mult, report.Ratio)
	if top.CheckpointMS > 0 {
		fmt.Printf("  full replay at %dx is %.0fx slower than the checkpointed restart\n",
			top.Mult, top.FullReplayMS/top.CheckpointMS)
	}

	if gate != nil {
		if err := checkRestartGate(gate, &report); err != nil {
			return err
		}
		fmt.Printf("  regression gate passed against %s\n", b.gate)
	}
	return writeReport(b.out, report)
}

// restartAt builds one synthetic campaign history at the given churn volume
// in two directory stores, one checkpointed and one not, and returns the
// median restart timings.
func (b *bench) restartAt(mult, campaignN, churnN int) (restartRow, error) {
	dir, err := os.MkdirTemp("", "snaptask-restart-*")
	if err != nil {
		return restartRow{}, err
	}
	defer os.RemoveAll(dir)
	ckptDir := dir + "/campaign.d"
	fullDir := dir + "/full.d"
	opts := events.DirStoreOptions{SegmentMaxBytes: 1 << 20}

	// The checkpointing store compacts as it goes, so even the 100x history
	// stays small on disk; the never-checkpointed store keeps everything.
	lc, err := events.OpenDir(ckptDir, nil, opts, events.CheckpointPolicy{Every: 4096})
	if err != nil {
		return restartRow{}, err
	}
	lf, err := events.OpenDir(fullDir, nil, opts, events.CheckpointPolicy{})
	if err != nil {
		return restartRow{}, err
	}

	emit := func(e events.Event) {
		lc.Emit(e)
		lf.Emit(e)
	}
	sync := func() error {
		if err := lc.Commit(); err != nil {
			return err
		}
		if lc.CheckpointDue() {
			if err := lc.WriteCheckpoint(nil); err != nil {
				return err
			}
		}
		return lf.Commit()
	}
	// Fixed mapping phase: tasks issued, batches accepted, coverage grows.
	for i := 0; i < campaignN/4; i++ {
		x, y := float64(i%40)*0.5, float64(i/40)*0.5
		emit(events.Event{Kind: events.KindTaskIssued, TaskID: i, TaskKind: "photo", X: x, Y: y})
		emit(events.Event{Kind: events.KindTaskClaimed, TaskID: i, TaskKind: "photo", X: x, Y: y,
			Worker: fmt.Sprintf("w%d", i%16), LeaseID: fmt.Sprintf("l%d", i)})
		emit(events.Event{Kind: events.KindBatchAccepted, Batch: "photo_batch", Photos: 12,
			Registered: 12, Worker: fmt.Sprintf("w%d", i%16), LeaseID: fmt.Sprintf("l%d", i)})
		emit(events.Event{Kind: events.KindCoverageDelta, CoverageCells: 40 * (i + 1)})
		if i%64 == 63 {
			if err := sync(); err != nil {
				return restartRow{}, err
			}
		}
	}
	// Scaled dispatch-churn phase: the venue is mapped, but workers keep
	// claiming, abandoning and requeueing — one churn triple per iteration.
	churn := func(from, n int) error {
		for i := from; i < from+n; i++ {
			taskID, lease := 100000+i%512, fmt.Sprintf("c%d", i)
			worker := fmt.Sprintf("w%d", i%16)
			emit(events.Event{Kind: events.KindTaskClaimed, TaskID: taskID, TaskKind: "photo",
				Worker: worker, LeaseID: lease})
			emit(events.Event{Kind: events.KindLeaseExpired, TaskID: taskID, Worker: worker, LeaseID: lease})
			emit(events.Event{Kind: events.KindTaskRequeued, TaskID: taskID, TaskKind: "photo"})
			if i%256 == 255 {
				if err := sync(); err != nil {
					return err
				}
			}
		}
		return sync()
	}
	if err := churn(0, churnN/3); err != nil {
		return restartRow{}, err
	}
	// The crash point: the checkpoint cadence guarantees a recent checkpoint
	// exists no matter how long the deployment ran, with a tail bounded by
	// the cadence. Model it directly — a final checkpoint, then the same
	// fixed-size un-checkpointed tail at every volume — so the timing
	// isolates lifetime dependence rather than tail-length jitter.
	if err := lc.WriteCheckpoint(nil); err != nil {
		return restartRow{}, err
	}
	if err := churn(churnN/3, 512); err != nil {
		return restartRow{}, err
	}
	total := lc.LastSeq()
	if err := lc.Close(); err != nil {
		return restartRow{}, err
	}
	if err := lf.Close(); err != nil {
		return restartRow{}, err
	}

	const trials = 3
	median := func(ds []time.Duration) float64 {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return float64(ds[len(ds)/2]) / 1e6
	}
	var tail uint64
	var ckptTimes, fullTimes []time.Duration
	for i := 0; i < trials; i++ {
		t0 := time.Now()
		l, err := events.OpenDir(ckptDir, nil, opts, events.CheckpointPolicy{Every: 4096})
		if err != nil {
			return restartRow{}, err
		}
		if err := l.Replay(); err != nil {
			return restartRow{}, err
		}
		ckptTimes = append(ckptTimes, time.Since(t0))
		if l.LastSeq() != total {
			return restartRow{}, fmt.Errorf("checkpointed replay lost events: %d != %d", l.LastSeq(), total)
		}
		tail = l.LastSeq() - l.CheckpointSeq()
		if err := l.Close(); err != nil {
			return restartRow{}, err
		}

		t0 = time.Now()
		l, err = events.OpenDir(fullDir, nil, opts, events.CheckpointPolicy{})
		if err != nil {
			return restartRow{}, err
		}
		if err := l.Replay(); err != nil {
			return restartRow{}, err
		}
		fullTimes = append(fullTimes, time.Since(t0))
		if l.LastSeq() != total {
			return restartRow{}, fmt.Errorf("full replay lost events: %d != %d", l.LastSeq(), total)
		}
		if err := l.Close(); err != nil {
			return restartRow{}, err
		}
	}
	return restartRow{
		Mult:         mult,
		Events:       total,
		TailEvents:   tail,
		CheckpointMS: median(ckptTimes),
		FullReplayMS: median(fullTimes),
	}, nil
}

// checkRestartGate fails when the fresh restart report breaks the flat-
// restart invariant: the checkpointed restart at 100x event volume may not
// exceed 2x the 1x baseline (the ratio is computed within one run, so CI
// machine speed cancels out). Baselines must be comparable (same -quick
// and GOMAXPROCS).
func checkRestartGate(committed, fresh *restartReport) error {
	if len(committed.Rows) == 0 || len(fresh.Rows) == 0 {
		return fmt.Errorf("restart gate: empty report (committed %d rows, fresh %d)",
			len(committed.Rows), len(fresh.Rows))
	}
	if committed.Quick != fresh.Quick || committed.GoMaxProcs != fresh.GoMaxProcs {
		return fmt.Errorf("restart gate: baseline ran quick=%v gomaxprocs=%d but this run is quick=%v gomaxprocs=%d — not comparable",
			committed.Quick, committed.GoMaxProcs, fresh.Quick, fresh.GoMaxProcs)
	}
	if fresh.Ratio > 2.0 {
		return fmt.Errorf("restart gate: checkpointed restart at %dx volume is %.2fx the 1x baseline (limit 2.0) — restart cost is no longer flat",
			fresh.Rows[len(fresh.Rows)-1].Mult, fresh.Ratio)
	}
	return nil
}

// overheadReport is the machine-readable overhead experiment payload.
type overheadReport struct {
	Venue      string  `json:"venue"`
	Seed       int64   `json:"seed"`
	Quick      bool    `json:"quick"`
	Rounds     int     `json:"rounds"`
	Batches    int     `json:"batches"`
	BareMS     float64 `json:"bare_ms"`
	InstrMS    float64 `json:"instrumented_ms"`
	BareCPUMS  float64 `json:"bare_cpu_ms"`
	InstrCPUMS float64 `json:"instrumented_cpu_ms"`
	// Overhead is the mean of the paired per-batch instrumented/bare
	// process-CPU-time ratios (geometric), minus one — a fraction,
	// 0.02 = 2%. OverheadLower is its one-sided 95% lower confidence
	// bound; the gate compares that bound against Budget so per-batch
	// work-divergence noise cannot flake the verdict.
	Overhead      float64 `json:"overhead"`
	OverheadLower float64 `json:"overhead_lower"`
	Budget        float64 `json:"budget,omitempty"`
}

// overhead measures the telemetry tax on the ingest hot path. Two identical
// backends consume the same photo batches; one carries the full production
// instrumentation (batch tracer, ingest metrics, per-request ID and trace
// context, SLO recording), the other runs bare. Each batch runs on both
// systems with alternating order (to cancel warm-cache bias); the reported
// overhead is the geometric mean of the paired per-batch process-CPU-time
// ratios. CPU time rather than wall clock, because on shared runners
// scheduler preemption swings wall-clock measurements by several percent —
// the same order as the budget being enforced. Both systems are rebuilt
// from scratch every round so no single pair's layout luck colours the
// whole run. Even so, individual pairs carry ±5-20% genuine work
// divergence (map iteration order makes the two pipelines' internal
// states drift), so the gate compares the budget against the one-sided
// 95% lower confidence bound of the mean rather than the point estimate —
// it trips only when instrumentation demonstrably exceeds the budget, not
// on sampling noise. Wall-clock totals are reported for context; off unix
// (no getrusage) the pairing falls back to wall clock.
func (b *bench) overhead() error {
	v, world := b.setup.Venue, b.setup.World
	// A System's maps keep their hash seeds — and its heap its layout —
	// for the system's whole lifetime, so a single bare/instrumented pair
	// carries a run-long correlated bias of ±2%, the same order as the
	// budget being gated. Re-creating both systems each round re-rolls
	// that layout luck; the gated ratio aggregates over every round.
	const rounds = 10
	const perRound = 8

	quiet, err := telemetry.NewLogger(io.Discard, "error", "text")
	if err != nil {
		return err
	}
	tel := telemetry.New(quiet, 64)
	sloT := slo.New(tel.Registry)

	var free []geom.Vec2
	bounds := v.Bounds()
	for y := bounds.Min.Y + 0.7; y < bounds.Max.Y; y += 1.1 {
		for x := bounds.Min.X + 0.7; x < bounds.Max.X; x += 1.1 {
			if p := geom.V2(x, y); !v.Blocked(p) {
				free = append(free, p)
			}
		}
	}
	if len(free) == 0 {
		return fmt.Errorf("overhead: venue has no free sweep positions")
	}

	// With the background pacer on, a concurrent mark cycle lands inside
	// one side's window or the other depending on heap-target drift —
	// tens of milliseconds of CPU billed to whichever side happened to
	// trip it. Disabling automatic GC and collecting explicitly between
	// sides keeps every window collector-free and the heap bounded.
	prevGC := rtdebug.SetGCPercent(-1)
	defer rtdebug.SetGCPercent(prevGC)

	capRng := rand.New(rand.NewSource(b.seed + 31))
	var bareTotal, instrTotal time.Duration
	var cpuBareTotal, cpuInstrTotal time.Duration
	logRatios := make([]float64, 0, rounds*perRound)
	for r := 0; r < rounds; r++ {
		rngBare := rand.New(rand.NewSource(b.seed + 30 + int64(r)))
		rngInstr := rand.New(rand.NewSource(b.seed + 30 + int64(r)))
		// Alternate which side is constructed first so allocator-state
		// bias at construction time does not consistently favour one.
		var sysBare, sysInstr *core.System
		if r%2 == 0 {
			if sysBare, err = core.NewSystem(v, world, core.Config{}); err == nil {
				sysInstr, err = core.NewSystem(v, world, core.Config{})
			}
		} else {
			if sysInstr, err = core.NewSystem(v, world, core.Config{}); err == nil {
				sysBare, err = core.NewSystem(v, world, core.Config{})
			}
		}
		if err != nil {
			return err
		}
		sysInstr.SetTelemetry(tel)

		boot, err := core.BootstrapCapture(world, v, camera.DefaultIntrinsics(), capRng)
		if err != nil {
			return err
		}
		if _, err := sysBare.ProcessBootstrap(boot, rngBare); err != nil {
			return err
		}
		if _, err := sysInstr.ProcessBootstrap(boot, rngInstr); err != nil {
			return err
		}

		for i := 0; i < perRound; i++ {
			pos := free[(r*perRound+i)%len(free)]
			photos, err := world.Sweep(pos, camera.DefaultIntrinsics(), camera.CaptureOptions{}, capRng)
			if err != nil {
				return err
			}
			// A forced collection before each timed side starts both
			// ingests from the same clean heap, so garbage left by one
			// side's run is never collected — and never billed — inside
			// the other side's measurement window.
			runBare := func() (wall, cpu time.Duration, err error) {
				runtime.GC()
				c0 := processCPUTime()
				t0 := time.Now()
				_, err = sysBare.ProcessPhotoBatch(pos, pos, photos, rngBare)
				return time.Since(t0), processCPUTime() - c0, err
			}
			runInstr := func() (wall, cpu time.Duration, err error) {
				runtime.GC()
				c0 := processCPUTime()
				t0 := time.Now()
				sysInstr.SetRequestID(telemetry.NewRequestID())
				sysInstr.SetTraceContext(telemetry.NewTraceContext())
				_, err = sysInstr.ProcessPhotoBatch(pos, pos, photos, rngInstr)
				wall = time.Since(t0)
				sloT.Record("upload", wall, err != nil)
				return wall, processCPUTime() - c0, err
			}
			var wallB, wallI, cpuB, cpuI time.Duration
			if (r*perRound+i)%2 == 0 {
				if wallB, cpuB, err = runBare(); err == nil {
					wallI, cpuI, err = runInstr()
				}
			} else {
				if wallI, cpuI, err = runInstr(); err == nil {
					wallB, cpuB, err = runBare()
				}
			}
			if err != nil {
				return err
			}
			bareTotal += wallB
			instrTotal += wallI
			cpuBareTotal += cpuB
			cpuInstrTotal += cpuI
			if cpuB > 0 && cpuI > 0 {
				logRatios = append(logRatios, math.Log(float64(cpuI)/float64(cpuB)))
			} else if wallB > 0 && wallI > 0 {
				logRatios = append(logRatios, math.Log(float64(wallI)/float64(wallB)))
			}
		}
	}
	point, lower, err := overheadEstimate(logRatios)
	if err != nil {
		return err
	}
	report := overheadReport{
		Venue:         v.Name(),
		Seed:          b.seed,
		Quick:         b.quick,
		Rounds:        rounds,
		Batches:       rounds * perRound,
		BareMS:        float64(bareTotal) / 1e6,
		InstrMS:       float64(instrTotal) / 1e6,
		BareCPUMS:     float64(cpuBareTotal) / 1e6,
		InstrCPUMS:    float64(cpuInstrTotal) / 1e6,
		Overhead:      point,
		OverheadLower: lower,
	}

	fmt.Println("Instrumented ingest overhead — tracer + metrics + SLO vs bare:")
	fmt.Printf("  %d batches over %d fresh-system rounds: bare %.1f ms wall / %.1f ms cpu, instrumented %.1f ms wall / %.1f ms cpu\n",
		report.Batches, report.Rounds, report.BareMS, report.BareCPUMS, report.InstrMS, report.InstrCPUMS)
	fmt.Printf("  CPU-time overhead: %+.2f%% (95%% lower bound %+.2f%%)\n",
		report.Overhead*100, report.OverheadLower*100)

	if b.overheadGate > 0 {
		report.Budget = b.overheadGate
		if err := checkOverheadGate(report.Overhead, report.OverheadLower, b.overheadGate); err != nil {
			return err
		}
		fmt.Printf("  overhead gate passed (budget %.0f%%)\n", b.overheadGate*100)
	}
	return writeReport(b.out, report)
}

// overheadEstimate reduces the paired per-batch instrumented/bare
// log-ratios to the overhead point estimate and its one-sided 95% lower
// confidence bound, both as fractions (0.02 = 2%).
//
// Point estimate: mean of the paired per-batch log-ratios (equal weight
// per batch, so one heavy divergent batch cannot dominate the way it would
// in a ratio of totals). The gate tests the one-sided 95% lower confidence
// bound of that mean: per-batch pairs carry ±5-20% genuine work divergence
// — map iteration order inside the pipeline makes the two systems'
// internal states drift — so a point estimate at a 2% budget would flake
// on noise alone, while the confidence bound stays put unless
// instrumentation demonstrably exceeds the budget.
func overheadEstimate(logRatios []float64) (point, lower float64, err error) {
	n := float64(len(logRatios))
	if n == 0 {
		return 0, 0, fmt.Errorf("overhead: no measurable batches")
	}
	var mean float64
	for _, l := range logRatios {
		mean += l
	}
	mean /= n
	var variance float64
	for _, l := range logRatios {
		variance += (l - mean) * (l - mean)
	}
	if n > 1 {
		variance /= n - 1
	}
	se := math.Sqrt(variance / n)
	return math.Exp(mean) - 1, math.Exp(mean-1.645*se) - 1, nil
}

// checkOverheadGate fails when the overhead's 95% lower bound exceeds the
// budget fraction; the point estimate alone never trips it.
func checkOverheadGate(point, lower, budget float64) error {
	if lower > budget {
		return fmt.Errorf("overhead gate: instrumented ingest is %.2f%% slower than bare (95%% lower bound %.2f%%), over the %.0f%% budget",
			point*100, lower*100, budget*100)
	}
	return nil
}

// ablateObstacle sweeps OBSTACLE_THRESHOLD on the unguided dataset.
func (b *bench) ablateObstacle() error {
	photos, err := b.setup.BuildUnguided(b.seed+4, 0)
	if err != nil {
		return err
	}
	fmt.Println("Ablation — OBSTACLE_THRESHOLD (paper: 4), unguided dataset:")
	fmt.Println("  threshold  bounds%  coverage%")
	for _, th := range []int{1, 2, 4, 8, 16} {
		cfg := core.Config{Mapping: mapping.Config{ObstacleThreshold: th}}
		s, err := experiments.NewSetup(b.setup.Venue, b.seed, cfg)
		if err != nil {
			return err
		}
		res, err := s.EvaluateIncremental(photos, len(photos), b.seed+5)
		if err != nil {
			return err
		}
		last := res.Curve[len(res.Curve)-1]
		fmt.Printf("  %9d  %6.2f  %8.2f\n", th, last.BoundsPct, last.CoveragePct)
	}
	return nil
}

// ablateTolerance sweeps COVERED_VIEW_TOLERANCE in the guided loop on a
// small venue (the loop is the expensive part).
func (b *bench) ablateTolerance() error {
	v, err := venue.SmallRoom()
	if err != nil {
		return err
	}
	fmt.Println("Ablation — COVERED_VIEW_TOLERANCE (paper: 3), small venue guided loop:")
	fmt.Println("  tolerance  tasks  photos  coverage%")
	for _, tol := range []int{1, 3, 6} {
		cfg := core.Config{Margin: 3, TaskGen: taskgen.Config{CoveredViewTolerance: tol}}
		s, err := experiments.NewSetup(v, b.seed, cfg)
		if err != nil {
			return err
		}
		res, err := s.RunGuided(b.seed+6, experiments.GuidedOptions{MaxTasks: 60})
		if err != nil {
			return err
		}
		last := res.Curve[len(res.Curve)-1]
		fmt.Printf("  %9d  %5d  %6d  %8.2f\n",
			tol, len(res.Loop.Iterations), res.Loop.TotalPhotos, last.CoveragePct)
	}
	return nil
}

// ablateMinArea sweeps MIN_AREA_SIZE in the guided loop on a small venue —
// the coverage vs task-count trade-off the paper discusses.
func (b *bench) ablateMinArea() error {
	v, err := venue.SmallRoom()
	if err != nil {
		return err
	}
	fmt.Println("Ablation — MIN_AREA_SIZE (paper: 2.25 m²), small venue guided loop:")
	fmt.Println("  min-area  tasks  photos  coverage%")
	for _, area := range []float64{1.0, 2.25, 5.0, 9.0} {
		cfg := core.Config{Margin: 3, TaskGen: taskgen.Config{MinAreaSize: area}}
		s, err := experiments.NewSetup(v, b.seed, cfg)
		if err != nil {
			return err
		}
		res, err := s.RunGuided(b.seed+7, experiments.GuidedOptions{MaxTasks: 60})
		if err != nil {
			return err
		}
		last := res.Curve[len(res.Curve)-1]
		fmt.Printf("  %7.2f  %6d  %6d  %8.2f\n",
			area, len(res.Loop.Iterations), res.Loop.TotalPhotos, last.CoveragePct)
	}
	return nil
}

// ablateCell sweeps the grid resolution (paper: 15 cm, 10–50 cm range).
func (b *bench) ablateCell() error {
	photos, err := b.setup.BuildUnguided(b.seed+4, 0)
	if err != nil {
		return err
	}
	fmt.Println("Ablation — grid cell size (paper: 0.15 m), unguided dataset:")
	fmt.Println("  cell(m)  bounds%  coverage%")
	for _, res := range []float64{0.10, 0.15, 0.30, 0.50} {
		cfg := core.Config{Res: res}
		s, err := experiments.NewSetup(b.setup.Venue, b.seed, cfg)
		if err != nil {
			return err
		}
		r, err := s.EvaluateIncremental(photos, len(photos), b.seed+5)
		if err != nil {
			return err
		}
		last := r.Curve[len(r.Curve)-1]
		fmt.Printf("  %7.2f  %6.2f  %8.2f\n", res, last.BoundsPct, last.CoveragePct)
	}
	return nil
}

// ablateWindow sweeps the sliding-window size of sharpest-frame extraction.
func (b *bench) ablateWindow() error {
	fmt.Println("Ablation — frame extraction window (paper: 30), opportunistic videos:")
	fmt.Println("  window  frames  bounds%  coverage%")
	for _, win := range []int{1, 10, 30, 60} {
		photos, _, err := b.setup.BuildOpportunistic(b.seed+2, win, 0)
		if err != nil {
			return err
		}
		// Cap so every window size feeds the pipeline equally many frames.
		if len(photos) > 700 {
			photos = photos[:700]
		}
		res, err := b.setup.EvaluateIncremental(photos, len(photos), b.seed+3)
		if err != nil {
			return err
		}
		last := res.Curve[len(res.Curve)-1]
		fmt.Printf("  %6d  %6d  %6.2f  %8.2f\n", win, len(photos), last.BoundsPct, last.CoveragePct)
	}
	return nil
}

// ablateSOR compares the statistical outlier filter on and off.
func (b *bench) ablateSOR() error {
	photos, err := b.setup.BuildUnguided(b.seed+4, 0)
	if err != nil {
		return err
	}
	fmt.Println("Ablation — statistical outlier removal, unguided dataset:")
	fmt.Println("  sor        bounds%  coverage%  spurious-obstacle-cells")
	for _, mode := range []string{"on", "off"} {
		cfg := core.Config{}
		if mode == "off" {
			// A huge multiplier keeps every point.
			cfg.SOR = pointcloud.SOROptions{StdDevMul: 1e9}
		}
		s, err := experiments.NewSetup(b.setup.Venue, b.seed, cfg)
		if err != nil {
			return err
		}
		res, err := s.EvaluateIncremental(photos, len(photos), b.seed+5)
		if err != nil {
			return err
		}
		last := res.Curve[len(res.Curve)-1]
		// Spurious cells: obstacle cells outside the ground-truth
		// obstacle map (SfM outliers surviving into the map).
		spurious := 0
		res.FinalMaps.Obstacles.Each(func(c grid.Cell, val int) {
			if val > 0 && s.GT.Obstacles.At(c) == 0 {
				spurious++
			}
		})
		fmt.Printf("  %-9s  %6.2f  %8.2f  %23d\n", mode, last.BoundsPct, last.CoveragePct, spurious)
	}
	return nil
}
