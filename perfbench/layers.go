package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"snaptask/internal/camera"
	"snaptask/internal/campaign"
	"snaptask/internal/core"
	"snaptask/internal/dispatch"
	"snaptask/internal/events"
	"snaptask/internal/nav"
	"snaptask/internal/server"
	"snaptask/internal/venue"
)

// perLayer lists the metrics every --trace 1 run reports, in
// BENCHMARK.json order.
var perLayer = []string{
	"client.upload_encode_ms", "client.upload_bytes", "client.locate_bytes",
	"server.upload_decode_ms", "server.locate_decode_ms", "server.map_encode_ms",
	"server.admission_wait_ms", "server.shed", "server.publish_ms", "server.publishes",
	"campaign.route_us",
	"core.batch_ms", "core.batches", "core.accept_ratio", "core.load_ms",
	"sfm.match_ms", "sfm.register_ms", "sfm.triangulate_ms", "sfm.registered_ratio",
	"pointcloud.sor_ms", "pointcloud.knn_ms", "pointcloud.stale_scan_ms",
	"mapping.cast_ms", "mapping.obstacles_ms", "mapping.merge_ms",
	"taskgen.step_ms", "taskgen.tasks",
	"dispatch.claim_ms", "dispatch.assign_ms", "dispatch.claims_ok_ratio",
	"events.fsync_ms", "events.fsyncs", "events.checkpoint_ms", "events.restore_ms",
	"nav.match_ms", "nav.localize_ms", "nav.localized_ratio",
	"gen.late_p99_ms", "gen.sweep_ms",
	"runtime.heap_alloc_mb", "runtime.gc_cycles",
	"upload.unattributed_ms", "locate.unattributed_ms", "claim.unattributed_ms", "map.unattributed_ms",
}

// routes maps the layer table's endpoints to the server's route labels.
// Photo and annotation uploads are one endpoint here: the stage
// histograms do not say which kind of batch they timed.
var routes = map[string][]string{
	"upload": {"POST /v1/photos", "POST /v1/annotations"},
	"locate": {"POST /v1/locate"},
	"claim":  {"POST /v1/task/claim"},
	"map":    {"GET /v1/map"},
}

// prom is one /metrics scrape: every sample keyed by its series name and
// labels, with the campaign label dropped so campaigns add up.
type prom map[string]float64

func scrape(ctx context.Context, p *serverProc) (prom, error) {
	c := newHTTPClient(p.base(), 1)
	defer c.close()
	status, body, err := c.do(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", status)
	}
	return parseProm(body), nil
}

func parseProm(text []byte) prom {
	out := prom{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[seriesKey(line[:sp])] += v
	}
	return out
}

// seriesKey canonicalises name{labels}: labels sorted, campaign dropped.
func seriesKey(s string) string {
	name, rest, ok := strings.Cut(s, "{")
	if !ok {
		return s
	}
	var labels []string
	for _, kv := range splitLabels(strings.TrimSuffix(rest, "}")) {
		if !strings.HasPrefix(kv, "campaign=") {
			labels = append(labels, kv)
		}
	}
	sort.Strings(labels)
	return name + "{" + strings.Join(labels, ",") + "}"
}

// splitLabels splits k="v",k2="v2" at commas outside quotes.
func splitLabels(s string) []string {
	var out []string
	inQuote, start := false, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			inQuote = !inQuote
		case ',':
			if !inQuote {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// sum adds every series of name whose labels include all of want.
func (m prom) sum(name string, want ...string) float64 {
	var total float64
	for k, v := range m {
		n, labels, _ := strings.Cut(k, "{")
		if n != name {
			continue
		}
		ok := true
		for _, w := range want {
			if !strings.Contains(","+labels, ","+w) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

func (m prom) minus(o prom) prom {
	out := prom{}
	for k, v := range m {
		out[k] = v - o[k]
	}
	return out
}

// histMS returns a histogram's total (sum) and count over the matching
// series, the total in milliseconds.
func (m prom) histMS(name string, want ...string) (totalMS, count float64) {
	return 1000 * m.sum(name+"_sum", want...), m.sum(name+"_count", want...)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracer holds the scrape taken when the measured phase started; nil when
// the run is not traced.
type tracer struct {
	r      *runCtx
	before prom
}

// beginTrace marks the start of a measured phase. It first collects the
// generator's set-up garbage, so the phase does not pay for it, then, in
// a traced run, takes the opening /metrics scrape.
func (r *runCtx) beginTrace(p *serverProc) (*tracer, error) {
	runtime.GC()
	if !r.trace {
		return nil, nil
	}
	m, err := scrape(r.ctx, p)
	if err != nil {
		return nil, err
	}
	return &tracer{r: r, before: m}, nil
}

// end takes the closing scrape and derives the per-layer metrics the
// server's own histograms and counters give for the measured phase.
func (t *tracer) end(p *serverProc, stats *streamStats) error {
	if t == nil {
		return nil
	}
	after, err := scrape(t.r.ctx, p)
	if err != nil {
		return err
	}
	d := after.minus(t.before)
	t.r.phase = d
	L := t.r.layers
	set := func(name string, v float64, unit string) { L[name] = metric{Value: v, Unit: unit} }

	waitMS, waits := d.histMS("snaptask_admission_queue_wait_seconds")
	set("server.admission_wait_ms", ratio(waitMS, waits), "ms")
	set("server.shed", d.sum("snaptask_requests_shed_total"), "count")
	set("server.publishes", d.sum("snaptask_snapshot_publishes_total"), "count")

	batchMS, batches := d.histMS("snaptask_ingest_batch_duration_seconds")
	set("core.batch_ms", ratio(batchMS, batches), "ms")
	set("core.batches", batches, "count")
	set("core.accept_ratio", ratio(batches-d.sum("snaptask_ingest_batch_rejected_total"), batches), "ratio")

	// Stage histograms, as milliseconds per processed batch.
	stage := func(names ...string) float64 {
		var total float64
		for _, n := range names {
			ms, _ := d.histMS("snaptask_ingest_stage_duration_seconds", `stage="`+n+`"`)
			total += ms
		}
		return ratio(total, batches)
	}
	set("sfm.match_ms", stage("sfm.match"), "ms")
	set("sfm.register_ms", stage("sfm.seed", "sfm.register_sweep"), "ms")
	set("sfm.triangulate_ms", stage("sfm.triangulate"), "ms")
	sharp := d.sum("snaptask_ingest_photos_total") - d.sum("snaptask_ingest_blurry_rejected_total")
	set("sfm.registered_ratio", ratio(sharp-d.sum("snaptask_ingest_unregistered_total"), sharp), "ratio")
	knn, stale := stage("sor.knn"), stage("sor.stale_scan")
	set("pointcloud.sor_ms", stage("sor")-knn-stale, "ms") // self time: sor spans enclose knn and stale_scan
	set("pointcloud.knn_ms", knn, "ms")
	set("pointcloud.stale_scan_ms", stale, "ms")
	set("mapping.cast_ms", stage("map.cast"), "ms")
	set("mapping.obstacles_ms", stage("map.obstacles"), "ms")
	set("mapping.merge_ms", stage("map.merge"), "ms")
	set("taskgen.step_ms", stage("taskgen"), "ms")
	set("taskgen.tasks", d.sum("snaptask_tasks_issued_total"), "count")

	claimMS, claims := d.histMS("snaptask_dispatch_claim_seconds")
	set("dispatch.claim_ms", ratio(claimMS, claims), "ms")
	set("dispatch.claims_ok_ratio", ratio(d.sum("snaptask_dispatch_claims_total", `result="granted"`),
		d.sum("snaptask_dispatch_claims_total")), "ratio")

	fsyncMS, fsyncs := d.histMS("snaptask_events_journal_fsync_seconds")
	set("events.fsync_ms", ratio(fsyncMS, fsyncs), "ms")
	set("events.fsyncs", fsyncs, "count")

	stats.mu.Lock()
	set("nav.localized_ratio", ratio(float64(stats.localized), float64(stats.locates)), "ratio")
	stats.mu.Unlock()
	set("runtime.heap_alloc_mb", after.sum("snaptask_runtime_heap_alloc_bytes")/(1<<20), "MB")
	set("runtime.gc_cycles", d.sum("snaptask_runtime_gc_cycles_total"), "count")

	g := t.r.gen
	g.mu.Lock()
	defer g.mu.Unlock()
	set("client.upload_encode_ms", quantileMS(g.uploadEncode, 50), "ms")
	set("client.upload_bytes", medianInt(g.uploadBytes), "bytes")
	set("client.locate_bytes", medianInt(g.locateBytes), "bytes")
	set("gen.sweep_ms", quantileMS(g.sweep, 50), "ms")
	return nil
}

func medianInt(xs []int) float64 {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return medianFloat(fs)
}

// timeN runs fn n times and returns the median duration.
func timeN(n int, fn func() error) (time.Duration, error) {
	ds := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0))
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2], nil
}

// inProcessInputs are what the in-process spans run against once the
// server child has stopped: its final model snapshot and journal, and the
// run's own request bodies.
type inProcessInputs struct {
	snapPath  string // model.snap the server wrote at shutdown
	eventsDir string // copy of the campaign's journal taken before shutdown
	worldSeed int64
	queries   []locateQuery
	uploads   [][]byte
}

// freshWorld rebuilds a campaign's world: core.LoadSystem adds the
// model's artificial features to the world it is given, so each load gets
// its own.
func freshWorld(seed int64) (*venue.Venue, *camera.World, error) {
	v, err := venue.ByName(venueName, seed)
	if err != nil {
		return nil, nil, err
	}
	return v, camera.NewWorld(v, v.GenerateFeatures(rand.New(rand.NewSource(seed)))), nil
}

// traceJournal copies a journal directory for the in-process restore
// span in a traced run (nothing otherwise).
func (r *runCtx) traceJournal(dir string) (string, error) {
	if !r.trace {
		return "", nil
	}
	return r.copyJournal(dir)
}

// copyJournal copies the regular files of a campaign's journal directory
// (segments, checkpoints, model snapshot) into a fresh directory.
func (r *runCtx) copyJournal(dir string) (string, error) {
	dst, err := r.sup.tempDir(r.dir, "events-")
	if err != nil {
		return "", err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return "", err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return "", err
		}
	}
	return dst, nil
}

func loadSnapshot(path string, seed int64) (*core.System, error) {
	v, world, err := freshWorld(seed)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.LoadSystem(f, v, world)
}

// inProcess times the benchmark's own spans around calls into each
// module's public functions, then builds the per-endpoint layer table.
func (r *runCtx) inProcess(in inProcessInputs) error {
	L := r.layers
	set := func(name string, d time.Duration) { L[name] = metric{Value: ms(d), Unit: "ms"} }

	// core: LoadSystem of the model the server checkpointed.
	var sys *core.System
	d, err := timeN(3, func() error {
		var err error
		sys, err = loadSnapshot(in.snapPath, in.worldSeed)
		return err
	})
	if err != nil {
		return fmt.Errorf("core.LoadSystem: %w", err)
	}
	set("core.load_ms", d)

	// server: New publishes the first read snapshot; its cost is one
	// publish (map render, grid clones, feature index).
	var srv *server.Server
	d, err = timeN(3, func() error {
		var err error
		srv, err = server.New(sys, rand.New(rand.NewSource(in.worldSeed)))
		return err
	})
	if err != nil {
		return err
	}
	set("server.publish_ms", d)
	snap := srv.Snapshot()
	d, _ = timeN(21, func() error { return json.NewEncoder(io.Discard).Encode(snap.Map) })
	set("server.map_encode_ms", d)

	// server decode and nav, over the run's own locate queries.
	var decode, match, localize []time.Duration
	rng := rand.New(rand.NewSource(r.seed))
	for _, q := range in.queries {
		t0 := time.Now()
		var req server.LocateRequest
		if err := json.NewDecoder(bytes.NewReader(q.body)).Decode(&req); err != nil {
			return err
		}
		decode = append(decode, time.Since(t0))
		t0 = time.Now()
		matched := 0
		for _, o := range q.photo.Obs {
			if snap.Features[o.FeatureID] {
				matched++
			}
		}
		match = append(match, time.Since(t0))
		t0 = time.Now()
		_, _ = nav.Localize(q.photo, snap.Features, q.photo.Pose.Pos, rng)
		localize = append(localize, time.Since(t0))
	}
	L["server.locate_decode_ms"] = metric{Value: quantileMS(decode, 50), Unit: "ms"}
	L["nav.match_ms"] = metric{Value: quantileMS(match, 50), Unit: "ms"}
	L["nav.localize_ms"] = metric{Value: quantileMS(localize, 50), Unit: "ms"}
	var upDecode []time.Duration
	for _, body := range in.uploads {
		t0 := time.Now()
		var req server.UploadRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			return err
		}
		upDecode = append(upDecode, time.Since(t0))
	}
	L["server.upload_decode_ms"] = metric{Value: quantileMS(upDecode, 50), Unit: "ms"}

	// dispatch: one worker's claims against the loaded model's queue (a
	// grant, then idempotent re-claims).
	disp := dispatch.New(dispatch.Config{})
	w, err := disp.Register(dispatch.WorkerInfo{})
	if err != nil {
		return err
	}
	d, err = timeN(51, func() error {
		_, _, err := disp.Claim(w.ID, nil, sys)
		if err == dispatch.ErrNoTask {
			return nil
		}
		return err
	})
	if err != nil {
		return err
	}
	set("dispatch.assign_ms", d)

	// campaign: routing cost of the manager in front of a campaign, as the
	// difference between the scoped route through the manager and the same
	// request straight to the campaign's server.
	mgr, err := campaign.NewManager(campaign.ManagerConfig{})
	if err != nil {
		return err
	}
	defer mgr.Close()
	sys2, err := loadSnapshot(in.snapPath, in.worldSeed)
	if err != nil {
		return err
	}
	cp, err := mgr.CreateWith(campaign.Spec{ID: "bench", Venue: venueName, Seed: in.worldSeed}, sys2)
	if err != nil {
		return err
	}
	serve := func(h http.Handler, path string) func() error {
		return func() error {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("in-process GET %s: %d", path, rec.Code)
			}
			return nil
		}
	}
	viaMgr, err := timeN(301, serve(mgr, "/v1/campaigns/bench/status"))
	if err != nil {
		return err
	}
	direct, err := timeN(301, serve(cp.Server(), "/v1/status"))
	if err != nil {
		return err
	}
	L["campaign.route_us"] = metric{Value: float64(viaMgr-direct) / float64(time.Microsecond), Unit: "us"}

	// events: restore (open + replay) of the journal as it stood before
	// the graceful shutdown checkpointed it, then one checkpoint of the
	// restored state.
	var evlog *events.Log
	d, err = timeN(1, func() error {
		var err error
		evlog, err = events.OpenDir(in.eventsDir, nil, events.DirStoreOptions{}, events.CheckpointPolicy{})
		if err != nil {
			return err
		}
		return evlog.Replay()
	})
	if err != nil {
		return fmt.Errorf("events restore: %w", err)
	}
	set("events.restore_ms", d)
	d, err = timeN(1, func() error { return evlog.WriteCheckpoint(evlog.CheckpointDispatch()) })
	closeErr := evlog.Close()
	if err != nil {
		return fmt.Errorf("events checkpoint: %w", err)
	}
	if closeErr != nil {
		return closeErr
	}
	set("events.checkpoint_ms", d)
	r.buildTable()
	return nil
}

// layerRow is one endpoint's reconciliation: layer self times per request
// beside the server-side end-to-end time, and the remainder.
type layerRow struct {
	Workload       string             `json:"workload"`
	Endpoint       string             `json:"endpoint"`
	Requests       float64            `json:"requests"`
	ServerMS       float64            `json:"server_ms"`
	LayersMS       map[string]float64 `json:"layers_ms"`
	UnattributedMS float64            `json:"unattributed_ms"`
}

// buildTable reconciles each endpoint's mean server-side time (the
// server's per-route histogram over the measured phase) against the
// layer self times attributed to one request. Means, not medians, so the
// parts add up.
func (r *runCtx) buildTable() {
	L := func(name string) float64 { return r.layers[name].Value }
	d := r.phase
	stageNames := []string{
		"sfm.match_ms", "sfm.register_ms", "sfm.triangulate_ms",
		"pointcloud.sor_ms", "pointcloud.knn_ms", "pointcloud.stale_scan_ms",
		"mapping.cast_ms", "mapping.obstacles_ms", "mapping.merge_ms", "taskgen.step_ms",
	}
	upload := map[string]float64{
		"server.upload_decode_ms":  L("server.upload_decode_ms"),
		"server.admission_wait_ms": L("server.admission_wait_ms"),
		"events.fsync_ms":          L("events.fsync_ms"), // one journal commit per batch
		"server.publish_ms":        L("server.publish_ms"),
	}
	// core's self time: the batch minus its stages and its journal fsyncs.
	coreSelf := L("core.batch_ms") - L("events.fsync_ms")
	for _, n := range stageNames {
		upload[n] = L(n)
		coreSelf -= L(n)
	}
	upload["core.batch_ms (self)"] = coreSelf
	layers := map[string]map[string]float64{
		"upload": upload,
		"locate": {
			"server.locate_decode_ms": L("server.locate_decode_ms"),
			"nav.match_ms":            L("nav.match_ms"),
			"nav.localize_ms":         L("nav.localize_ms"),
		},
		"claim": {
			"server.admission_wait_ms":              L("server.admission_wait_ms"),
			"dispatch.assign_ms":                    L("dispatch.assign_ms"),
			"server.publish_ms (x claims_ok_ratio)": L("server.publish_ms") * L("dispatch.claims_ok_ratio"),
			"events.fsync_ms (x claims_ok_ratio)":   L("events.fsync_ms") * L("dispatch.claims_ok_ratio"),
		},
		"map": {
			"server.map_encode_ms": L("server.map_encode_ms"),
		},
	}
	for _, ep := range []string{"upload", "locate", "claim", "map"} {
		var totalMS, n float64
		for _, route := range routes[ep] {
			t, c := d.histMS("snaptask_http_request_duration_seconds", `route="`+route+`"`)
			totalMS, n = totalMS+t, n+c
		}
		row := layerRow{Workload: r.workload, Endpoint: ep, Requests: n, ServerMS: ratio(totalMS, n), LayersMS: layers[ep]}
		var attributed float64
		for _, v := range row.LayersMS {
			attributed += v
		}
		if n > 0 {
			row.UnattributedMS = row.ServerMS - attributed
		}
		r.layers[ep+".unattributed_ms"] = metric{Value: row.UnattributedMS, Unit: "ms"}
		r.table = append(r.table, row)
	}
	r.note("layer table: upload covers photo and annotation uploads, its layers are per processed batch; " +
		"a granted claim publishes and commits the journal once, so claim publish and fsync are weighted by the granted share; " +
		"admission wait is the mean over every owner-path request")
	r.note("measured in-process by the benchmark's own spans, on the model and journal the server left: " +
		"server.*_decode_ms and map_encode_ms (encoding/json on the run's bodies), server.publish_ms (server.New, whose cost is one publish), " +
		"core.load_ms, nav.*, dispatch.assign_ms (dispatch.Claim), campaign.route_us (manager vs direct handler), events.restore_ms and checkpoint_ms")
	r.note("not measured from outside: per-request owner-lock hold and response encode of upload/locate/claim " +
		"(no exported histogram; inside the handlers), so they remain in unattributed_ms")
}

func printLayerTable(rows []layerRow) {
	if len(rows) == 0 {
		return
	}
	fmt.Println("layer table (mean ms per request; server = the server's own route histogram):")
	for _, row := range rows {
		names := make([]string, 0, len(row.LayersMS))
		for n := range row.LayersMS {
			names = append(names, n)
		}
		sort.Strings(names)
		if row.Requests == 0 {
			fmt.Printf("  %s/%s  no requests in the measured phase\n", row.Workload, row.Endpoint)
			continue
		}
		fmt.Printf("  %s/%s  requests=%.0f  server=%.3f\n", row.Workload, row.Endpoint, row.Requests, row.ServerMS)
		for _, n := range names {
			fmt.Printf("      %-40s %10.3f\n", n, row.LayersMS[n])
		}
		fmt.Printf("      %-40s %10.3f\n", row.Endpoint+".unattributed_ms", row.UnattributedMS)
	}
}

// printOverhead compares this traced run's end-to-end metrics with the
// untraced run of the same workload and seed, when one was recorded.
func (r *runCtx) printOverhead(work string) {
	base, err := readRecord(filepath.Join(work, "results"), r.workload, r.seed, false)
	if err != nil {
		fmt.Printf("tracing overhead: no untraced record for %s seed %d (run --trace 0 first)\n", r.workload, r.seed)
		return
	}
	fmt.Println("tracing overhead (traced vs untraced run, same workload and seed):")
	names := make([]string, 0, len(r.e2e))
	for name := range r.e2e {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a, b := r.e2e[name], base.EndToEnd[name]
		if b.Value == 0 {
			continue
		}
		fmt.Printf("  %-24s traced %10.3f  untraced %10.3f  %+6.1f%%\n", name, a.Value, b.Value, 100*(a.Value/b.Value-1))
	}
}
