// The load experiment: an open-loop fleet harness against the built
// snaptask-server. Unlike `snaptask-agent -workers N` (closed-loop: each
// worker waits for its last response before the next request, so a slow
// server conveniently slows the load down), the schedule here is fixed in
// advance — arrivals keep coming while the server struggles, latency is
// measured from each arrival's *intended* start time (coordinated-omission
// corrected), and overload shows up as shed 429s and queue growth instead
// of silently reduced offered load.
//
// The harness covers the small room in-process, seeds a journal root with
// it (the default campaign plus the multi-campaign clones), and starts the
// built server as a child process over that root, which restores the
// campaigns the way a production restart does. The phases: two steady
// campaigns at the base rate over the covered venue with uploads still
// ingesting, a calm calibration pass, the multi-campaign phase, then a
// deliberate overload that must shed (429 + Retry-After, bounded queues)
// rather than collapse, with /v1/slo flipping to burning. The committed
// BENCH_load.json merges the two steady campaigns' histograms and
// cross-references harness p99 against the server's /metrics histogram.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"snaptask/internal/camera"
	"snaptask/internal/campaign"
	"snaptask/internal/client"
	"snaptask/internal/core"
	"snaptask/internal/geom"
	"snaptask/internal/loadgen"
	"snaptask/internal/server"
	"snaptask/internal/telemetry/slo"
	"snaptask/internal/venue"
)

// loadScale is the fixed knob set for one harness run. Quick mode is the
// "small fixed scale" CI runs; the full scale produces the committed
// BENCH_load.json (≥1000 open-loop workers, two steady campaigns).
type loadScale struct {
	workers     int
	baseRate    float64 // steady offered ops/sec
	campaignDur time.Duration
	overloadX   float64 // overload rate = baseRate * overloadX
	overloadDur time.Duration
	workerIDs   int // registered worker identities shared by the fleet
	maxQueue    int
	ratePerSec  float64 // per-key admission token-bucket rate
	uploadPool  int     // distinct photo batches cycled by upload ops
}

func (b *bench) loadScaleFor() loadScale {
	if b.quick {
		return loadScale{
			workers: 200, baseRate: 120, campaignDur: 6 * time.Second,
			overloadX: 5, overloadDur: 6 * time.Second,
			workerIDs: 32, maxQueue: 32, ratePerSec: 150, uploadPool: 16,
		}
	}
	// ratePerSec is sized between the steady per-key demand (~155/s of
	// locate+upload share the remote-host bucket) and the overload demand,
	// so steady traffic never trips the limiter while the overload campaign
	// produces a 429 storm large enough to push the SLO long windows over
	// their burn thresholds.
	return loadScale{
		workers: 1000, baseRate: 250, campaignDur: 12 * time.Second,
		overloadX: 4, overloadDur: 10 * time.Second,
		workerIDs: 64, maxQueue: 64, ratePerSec: 180, uploadPool: 32,
	}
}

// loadEndpointRow is one endpoint's merged-steady-state measurement.
type loadEndpointRow struct {
	Endpoint string `json:"endpoint"`
	Offered  uint64 `json:"offered"`
	Done     uint64 `json:"done"`
	OK       uint64 `json:"ok"`
	Shed     uint64 `json:"shed"`
	Errors   uint64 `json:"errors"`
	// Corrected measures from the intended arrival time (includes harness
	// queue wait — the latency an open-loop client population experiences);
	// Service measures send-to-response (comparable to the server's own
	// per-request histogram).
	Corrected loadgen.Quantiles `json:"corrected"`
	Service   loadgen.Quantiles `json:"service"`
	// ServerP99LowMS/ServerP99MS bracket the server-side /metrics histogram
	// p99 (bucket bounds; the exposition only has bucket resolution).
	// ServerAgree is true when the harness service p99 falls inside that
	// bracket as widened by serverAgrees. The gate enforces it only on
	// calibration rows, where both sides saw the identical calm population.
	ServerP99LowMS float64 `json:"server_p99_low_ms,omitempty"`
	ServerP99MS    float64 `json:"server_p99_ms,omitempty"`
	ServerAgree    bool    `json:"server_agree"`
}

// loadCampaignRow summarises one campaign.
type loadCampaignRow struct {
	Name        string  `json:"name"`
	Overload    bool    `json:"overload"`
	OfferedQPS  float64 `json:"offered_qps"`
	AchievedQPS float64 `json:"achieved_qps"`
	DurationSec float64 `json:"duration_sec"`
	Offered     uint64  `json:"offered"`
	Done        uint64  `json:"done"`
	Shed        uint64  `json:"shed"`
	Errors      uint64  `json:"errors"`
	Unsent      uint64  `json:"unsent"`
}

// loadSLORow is one /v1/slo endpoint verdict at a sample point.
type loadSLORow struct {
	Endpoint string  `json:"endpoint"`
	Burning  bool    `json:"burning"`
	Severity string  `json:"severity,omitempty"`
	BadRatio float64 `json:"bad_ratio_5m"`
}

// loadMultiRow is one campaign's steady measurement from the
// multi-campaign phase: the covered model cloned into N campaigns of the
// one server, each driven concurrently at baseRate/N.
type loadMultiRow struct {
	Campaign    string            `json:"campaign"`
	OfferedQPS  float64           `json:"offered_qps"`
	AchievedQPS float64           `json:"achieved_qps"`
	Offered     uint64            `json:"offered"`
	Done        uint64            `json:"done"`
	Shed        uint64            `json:"shed"`
	Errors      uint64            `json:"errors"`
	Endpoints   []loadEndpointRow `json:"endpoints"`
}

// loadMultiReport is the multi-campaign dimension of BENCH_load.json.
// Baseline is the in-phase control: one campaign of the same server
// driven at the full base rate immediately before the concurrent shards,
// so the gate's shard-vs-single comparison shares process state and host
// conditions with the shards it judges. Shard-per-venue ownership means
// splitting that same offered load across N campaigns must not make any
// single campaign slower than the one-campaign control.
type loadMultiReport struct {
	Campaigns       int            `json:"campaigns"`
	RatePerCampaign float64        `json:"rate_per_campaign"`
	WorkersPerCamp  int            `json:"workers_per_campaign"`
	DurationSec     float64        `json:"duration_sec"`
	Baseline        loadMultiRow   `json:"baseline"`
	Rows            []loadMultiRow `json:"rows"`
}

// loadReport is the machine-readable BENCH_load.json payload.
type loadReport struct {
	Venue      string            `json:"venue"`
	Seed       int64             `json:"seed"`
	Quick      bool              `json:"quick"`
	GoMaxProcs int               `json:"gomaxprocs"`
	Workers    int               `json:"workers"`
	Covered    bool              `json:"covered"`
	Campaigns  []loadCampaignRow `json:"campaigns"`
	// Endpoints merges the steady (non-overload) campaigns.
	Endpoints []loadEndpointRow `json:"endpoints"`
	// OverloadEndpoints is the overload campaign alone — the shed behaviour
	// under deliberate saturation.
	OverloadEndpoints []loadEndpointRow `json:"overload_endpoints"`
	// Calibration cross-validates the two measurement pipelines: a short
	// low-rate pass whose server-side histogram is obtained by diffing
	// /metrics bucket counts before/after, so harness and server measure
	// the *identical* request population without saturation noise. Its
	// ServerAgree uses a tight tolerance and is what the gate enforces.
	Calibration []loadEndpointRow `json:"calibration"`
	// SLOSteady/SLOOverload are the server's own verdicts sampled after the
	// steady campaigns and after the overload campaign.
	SLOSteady   []loadSLORow      `json:"slo_steady"`
	SLOOverload []loadSLORow      `json:"slo_overload"`
	ShedByCause map[string]uint64 `json:"shed_by_cause,omitempty"`
	// MultiCampaign is the shard-per-venue phase: the covered model cloned
	// into >=4 campaigns of the one server, driven concurrently.
	MultiCampaign *loadMultiReport `json:"multi_campaign,omitempty"`
}

// load runs the open-loop harness experiment (see the package comment).
func (b *bench) load() error {
	gate, err := readGate[loadReport](b.gate)
	if err != nil {
		return err
	}
	sc := b.loadScaleFor()
	// The harness always runs over the small room, whatever -quick says
	// about fleet scale: its axis is concurrent clients against the serving
	// and admission path, and a deliberately small model keeps per-op cost
	// flat so the latency distributions measure the server, not SfM growth
	// (model-size scaling is the ingest experiments' axis).
	v, err := venue.SmallRoom()
	if err != nil {
		return err
	}
	feats := v.GenerateFeatures(rand.New(rand.NewSource(b.seed)))
	world := camera.NewWorld(v, feats)

	sys, err := core.NewSystem(v, world, core.Config{})
	if err != nil {
		return err
	}

	// --- Scenario state: cover the venue first (directly on the system —
	// keeps the HTTP metrics clean for the harness comparison), so claim
	// traffic exercises the covered fast path while uploads keep ingesting.
	capRng := rand.New(rand.NewSource(b.seed + 32))
	sysRng := rand.New(rand.NewSource(b.seed + 33))
	boot, err := core.BootstrapCapture(world, v, camera.DefaultIntrinsics(), capRng)
	if err != nil {
		return err
	}
	if _, err := sys.ProcessBootstrap(boot, sysRng); err != nil {
		return err
	}
	var free []geom.Vec2
	bounds := v.Bounds()
	for y := bounds.Min.Y + 0.7; y < bounds.Max.Y; y += 1.25 {
		for x := bounds.Min.X + 0.7; x < bounds.Max.X; x += 1.25 {
			if p := geom.V2(x, y); !v.Blocked(p) {
				free = append(free, p)
			}
		}
	}
	if len(free) == 0 {
		return fmt.Errorf("load: venue has no free sweep positions")
	}
	b.log.Info("covering the venue before the load run",
		slog.Int("positions", len(free)))
	var locatePool []camera.Photo
	coverCap := 2 * len(free)
	for i := 0; i < coverCap && !sys.Covered(); i++ {
		pos := free[i%len(free)]
		photos, err := world.Sweep(pos, camera.DefaultIntrinsics(), camera.CaptureOptions{}, capRng)
		if err != nil {
			return err
		}
		if _, err := sys.ProcessPhotoBatch(pos, pos, photos, sysRng); err != nil {
			return err
		}
		if len(locatePool) < 256 && len(photos) > 0 {
			locatePool = append(locatePool, photos[0])
		}
	}
	covered := sys.Covered()
	b.log.Info("venue prepared", slog.Bool("covered", covered),
		slog.Int("views", sys.Model().NumViews()))

	// Upload pool: small fresh batches at jittered positions — real
	// owner-path ingest work during the run without one sweep per op.
	uploadPool := make([][]camera.Photo, 0, sc.uploadPool)
	for i := 0; i < sc.uploadPool; i++ {
		pos := free[capRng.Intn(len(free))]
		photos, err := world.Sweep(pos, camera.DefaultIntrinsics(), camera.CaptureOptions{}, capRng)
		if err != nil {
			return err
		}
		if len(photos) > 3 {
			photos = photos[:3]
		}
		uploadPool = append(uploadPool, photos)
	}

	// --- Backend under test: the built server over a journal root that
	// holds the covered model as every campaign the run drives.
	root, err := os.MkdirTemp("", "snaptask-load-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	journal := filepath.Join(root, "journal")
	multiIDs := []string{"baseline", "shard-1", "shard-2", "shard-3", "shard-4"}
	if err := seedJournalRoot(journal, b.seed, sys, multiIDs); err != nil {
		return fmt.Errorf("load: seed journal root: %w", err)
	}
	srv, err := startServer(filepath.Join(root, "snaptask-server"), journal, b.seed, sc)
	if err != nil {
		return err
	}
	defer srv.stop(os.Kill)
	base := srv.base

	// --- Harness client. One shared http.Client with a deep idle pool:
	// the default per-host cap of 2 idle connections would turn a
	// 1000-worker fleet into a connection-churn benchmark.
	hc := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        4096,
		MaxIdleConnsPerHost: 4096,
	}}
	cl := client.New(base, hc)
	cl.MaxRetries429 = -1 // the harness must observe raw 429s, never retry

	workerIDs := make([]string, sc.workerIDs)
	for i := range workerIDs {
		reg, err := cl.RegisterWorker(server.RegisterWorkerRequest{})
		if err != nil {
			return fmt.Errorf("load: register worker: %w", err)
		}
		workerIDs[i] = reg.ID
	}

	ops := loadOps(cl, workerIDs, locatePool, uploadPool)

	report := loadReport{
		Venue: v.Name(), Seed: b.seed, Quick: b.quick,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Workers:    sc.workers, Covered: covered,
	}

	runCampaign := func(name string, rate float64, dur time.Duration, seedOff int64) (*loadgen.Result, error) {
		res, err := loadgen.Run(context.Background(), loadgen.Config{
			Workers:  sc.workers,
			Arrivals: loadgen.Poisson{PerSec: rate},
			Duration: dur,
			Ops:      ops,
			Think:    loadgen.ThinkTime{Median: 20 * time.Millisecond, Sigma: 1.0, Max: 2 * time.Second},
			Churn: loadgen.Churn{CrashProb: 0.002,
				Outage: loadgen.ThinkTime{Median: 300 * time.Millisecond, Sigma: 1.0, Max: 3 * time.Second}},
			Seed:         b.seed + seedOff,
			DrainTimeout: 20 * time.Second,
			OnProgress: func(p loadgen.Progress) {
				fmt.Printf("\r\033[K[%s] %5.1fs offered=%d done=%d ok=%d shed=%d err=%d queued=%d %.0f/s p99 up=%s loc=%s claim=%s",
					name, p.Elapsed.Seconds(), p.Offered, p.Done, p.OK, p.Shed, p.Errors,
					p.Queued, p.Achieved,
					fmtP99(p.P99["upload"]), fmtP99(p.P99["locate"]), fmtP99(p.P99["claim"]))
			},
		})
		fmt.Println()
		if err != nil {
			return nil, err
		}
		shed, errs := shedAndErrors(res)
		report.Campaigns = append(report.Campaigns, loadCampaignRow{
			Name: name, Overload: rate > sc.baseRate,
			OfferedQPS: res.OfferedRate, AchievedQPS: res.Achieved,
			DurationSec: res.Elapsed.Seconds(),
			Offered:     res.Offered, Done: res.Done, Shed: shed, Errors: errs,
			Unsent: res.Unsent,
		})
		return res, nil
	}

	routes := map[string]string{
		"upload": "POST /v1/photos",
		"locate": "POST /v1/locate",
		"claim":  "POST /v1/task/claim",
	}

	// --- Two steady campaigns, a calibration pass, then the overload.
	steady := make([]*loadgen.Result, 0, 2)
	for i := 1; i <= 2; i++ {
		res, err := runCampaign(fmt.Sprintf("campaign-%d", i), sc.baseRate, sc.campaignDur, int64(40+i))
		if err != nil {
			return err
		}
		steady = append(steady, res)
	}
	steadyMetrics, err := httpGetBody(base + "/metrics")
	if err != nil {
		return err
	}
	report.SLOSteady, err = fetchSLO(base)
	if err != nil {
		return err
	}

	// --- Calibration pass: light constant load, no churn. The server-side
	// histogram for exactly these requests is the bucket-count diff between
	// the scrape above and the one below, so the agreement check compares
	// the same population on both sides — under saturation the open-loop
	// client legitimately sees queueing the handler timer never can.
	calib, err := loadgen.Run(context.Background(), loadgen.Config{
		Workers:      32,
		Arrivals:     loadgen.Constant{PerSec: 40},
		Duration:     4 * time.Second,
		Ops:          ops,
		Think:        loadgen.ThinkTime{Median: 5 * time.Millisecond, Sigma: 1.0, Max: 100 * time.Millisecond},
		Seed:         b.seed + 44,
		DrainTimeout: 10 * time.Second,
	})
	if err != nil {
		return err
	}
	calibMetrics, err := httpGetBody(base + "/metrics")
	if err != nil {
		return err
	}
	report.Calibration = mergeEndpointRows([]*loadgen.Result{calib}, routes, steadyMetrics, calibMetrics)

	// --- Multi-campaign phase: the covered model's clones, a baseline and
	// four shards, each shard driven at baseRate/4 concurrently. Runs
	// before the overload so shard latency is not coloured by the
	// deliberate saturation's drain and GC debris.
	b.log.Info("running the multi-campaign phase",
		slog.Int("campaigns", len(multiIDs)-1), slog.Float64("rate_per_campaign", sc.baseRate/4))
	report.MultiCampaign, err = b.loadMulti(sc, base, multiIDs, locatePool, uploadPool, hc)
	if err != nil {
		return err
	}

	overload, err := runCampaign("overload", sc.baseRate*sc.overloadX, sc.overloadDur, 43)
	if err != nil {
		return err
	}
	report.SLOOverload, err = fetchSLO(base)
	if err != nil {
		return err
	}
	finalMetrics, err := httpGetBody(base + "/metrics")
	if err != nil {
		return err
	}
	report.ShedByCause = parseShedCauses(finalMetrics)
	if err := srv.stop(os.Interrupt); err != nil {
		return err
	}

	// --- Fold the steady campaigns into merged per-endpoint rows and
	// bracket each against the server's own histogram (sampled before the
	// overload, so both sides saw identical traffic).
	report.Endpoints = mergeEndpointRows(steady, routes, "", steadyMetrics)
	report.OverloadEndpoints = mergeEndpointRows([]*loadgen.Result{overload}, nil, "", "")

	// --- Human-readable report.
	fmt.Printf("\nOpen-loop load — %d workers, poisson %g/s steady ×2, %g/s overload (venue covered=%v):\n",
		sc.workers, sc.baseRate, sc.baseRate*sc.overloadX, covered)
	fmt.Println("  steady (merged, coordinated-omission corrected from intended start):")
	fmt.Println("  endpoint  offered  done     ok       shed   err   p50(ms)  p95(ms)  p99(ms)  p99.9(ms)  svc-p99  server-p99      agree")
	for _, e := range report.Endpoints {
		fmt.Printf("  %-8s  %-7d  %-7d  %-7d  %-5d  %-4d  %-7.1f  %-7.1f  %-7.1f  %-9.1f  %-7.1f  (%.1f..%.1f]  %v\n",
			e.Endpoint, e.Offered, e.Done, e.OK, e.Shed, e.Errors,
			e.Corrected.P50, e.Corrected.P95, e.Corrected.P99, e.Corrected.P999,
			e.Service.P99, e.ServerP99LowMS, e.ServerP99MS, e.ServerAgree)
	}
	fmt.Println("  calibration (calm pass; server p99 from bucket diff of the same requests):")
	for _, e := range report.Calibration {
		fmt.Printf("  %-8s  done=%-5d svc-p99=%-7.1fms server-p99=(%.1f..%.1f]ms agree=%v\n",
			e.Endpoint, e.Done, e.Service.P99, e.ServerP99LowMS, e.ServerP99MS, e.ServerAgree)
	}
	fmt.Println("  overload:")
	for _, e := range report.OverloadEndpoints {
		fmt.Printf("  %-8s  offered=%-6d done=%-6d ok=%-6d shed=%-6d err=%-4d p99=%.1fms\n",
			e.Endpoint, e.Offered, e.Done, e.OK, e.Shed, e.Errors, e.Corrected.P99)
	}
	fmt.Println("  campaigns:")
	for _, c := range report.Campaigns {
		fmt.Printf("  %-10s  offered=%6.0f/s achieved=%6.0f/s (%.2f) shed=%d err=%d unsent=%d\n",
			c.Name, c.OfferedQPS, c.AchievedQPS, c.AchievedQPS/c.OfferedQPS,
			c.Shed, c.Errors, c.Unsent)
	}
	if mc := report.MultiCampaign; mc != nil {
		fmt.Printf("  multi-campaign (%d shards, %g/s + %d workers each, corrected p99):\n",
			mc.Campaigns, mc.RatePerCampaign, mc.WorkersPerCamp)
		rows := append([]loadMultiRow{mc.Baseline}, mc.Rows...)
		for _, row := range rows {
			parts := make([]string, 0, len(row.Endpoints))
			for _, e := range row.Endpoints {
				parts = append(parts, fmt.Sprintf("%s=%.1fms", e.Endpoint, e.Corrected.P99))
			}
			fmt.Printf("  %-9s achieved=%5.0f/s shed=%-3d err=%-3d %s\n",
				row.Campaign, row.AchievedQPS, row.Shed, row.Errors, strings.Join(parts, "  "))
		}
	}
	fmt.Println("  /v1/slo cross-reference:")
	fmt.Printf("    steady:   %s\n", fmtSLO(report.SLOSteady))
	fmt.Printf("    overload: %s\n", fmtSLO(report.SLOOverload))
	if len(report.ShedByCause) > 0 {
		fmt.Printf("  sheds by cause: %v\n", report.ShedByCause)
	}

	if err := writeReport(b.out, report); err != nil {
		return err
	}
	return checkLoadGate(gate, &report)
}

// checkLoadGate applies the CI regression gate: steady campaigns must
// achieve ≥ 90% of offered load, upload/locate steady p99 must stay within
// 2x the committed baseline, harness and server p99 must agree, and the
// overload campaign must actually shed while /v1/slo burns.
func checkLoadGate(gate, fresh *loadReport) error {
	// Overload invariants hold with or without a baseline: they are
	// computed within the fresh run.
	var overloadShed uint64
	sloBurned := false
	for _, c := range fresh.Campaigns {
		if c.Overload {
			overloadShed += c.Shed
		} else if ratio := c.AchievedQPS / c.OfferedQPS; ratio < 0.9 {
			return fmt.Errorf("load gate: campaign %s achieved/offered %.2f < 0.9", c.Name, ratio)
		}
	}
	for _, s := range fresh.SLOOverload {
		if s.Burning {
			sloBurned = true
		}
	}
	if overloadShed == 0 {
		return fmt.Errorf("load gate: overload campaign shed nothing — admission control inert")
	}
	if !sloBurned {
		return fmt.Errorf("load gate: /v1/slo reports no endpoint burning after deliberate overload")
	}
	// Pipeline agreement is enforced on the calibration pass, where both
	// sides measured the identical calm population; the steady rows'
	// ServerAgree stays informational (under saturation the open-loop
	// client legitimately observes queueing the handler timer cannot).
	for _, e := range fresh.Calibration {
		if e.ServerP99MS > 0 && !e.ServerAgree {
			return fmt.Errorf("load gate: calibration %s service p99 %.1fms disagrees with server histogram (%.1f..%.1f]ms",
				e.Endpoint, e.Service.P99, e.ServerP99LowMS, e.ServerP99MS)
		}
	}
	// Multi-campaign invariants (within-phase): every shard must absorb its
	// offered quarter, and no shard's corrected p99 may exceed ~1.25x the
	// in-phase single-campaign baseline (the same offered load against one
	// campaign of the same manager, measured seconds earlier) plus absolute
	// scheduler slack — shards contending on each other's owner locks would
	// surface exactly here. Comparing within one phase cancels machine
	// speed and cross-phase heap state.
	if gate != nil && gate.MultiCampaign != nil && fresh.MultiCampaign == nil {
		return fmt.Errorf("load gate: baseline has a multi-campaign phase but this run produced none")
	}
	if mc := fresh.MultiCampaign; mc != nil {
		if len(mc.Rows) < 4 {
			return fmt.Errorf("load gate: multi-campaign phase ran %d campaigns, want >= 4", len(mc.Rows))
		}
		single := make(map[string]float64, len(mc.Baseline.Endpoints))
		for _, e := range mc.Baseline.Endpoints {
			single[e.Endpoint] = e.Corrected.P99
		}
		if ratio := mc.Baseline.AchievedQPS / mc.Baseline.OfferedQPS; ratio < 0.9 {
			return fmt.Errorf("load gate: multi-campaign baseline achieved/offered %.2f < 0.9", ratio)
		}
		for _, row := range mc.Rows {
			if ratio := row.AchievedQPS / row.OfferedQPS; ratio < 0.9 {
				return fmt.Errorf("load gate: campaign %s achieved/offered %.2f < 0.9", row.Campaign, ratio)
			}
			for _, e := range row.Endpoints {
				base, ok := single[e.Endpoint]
				if !ok || base <= 0 {
					continue
				}
				if limit := base*1.25 + 50; e.Corrected.P99 > limit {
					return fmt.Errorf("load gate: campaign %s %s corrected p99 %.1fms > 1.25x single-campaign baseline %.1fms + 50ms slack",
						row.Campaign, e.Endpoint, e.Corrected.P99, base)
				}
			}
		}
	}
	if gate == nil {
		return nil
	}
	committed := make(map[string]loadEndpointRow, len(gate.Endpoints))
	for _, e := range gate.Endpoints {
		committed[e.Endpoint] = e
	}
	for _, e := range fresh.Endpoints {
		if e.Endpoint != "upload" && e.Endpoint != "locate" {
			continue
		}
		base, ok := committed[e.Endpoint]
		if !ok || base.Corrected.P99 <= 0 {
			continue
		}
		if e.Corrected.P99 > 2*base.Corrected.P99 {
			return fmt.Errorf("load gate: %s corrected p99 %.1fms > 2x committed %.1fms",
				e.Endpoint, e.Corrected.P99, base.Corrected.P99)
		}
	}
	fmt.Println("  load gate passed")
	return nil
}

// mergeEndpointRows folds per-campaign endpoint stats (histograms merged)
// into report rows. Each endpoint in routes is bracketed against the
// server's histogram of the requests between the /metrics scrapes before
// and after (before "" counts from the server's start): the bucket-count
// diff of the two, judged by serverAgrees.
func mergeEndpointRows(results []*loadgen.Result, routes map[string]string, before, after string) []loadEndpointRow {
	type acc struct {
		row       loadEndpointRow
		corrected loadgen.Histogram
		service   loadgen.Histogram
	}
	merged := map[string]*acc{}
	for _, res := range results {
		for name, st := range res.Endpoints {
			a := merged[name]
			if a == nil {
				a = &acc{row: loadEndpointRow{Endpoint: name}}
				merged[name] = a
			}
			a.row.Offered += st.Offered.Load()
			a.row.Done += st.Done.Load()
			a.row.OK += st.OK.Load()
			a.row.Shed += st.Shed.Load()
			a.row.Errors += st.Errors.Load()
			a.corrected.Merge(&st.Corrected)
			a.service.Merge(&st.Service)
		}
	}
	rows := make([]loadEndpointRow, 0, len(merged))
	for name, a := range merged {
		a.row.Corrected = a.corrected.Summary()
		a.row.Service = a.service.Summary()
		if route, ok := routes[name]; ok {
			diff := subtractBuckets(parseBuckets(after, route), parseBuckets(before, route))
			if low, high, found := bucketP99(diff); found {
				a.row.ServerP99LowMS = low * 1000
				a.row.ServerP99MS = high * 1000
				a.row.ServerAgree = serverAgrees(a.row.Service.P99, a.row.ServerP99LowMS, a.row.ServerP99MS)
			}
		}
		rows = append(rows, a.row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Endpoint < rows[j].Endpoint })
	return rows
}

// serverAgrees is the one agreement rule between a harness service p99
// and the server histogram's p99 bucket (low, high], all in ms: within 2x
// the upper bound plus 25ms scheduler slack (GOMAXPROCS=1 preemption
// slices are ~10-20ms), and at least half the lower bound. It catches
// gross disagreement (a wrong clock, a harness accounting bug), not
// millisecond equality: the exposition only resolves to bucket bounds,
// and the harness side also pays loopback.
func serverAgrees(svc, low, high float64) bool {
	return svc <= high*2+25 && (low == 0 || svc >= low/2)
}

// metricBucket is one cumulative histogram bucket from a text exposition.
type metricBucket struct {
	le  float64
	cum uint64
}

// defaultCampaign is the label every series the single-campaign phases
// read must carry: the server exports one series per campaign for the same
// route, and the multi-campaign phase's campaigns must not leak into the
// default campaign's histograms.
const defaultCampaign = `campaign="default"`

// parseBuckets extracts one route's cumulative request-duration bucket
// series of the default campaign from a Prometheus text exposition, sorted
// by bound.
func parseBuckets(metrics, route string) []metricBucket {
	prefix := "snaptask_http_request_duration_seconds_bucket{"
	needle := `route="` + route + `"`
	var bkts []metricBucket
	for _, line := range strings.Split(metrics, "\n") {
		if !strings.HasPrefix(line, prefix) || !strings.Contains(line, needle) ||
			!strings.Contains(line, defaultCampaign) {
			continue
		}
		li := strings.Index(line, `le="`)
		if li < 0 {
			continue
		}
		rest := line[li+len(`le="`):]
		qi := strings.Index(rest, `"`)
		if qi < 0 {
			continue
		}
		leStr := rest[:qi]
		var le float64
		if leStr == "+Inf" {
			le = math.Inf(1)
		} else if v, err := strconv.ParseFloat(leStr, 64); err == nil {
			le = v
		} else {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		cum, err := strconv.ParseUint(strings.TrimSpace(line[sp+1:]), 10, 64)
		if err != nil {
			continue
		}
		bkts = append(bkts, metricBucket{le: le, cum: cum})
	}
	sort.Slice(bkts, func(i, j int) bool { return bkts[i].le < bkts[j].le })
	return bkts
}

// subtractBuckets removes a baseline sample from a later sample of the
// same cumulative series, leaving the histogram of only the requests that
// happened between the two scrapes.
func subtractBuckets(after, before []metricBucket) []metricBucket {
	base := make(map[float64]uint64, len(before))
	for _, b := range before {
		base[b.le] = b.cum
	}
	out := make([]metricBucket, 0, len(after))
	for _, b := range after {
		cum := b.cum - base[b.le] // cumulative series never decreases
		out = append(out, metricBucket{le: b.le, cum: cum})
	}
	return out
}

// bucketP99 returns the (low, high] bucket bounds containing the 99th
// percentile of a sorted cumulative bucket series, in seconds.
func bucketP99(bkts []metricBucket) (low, high float64, found bool) {
	if len(bkts) == 0 {
		return 0, 0, false
	}
	total := bkts[len(bkts)-1].cum
	if total == 0 {
		return 0, 0, false
	}
	target := uint64(math.Ceil(0.99 * float64(total)))
	prev := 0.0
	for _, bk := range bkts {
		if bk.cum >= target {
			if math.IsInf(bk.le, 1) {
				// p99 beyond the largest finite bound: report an open top.
				return prev, prev * 10, true
			}
			return prev, bk.le, true
		}
		prev = bk.le
	}
	return 0, 0, false
}

// parseShedCauses extracts the default campaign's
// snaptask_requests_shed_total{cause=...} counts.
func parseShedCauses(metrics string) map[string]uint64 {
	prefix := `snaptask_requests_shed_total{` + defaultCampaign + `,cause="`
	out := map[string]uint64{}
	for _, line := range strings.Split(metrics, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		rest := line[len(prefix):]
		qi := strings.Index(rest, `"`)
		sp := strings.LastIndexByte(line, ' ')
		if qi < 0 || sp < 0 {
			continue
		}
		if n, err := strconv.ParseUint(strings.TrimSpace(line[sp+1:]), 10, 64); err == nil {
			out[rest[:qi]] += n
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// shedAndErrors totals a run's shed and failed operations.
func shedAndErrors(res *loadgen.Result) (shed, errs uint64) {
	for _, st := range res.Endpoints {
		shed += st.Shed.Load()
		errs += st.Errors.Load()
	}
	return shed, errs
}

// toOpResult maps a client-call error to the harness status accounting.
func toOpResult(err error) loadgen.OpResult {
	if err == nil {
		return loadgen.OpResult{Status: http.StatusOK}
	}
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		return loadgen.OpResult{Status: apiErr.Status}
	}
	return loadgen.OpResult{Err: err}
}

// loadOps is the harness op mix — shared by the single-campaign phases and
// each shard of the multi-campaign phase (with a campaign-scoped client).
func loadOps(cl *client.Client, workerIDs []string, locatePool []camera.Photo, uploadPool [][]camera.Photo) []loadgen.OpSpec {
	return []loadgen.OpSpec{
		{Name: "upload", Weight: 2, Do: func(_ context.Context, _ int, rng *rand.Rand) loadgen.OpResult {
			_, err := cl.UploadBootstrap(uploadPool[rng.Intn(len(uploadPool))])
			return toOpResult(err)
		}},
		{Name: "locate", Weight: 60, Do: func(_ context.Context, _ int, rng *rand.Rand) loadgen.OpResult {
			_, err := cl.Locate(locatePool[rng.Intn(len(locatePool))])
			return toOpResult(err)
		}},
		{Name: "claim", Weight: 38, Do: func(_ context.Context, worker int, _ *rand.Rand) loadgen.OpResult {
			_, _, err := cl.Claim(workerIDs[worker%len(workerIDs)], nil)
			return toOpResult(err)
		}},
	}
}

// loadMulti runs the multi-campaign steady phase against the server at
// base. ids are the journal root's clones of the covered model: the
// in-phase control first, then the shards, each with its own owner lock,
// event log, dispatcher and admission instance. Every shard is driven
// concurrently at baseRate/shards by its own share of the fleet. Total
// offered load and fleet size match one steady single-campaign run, so
// per-shard latency comparable to the control's is direct evidence the
// shards do not contend on each other's owner paths.
func (b *bench) loadMulti(sc loadScale, base string, ids []string, locatePool []camera.Photo, uploadPool [][]camera.Photo, hc *http.Client) (*loadMultiReport, error) {
	nCampaigns := len(ids) - 1
	// No churn in this phase: a crashed worker's multi-second outage would
	// dominate the small per-shard sample's p99, and this phase measures
	// shard isolation, not fleet resilience (the steady single-campaign
	// phases already cover churn).
	runShard := func(id string, rate float64, workers, workerN int, seedOff int64) (*loadgen.Result, error) {
		cl := client.New(base, hc).WithCampaign(id)
		cl.MaxRetries429 = -1
		workerIDs := make([]string, workerN)
		for w := range workerIDs {
			reg, err := cl.RegisterWorker(server.RegisterWorkerRequest{})
			if err != nil {
				return nil, fmt.Errorf("load: register worker on %s: %w", id, err)
			}
			workerIDs[w] = reg.ID
		}
		return loadgen.Run(context.Background(), loadgen.Config{
			Workers:      workers,
			Arrivals:     loadgen.Poisson{PerSec: rate},
			Duration:     sc.campaignDur,
			Ops:          loadOps(cl, workerIDs, locatePool, uploadPool),
			Think:        loadgen.ThinkTime{Median: 20 * time.Millisecond, Sigma: 1.0, Max: 2 * time.Second},
			Seed:         b.seed + seedOff,
			DrainTimeout: 20 * time.Second,
		})
	}
	toRow := func(id string, res *loadgen.Result) loadMultiRow {
		shed, errN := shedAndErrors(res)
		return loadMultiRow{
			Campaign: id, OfferedQPS: res.OfferedRate, AchievedQPS: res.Achieved,
			Offered: res.Offered, Done: res.Done, Shed: shed, Errors: errN,
			Endpoints: mergeEndpointRows([]*loadgen.Result{res}, nil, "", ""),
		}
	}

	// In-phase control: the full base rate against ONE campaign of the
	// server, immediately before the shards split the identical offered
	// load four ways. Comparing shards against this row (rather than the
	// earlier steady phases) keeps both sides of the gate's ratio on the
	// same process state and host conditions.
	perWorkers := sc.workers / nCampaigns
	perRate := sc.baseRate / float64(nCampaigns)
	perIDs := sc.workerIDs / nCampaigns
	if perIDs < 8 {
		perIDs = 8
	}
	ctrl, err := runShard(ids[0], sc.baseRate, sc.workers, sc.workerIDs, 49)
	if err != nil {
		return nil, fmt.Errorf("load: multi-campaign baseline: %w", err)
	}

	results := make([]*loadgen.Result, nCampaigns)
	errs := make([]error, nCampaigns)
	var wg sync.WaitGroup
	for i := 0; i < nCampaigns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = runShard(ids[i+1], perRate, perWorkers, perIDs, 50+int64(i))
		}(i)
	}
	wg.Wait()

	out := &loadMultiReport{
		Campaigns: nCampaigns, RatePerCampaign: perRate,
		WorkersPerCamp: perWorkers, DurationSec: sc.campaignDur.Seconds(),
		Baseline: toRow(ids[0], ctrl),
	}
	for i := 0; i < nCampaigns; i++ {
		if errs[i] != nil {
			return nil, fmt.Errorf("load: campaign %s: %w", ids[i+1], errs[i])
		}
		out.Rows = append(out.Rows, toRow(ids[i+1], results[i]))
	}
	return out, nil
}

// seedJournalRoot persists the covered system as the default campaign of
// a journal root at dir, plus one clone of it per id, through the campaign
// manager's own persistence path (create, checkpoint, close) — the layout
// a snaptask-server with -journal-dir restores on start.
func seedJournalRoot(dir string, seed int64, sys *core.System, ids []string) error {
	var snap bytes.Buffer
	if err := sys.WriteSnapshot(&snap); err != nil {
		return err
	}
	mgr, err := campaign.NewManager(campaign.ManagerConfig{JournalRoot: dir})
	if err != nil {
		return err
	}
	spec := campaign.Spec{Venue: "small", Seed: seed}
	_, err = mgr.CreateDefault(spec, sys)
	for _, id := range ids {
		if err != nil {
			break
		}
		var clone *core.System
		if clone, err = core.LoadSystem(bytes.NewReader(snap.Bytes()), sys.Venue(), sys.World()); err == nil {
			spec.ID = id
			_, err = mgr.CreateWith(spec, clone)
		}
	}
	if err == nil {
		err = mgr.Checkpoint()
	}
	return errors.Join(err, mgr.Close())
}

// serverChild is the snaptask-server process under test.
type serverChild struct {
	cmd  *exec.Cmd
	done chan error // the child's exit status; nil once it has exited
	base string
}

// startServer builds snaptask-server to bin, starts it on a free loopback
// port over the journal root with the run's admission settings, and waits
// until /readyz answers.
func startServer(bin, journal string, seed int64, sc loadScale) (*serverChild, error) {
	build := exec.Command("go", "build", "-o", bin, "snaptask/cmd/snaptask-server")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		return nil, fmt.Errorf("load: build snaptask-server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0") // only to pick a free port
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	rate := func(r float64) string { return strconv.FormatFloat(r, 'g', -1, 64) }
	cmd := exec.Command(bin, "-addr", addr, "-journal-dir", journal,
		"-venue", "small", "-seed", strconv.FormatInt(seed, 10), "-log-level", "warn",
		"-max-queue", strconv.Itoa(sc.maxQueue), "-rate-limit", rate(sc.ratePerSec),
		"-rate-burst", rate(sc.ratePerSec/2), "-max-body-bytes", "33554432", "-write-timeout", "15s")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("load: start snaptask-server: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	c := &serverChild{cmd: cmd, done: done, base: "http://" + addr}
	for deadline := time.Now().Add(time.Minute); ; {
		_, err := httpGetBody(c.base + "/readyz")
		if err == nil {
			return c, nil
		}
		select {
		case exit := <-c.done:
			c.done = nil
			return nil, fmt.Errorf("load: snaptask-server exited before ready: %v", exit)
		case <-time.After(100 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			_ = c.stop(os.Kill) // the readiness error is the one to report
			return nil, fmt.Errorf("load: snaptask-server not ready: %w", err)
		}
	}
}

// stop sends sig to the child unless it has already exited, and fails
// unless it exits zero. SIGINT runs the server's graceful shutdown (a
// bounded drain, then a checkpoint of every campaign); every error path
// defers stop(os.Kill).
func (c *serverChild) stop(sig os.Signal) error {
	if c.done == nil {
		return nil
	}
	done := c.done
	c.done = nil
	// A child that already exited (crashed) reports its status on done.
	if err := c.cmd.Process.Signal(sig); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return fmt.Errorf("load: signal snaptask-server: %w", err)
	}
	if err := <-done; err != nil {
		return fmt.Errorf("load: snaptask-server exit: %w", err)
	}
	return nil
}

// fetchSLO samples GET /v1/slo into verdict rows (5m window bad ratio).
func fetchSLO(base string) ([]loadSLORow, error) {
	body, err := httpGetBody(base + "/v1/slo")
	if err != nil {
		return nil, err
	}
	var rep slo.Report
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		return nil, fmt.Errorf("load: parse /v1/slo: %w", err)
	}
	rows := make([]loadSLORow, 0, len(rep.Endpoints))
	for _, e := range rep.Endpoints {
		row := loadSLORow{Endpoint: e.Endpoint, Burning: e.Burning, Severity: e.Severity}
		for _, w := range e.Windows {
			if w.Window == "5m" {
				row.BadRatio = w.BadRatio
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func fmtSLO(rows []loadSLORow) string {
	parts := make([]string, 0, len(rows))
	for _, r := range rows {
		state := "ok"
		if r.Burning {
			state = "BURNING(" + r.Severity + ")"
		}
		parts = append(parts, fmt.Sprintf("%s=%s bad5m=%.3f", r.Endpoint, state, r.BadRatio))
	}
	return strings.Join(parts, "  ")
}

func fmtP99(d time.Duration) string {
	if d <= 0 {
		return "-"
	}
	return d.Round(time.Millisecond).String()
}

func httpGetBody(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	return string(body), nil
}
