package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"strconv"
	"time"

	"snaptask/internal/campaign"
	"snaptask/internal/server"
	"snaptask/internal/telemetry/slo"
)

const (
	// serveTasks is how many guided tasks build the served model.
	serveTasks = 20
	// setups is how many times each run starts the server to time set-up.
	setups = 5
	// minRestarts and restartSpan bound the timed graceful restarts of a
	// run from below: each run times restarts, after one untimed warm-up,
	// until it has at least minRestarts of them taking at least
	// restartSpan together. The host this runs on drifts in speed over
	// tens of seconds, so a median over a short span follows the drift.
	minRestarts = 7
	restartSpan = 12 * time.Second
	// queryPool is the number of distinct pre-encoded locate queries.
	queryPool = 256
	// streamWorkers is the number of registered workers issuing claims.
	streamWorkers = 4
	// probeUploads is how many distinct sweeps serve's upload probe cycles
	// through, and probeRuns how many uploads it sends: a fixed amount of
	// work, so that its figures vary only with the host.
	probeUploads = 25
	probeRuns    = 50
)

// rung is one fixed offered rate of the serve ladder, run for share of
// the measured phase.
type rung struct {
	rate  float64 // requests per second
	share float64
}

// serveLadder: the first rung is the reference rung the serve latencies
// are reported at; the rest find the capacity. The upload probe after it
// takes about the rest of the phase.
var serveLadder = []rung{{150, 0.4}, {500, 0.08}, {700, 0.08}, {900, 0.08}}

// sloLimits returns the server's own per-endpoint latency objectives.
func sloLimits() map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, o := range slo.DefaultObjectives() {
		out[o.Endpoint] = o.LatencyTarget
	}
	return out
}

// loadedServer is the serve and mixed set-up: a prepared model loaded
// with -load into the default campaign, journaled to a fresh directory.
type loadedServer struct {
	r       *runCtx
	pm      *preparedModel
	logPath string
}

func (ls *loadedServer) args(journal string, load bool) []string {
	a := []string{"-venue", venueName, "-seed", strconv.FormatInt(ls.pm.vw.seed, 10),
		"-journal-dir", journal, "-log-level", "warn"}
	if load {
		a = append(a, "-load", ls.pm.snapPath)
	}
	return a
}

// start spawns the server with the model and returns once it serves the
// loaded model.
func (ls *loadedServer) start(journal string) (*serverProc, error) {
	r := ls.r
	p, err := r.sup.start(r.ctx, r.serverBin, ls.args(journal, true), r.serverEnv(), ls.logPath)
	if err != nil {
		return nil, err
	}
	c := newHTTPClient(p.base(), 1)
	defer c.close()
	var st server.StatusResponse
	if _, err := c.getJSON(r.ctx, scoped(campaign.DefaultID, "status"), &st); err != nil {
		return p, err
	}
	if want := ls.pm.expect.Status; st.Views != want.Views || st.Points != want.Points {
		return p, fmt.Errorf("loaded model has %d views/%d points, want %d/%d", st.Views, st.Points, want.Views, want.Points)
	}
	return p, nil
}

// prepareLoaded builds the model in-process and starts the server on it.
func prepareLoaded(r *runCtx, tasks int) (*loadedServer, *serverProc, string, error) {
	vw, err := newVenueWorld(worldSeed)
	if err != nil {
		return nil, nil, "", err
	}
	t0 := time.Now()
	pm, err := prepareModel(vw, tasks, worldSeed, filepath.Join(r.dir, "model.snap"))
	if err != nil {
		return nil, nil, "", err
	}
	r.layers["gen.prepare_s"] = metric{Value: time.Since(t0).Seconds(), Unit: "s"}
	ls := &loadedServer{r: r, pm: pm, logPath: filepath.Join(r.dir, "server.log")}
	p, journal, err := r.setUp(setups, ls.start)
	return ls, p, journal, err
}

func runServe(r *runCtx) error {
	ls, p, journal, err := prepareLoaded(r, serveTasks)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.seed))
	queries, err := locateQueries(ls.pm, queryPool, rng, r.gen)
	if err != nil {
		return err
	}
	probe, err := sweepUploads(ls.pm, probeUploads, rng, r.gen)
	if err != nil {
		return err
	}
	id := campaign.DefaultID
	c := newHTTPClient(p.base(), r.nproc)
	defer c.close()
	workers, err := registerWorkers(r.ctx, c, id, streamWorkers)
	if err != nil {
		return err
	}
	stream, err := newReadStream(id, ls.pm, queries, workers, true)
	if err != nil {
		return err
	}
	rungs := make([][]request, len(serveLadder))
	for i, rg := range serveLadder {
		dur := time.Duration(rg.share * float64(r.seconds))
		rungs[i] = poissonSchedule(rand.New(rand.NewSource(r.seed*100+int64(i))), rg.rate, dur, stream.mix())
	}

	tr, err := r.beginTrace(p)
	if err != nil {
		return err
	}
	limits := sloLimits()
	var late []time.Duration
	var capacity float64
	var ref *tally
	for i, rg := range serveLadder {
		t := newTally()
		res := runOpenLoop(r.ctx, r.sup, c, t, rungs[i], r.nproc)
		if err := r.ctx.Err(); err != nil {
			return err
		}
		late = append(late, res.late...)
		r.tally.merge(t)
		if i == 0 {
			ref = t
		}
		pass, why := rungPasses(t, res, rg.rate, limits)
		r.note("serve rung %.0f/s: %d requests, backlog %d, %s", rg.rate, len(rungs[i]), res.backlog, why)
		if pass && rg.rate > capacity {
			capacity = rg.rate
		}
	}
	r.checkGenerator(late)
	if err := tr.end(p, stream.stats); err != nil {
		return err
	}
	r.latency(ref, "locate_p50_ms", "locate", 50)
	r.latency(ref, "locate_p99_ms", "locate", 99)
	r.latency(ref, "claim_p50_ms", "claim", 50)
	r.latency(ref, "claim_p99_ms", "claim", 99)
	r.latency(ref, "map_p99_ms", "map", 99)
	r.e2e["serve_capacity_rps"] = metric{Value: capacity, Unit: "1/s"}

	// Closed-loop upload probe into the served model, after the reads:
	// long enough that a host stall of a few seconds does not decide the
	// upload figures.
	photos := 0
	t0 := time.Now()
	for i := 0; i < probeRuns; i++ {
		u := probe[i%len(probe)]
		req := uploadRequest(id, u)
		status, _, err := send(r.ctx, c, r.tally, &req, time.Now())
		if err != nil {
			return err
		}
		if status == http.StatusOK {
			photos += u.photos
		}
	}
	r.uploadMetrics(r.tally, photos, time.Since(t0))

	if err := r.recordRSS(p); err != nil {
		return err
	}
	events, err := r.traceJournal(journal)
	if err != nil {
		return err
	}
	p, err = r.restarts(p, ls.args(journal, false), []string{scoped(id, "status")})
	if err != nil {
		return err
	}
	var bodies [][]byte
	for _, u := range probe {
		bodies = append(bodies, u.body)
	}
	return ls.finish(p, journal, events, queries, bodies)
}

// finish stops the server and, in a traced run, times the in-process
// spans against the model it left behind and the journal copy taken at
// the end of the phase.
func (ls *loadedServer) finish(p *serverProc, journal, events string, queries []locateQuery, uploads [][]byte) error {
	r := ls.r
	if err := r.sup.stop(p, stopGrace); err != nil {
		return fmt.Errorf("final stop: %w", err)
	}
	if !r.trace {
		return nil
	}
	return r.inProcess(inProcessInputs{
		snapPath: filepath.Join(journal, "model.snap"), eventsDir: events,
		worldSeed: ls.pm.vw.seed, queries: queries, uploads: uploads,
	})
}

// rungPasses applies the capacity rule: locate and claim p99 within the
// SLO latency limit, at most 1% of requests failed, and a backlog that
// did not grow (at most a tenth of a second of arrivals still queued when
// the last one was due).
func rungPasses(t *tally, res openLoopResult, rate float64, limits map[string]time.Duration) (bool, string) {
	for _, kind := range []string{"locate", "claim"} {
		m := latencyMetric(t.latencies(kind), 99)
		if limit := ms(limits[kind]); m.Value > limit {
			return false, fmt.Sprintf("fails: %s p%g %.1f ms > %.0f ms", kind, m.Percentile, m.Value, limit)
		}
	}
	if bad := t.failed + t.refused + t.wrong; float64(bad) > 0.01*float64(t.attempted) {
		return false, fmt.Sprintf("fails: %d of %d requests failed", bad, t.attempted)
	}
	if float64(res.backlog) > rate*0.1 {
		return false, fmt.Sprintf("fails: backlog %d requests", res.backlog)
	}
	return true, "meets the SLO"
}

// uploadMetrics reports upload latency and accepted photos per second of
// upload-phase wall time.
func (r *runCtx) uploadMetrics(t *tally, photos int, wall time.Duration) {
	r.latency(t, "upload_p50_ms", "upload", 50)
	r.latency(t, "upload_p90_ms", "upload", 90)
	r.e2e["ingest_photos_per_s"] = metric{Value: float64(photos) / wall.Seconds(), Unit: "1/s", Samples: photos}
}
