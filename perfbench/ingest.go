package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"snaptask/internal/annotation"
	"snaptask/internal/camera"
	"snaptask/internal/campaign"
	"snaptask/internal/core"
	"snaptask/internal/dispatch"
	"snaptask/internal/geom"
	"snaptask/internal/server"
	"snaptask/internal/taskgen"
)

const (
	// ingestCampaigns is how many campaigns run side by side per round.
	ingestCampaigns = 2
	// readCheckPhotos is the number of locate queries per campaign, and
	// readCheckTime how long the read check runs at readCheckRate.
	readCheckPhotos = 64
	readCheckTime   = 4 * time.Second
	readCheckRate   = mixedRate
	// maxClaims bounds one campaign's task loop.
	maxClaims = 400
	// roundSeconds is the nominal length of one ingest round: a run does
	// one round per whole roundSeconds of --seconds, at least one. The
	// count never depends on how fast a round went, so every run of a
	// given length does the same work.
	roundSeconds = 30
)

// ingestCampaign is one campaign driven by a closed-loop guided worker.
type ingestCampaign struct {
	id                    string
	worldSeed, workerSeed int64
	vw                    *venueWorld
	rng                   *rand.Rand
	photos0               []camera.Photo // read-check photos near the entrance
	queries               []locateQuery  // photos0 classified against the final model

	// The worker's ledger of accepted work.
	photos, claims, photoTasks, annTasks int
	covered                              bool
	final                                server.StatusResponse
}

// ingestFinal is the checked part of a campaign's final status.
type ingestFinal struct {
	Views           int  `json:"views"`
	Points          int  `json:"points"`
	PhotosProcessed int  `json:"photosProcessed"`
	PhotoTasks      int  `json:"photoTasks"`
	AnnotationTasks int  `json:"annotationTasks"`
	Covered         bool `json:"covered"`
}

func finalOf(st server.StatusResponse) ingestFinal {
	return ingestFinal{Views: st.Views, Points: st.Points, PhotosProcessed: st.PhotosProcessed,
		PhotoTasks: st.PhotoTasks, AnnotationTasks: st.AnnotationTasks, Covered: st.Covered}
}

func newIngestCampaign(id string, worldSeed, workerSeed, querySeed int64) (*ingestCampaign, error) {
	vw, err := newVenueWorld(worldSeed)
	if err != nil {
		return nil, err
	}
	ic := &ingestCampaign{id: id, worldSeed: worldSeed, workerSeed: workerSeed, vw: vw,
		rng: rand.New(rand.NewSource(workerSeed))}
	// Read-check photos: single photos around the entrance, which the
	// bootstrap capture maps first.
	qrng := rand.New(rand.NewSource(querySeed*1000 + workerSeed))
	in := camera.DefaultIntrinsics()
	for len(ic.photos0) < readCheckPhotos {
		p := vw.v.Entrance().Add(geom.UnitFromAngle(qrng.Float64() * 2 * math.Pi).Scale(qrng.Float64() * 1.5))
		if !vw.v.Inside(p) || vw.v.Blocked(p) {
			continue
		}
		photo, err := vw.world.Capture(camera.Pose{Pos: p, Yaw: qrng.Float64() * 2 * math.Pi}, in, camera.CaptureOptions{}, qrng)
		if err != nil {
			return nil, err
		}
		ic.photos0 = append(ic.photos0, photo)
	}
	return ic, nil
}

func runIngest(r *runCtx) error {
	logPath := filepath.Join(r.dir, "server.log")
	// The default campaign is an idle small room; the workload's campaigns
	// are created through POST /v1/campaigns.
	args := func(journal string) []string {
		return []string{"-venue", "small", "-seed", "1", "-journal-dir", journal, "-log-level", "warn"}
	}
	round0, err := r.newRound(0)
	if err != nil {
		return err
	}
	p, journal, err := r.setUp(setups, func(journal string) (*serverProc, error) {
		p, err := r.sup.start(r.ctx, r.serverBin, args(journal), r.serverEnv(), logPath)
		if err != nil {
			return nil, err
		}
		return p, r.createCampaigns(p, round0)
	})
	if err != nil {
		return err
	}
	c := newHTTPClient(p.base(), r.nproc)
	defer c.close()

	tr, err := r.beginTrace(p)
	if err != nil {
		return err
	}
	// Rounds of campaigns run to completion, one after the other.
	var (
		all    []*ingestCampaign
		photos atomic.Int64
	)
	rounds := max(1, int(r.seconds/(roundSeconds*time.Second)))
	phaseStart := time.Now()
	for round := 0; round < rounds; round++ {
		camps := round0
		if round > 0 {
			if camps, err = r.newRound(round); err != nil {
				return err
			}
			if err := r.createCampaigns(p, camps); err != nil {
				return err
			}
		}
		if err := r.ingestRound(c, camps, &photos); err != nil {
			return err
		}
		all = append(all, camps...)
	}
	wall := time.Since(phaseStart)
	// The peak is taken before the read check: its /snapshot fetches
	// encode each whole model at once, and the resident peak they leave
	// depends on where the collector happened to be after the ingest, not
	// on the workload.
	if err := r.recordRSS(p); err != nil {
		return err
	}
	stats, reads, err := r.readCheck(c, all)
	if err != nil {
		return err
	}
	runtime.GC() // the model loads above are garbage; do not collect them during the reads
	res := runOpenLoop(r.ctx, r.sup, c, r.tally, reads, r.nproc)
	if err := r.ctx.Err(); err != nil {
		return err
	}
	r.checkGenerator(res.late)
	if err := tr.end(p, stats); err != nil {
		return err
	}
	r.uploadMetrics(r.tally, int(photos.Load()), wall)
	r.latency(r.tally, "locate_p50_ms", "locate", 50)
	r.latency(r.tally, "locate_p99_ms", "locate", 99)
	r.latency(r.tally, "claim_p50_ms", "claim", 50)
	r.latency(r.tally, "claim_p99_ms", "claim", 99)
	r.latency(r.tally, "map_p99_ms", "map", 99)

	refDir := filepath.Join(r.root, ".bench_build", "perfbench", "ref")
	var paths []string
	for _, ic := range all {
		if err := r.checkFinal(c, ic, refDir); err != nil {
			return err
		}
		paths = append(paths, scoped(ic.id, "status"))
	}
	events, err := r.traceJournal(filepath.Join(journal, "campaigns", all[0].id))
	if err != nil {
		return err
	}
	p, err = r.restarts(p, args(journal), paths)
	if err != nil {
		return err
	}
	if err := r.sup.stop(p, stopGrace); err != nil {
		return fmt.Errorf("final stop: %w", err)
	}
	if !r.trace {
		return nil
	}
	if err := r.replayReference(all[0]); err != nil {
		return err
	}
	first := all[0]
	return r.inProcess(inProcessInputs{
		snapPath: filepath.Join(journal, "campaigns", first.id, "model.snap"), eventsDir: events,
		worldSeed: first.worldSeed, queries: first.queries, uploads: r.gen.sample,
	})
}

// replayReference drives a fresh copy of the campaign through an
// in-process campaign.Manager with the same seeds, and requires the same
// final state as the campaign the spawned server ran: the seed's
// reference, computed from the same code without the process boundary.
func (r *runCtx) replayReference(ic *ingestCampaign) error {
	dir, err := r.sup.tempDir(r.dir, "replay-")
	if err != nil {
		return err
	}
	mgr, err := campaign.NewManager(campaign.ManagerConfig{JournalRoot: dir})
	if err != nil {
		return err
	}
	defer mgr.Close()
	if _, err := mgr.Create(campaign.Spec{ID: ic.id, Venue: venueName, Seed: ic.worldSeed}); err != nil {
		return err
	}
	twin, err := newIngestCampaign(ic.id, ic.worldSeed, ic.workerSeed, r.seed)
	if err != nil {
		return err
	}
	c := &httpClient{base: "http://in-process", hc: &http.Client{Transport: handlerTransport{mgr}}}
	var photos atomic.Int64
	t := newTally()
	t0 := time.Now()
	if err := r.driveCampaign(r.ctx, c, t, twin, &photos); err != nil {
		return fmt.Errorf("in-process replay: %w", err)
	}
	var st server.StatusResponse
	if _, err := c.getJSON(r.ctx, scoped(ic.id, "status"), &st); err != nil {
		return err
	}
	want := finalOf(st)
	if got := finalOf(ic.final); got != want {
		r.tally.fail(fmt.Errorf("campaign %s: final state %+v differs from the in-process reference %+v", ic.id, got, want))
	}
	r.note("in-process reference replay of %s: %d uploads, handler p50 %.1f ms, %.1f s",
		ic.id, len(t.latencies("upload")), quantileMS(t.latencies("upload"), 50), time.Since(t0).Seconds())
	return nil
}

// handlerTransport serves requests in-process through an http.Handler.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// newRound prepares one round's library campaigns with distinct world
// seeds. The campaigns are the same in every run: a guided campaign's
// length follows its worker's path (26 to 48 tasks across worker seeds),
// which would swing throughput by a third from seed to seed. The run seed
// picks the read-check queries.
func (r *runCtx) newRound(round int) ([]*ingestCampaign, error) {
	var out []*ingestCampaign
	for k := 0; k < ingestCampaigns; k++ {
		n := int64(round*ingestCampaigns + k)
		ic, err := newIngestCampaign(fmt.Sprintf("r%dc%d", round, k), worldSeed+n, worldSeed*1000+n, r.seed)
		if err != nil {
			return nil, err
		}
		out = append(out, ic)
	}
	return out, nil
}

// createCampaigns creates the campaigns through POST /v1/campaigns.
func (r *runCtx) createCampaigns(p *serverProc, camps []*ingestCampaign) error {
	c := newHTTPClient(p.base(), 1)
	defer c.close()
	for _, ic := range camps {
		body, err := json.Marshal(campaign.Spec{ID: ic.id, Venue: venueName, Seed: ic.worldSeed})
		if err != nil {
			return err
		}
		if err := c.postJSON(r.ctx, "/v1/campaigns", body, http.StatusCreated, nil); err != nil {
			return err
		}
	}
	return nil
}

// ingestRound drives every campaign of a round to completion, one
// closed-loop worker each, side by side.
func (r *runCtx) ingestRound(c *httpClient, camps []*ingestCampaign, photos *atomic.Int64) error {
	ctx, cancel := context.WithCancel(r.ctx)
	defer cancel()
	errs := make(chan error, len(camps))
	for _, ic := range camps {
		go func() {
			defer r.sup.onPanic()
			err := r.driveCampaign(ctx, c, r.tally, ic, photos)
			if err != nil {
				cancel() // stop the sibling campaign too
				err = fmt.Errorf("campaign %s: %w", ic.id, err)
			}
			errs <- err
		}()
	}
	var first error
	for range camps {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// readCheck reads the finished campaigns back. Each campaign's model is
// fetched from GET /v1/campaigns/{id}/snapshot and loaded in-process, so
// every answer is checked exactly as in serve: the map byte for byte, a
// localisation within the positioning error, a 422 only for a query with
// too few model features. The reads run open loop at readCheckRate, so
// locate latency is measured as in serve, on the model the phase built.
func (r *runCtx) readCheck(c *httpClient, camps []*ingestCampaign) (*streamStats, []request, error) {
	stats := &streamStats{}
	rng := rand.New(rand.NewSource(r.seed*100 + 7))
	var mix []mixEntry
	for _, ic := range camps {
		status, data, err := c.do(r.ctx, http.MethodGet, scoped(ic.id, "snapshot"), nil)
		if err != nil {
			return nil, nil, err
		}
		if status != http.StatusOK {
			return nil, nil, fmt.Errorf("campaign %s snapshot: status %d", ic.id, status)
		}
		v, world, err := freshWorld(ic.worldSeed)
		if err != nil {
			return nil, nil, err
		}
		sys, err := core.LoadSystem(bytes.NewReader(data), v, world)
		if err != nil {
			return nil, nil, fmt.Errorf("campaign %s snapshot: %w", ic.id, err)
		}
		srv, err := server.New(sys, rand.New(rand.NewSource(ic.worldSeed)))
		if err != nil {
			return nil, nil, err
		}
		pm := &preparedModel{vw: ic.vw, expect: srv.Snapshot()}
		queries := make([]locateQuery, 0, len(ic.photos0))
		for _, ph := range ic.photos0 {
			q, err := newLocateQuery(ph, pm.expect.Features, rng, r.gen)
			if err != nil {
				return nil, nil, err
			}
			queries = append(queries, q)
		}
		ic.queries = queries
		s, err := newReadStream(ic.id, pm, queries, nil, true)
		if err != nil {
			return nil, nil, err
		}
		s.stats = stats
		mix = append(mix, mixEntry{weightLocate, s.locate}, mixEntry{weightMap, s.mapRead})
	}
	return stats, poissonSchedule(rng, readCheckRate, readCheckTime, mix), nil
}

// driveCampaign is the guided worker's closed loop: register, bootstrap,
// then claim, sweep or annotate at the task and upload under the lease,
// until the campaign stops issuing tasks.
func (r *runCtx) driveCampaign(ctx context.Context, c *httpClient, t *tally, ic *ingestCampaign, photos *atomic.Int64) error {
	worker := ic.vw.worker()
	in := camera.DefaultIntrinsics()
	regBody, err := json.Marshal(server.RegisterWorkerRequest{X: worker.Pos.X, Y: worker.Pos.Y, HasLoc: true})
	if err != nil {
		return err
	}
	var reg server.RegisterWorkerResponse
	if err := c.postJSON(ctx, scoped(ic.id, "workers"), regBody, http.StatusOK, &reg); err != nil {
		return err
	}

	boot, err := core.BootstrapCapture(ic.vw.world, ic.vw.v, in, ic.rng)
	if err != nil {
		return err
	}
	body, err := r.gen.encodeUpload(server.UploadRequest{Bootstrap: true}, boot)
	if err != nil {
		return err
	}
	if err := r.upload(ctx, c, t, ic, "upload", "photos", body, len(boot), photos); err != nil {
		return err
	}

	for ic.claims < maxClaims {
		claimBody, err := json.Marshal(server.ClaimRequest{WorkerID: reg.ID, X: worker.Pos.X, Y: worker.Pos.Y, HasLoc: true})
		if err != nil {
			return err
		}
		var resp server.ClaimResponse
		req := request{kind: "claim", method: http.MethodPost, path: scoped(ic.id, "task/claim"), body: claimBody,
			check: func(status int, body []byte) error {
				switch status {
				case http.StatusOK:
					return json.Unmarshal(body, &resp)
				case http.StatusNotFound:
					if bytes.Contains(body, []byte(dispatch.ErrNoTask.Error())) {
						return nil
					}
				}
				return fmt.Errorf("claim status %d: %s", status, bytes.TrimSpace(body))
			}}
		status, _, err := send(ctx, c, t, &req, time.Now())
		if err != nil {
			return err
		}
		if status == http.StatusNotFound {
			return nil // the campaign stopped issuing tasks
		}
		if status != http.StatusOK {
			return fmt.Errorf("claim answered %d", status)
		}
		if resp.Task.Covered {
			ic.covered = true
			return nil
		}
		ic.claims++
		kind, err := server.TaskKindFromString(resp.Task.Kind)
		if err != nil {
			return err
		}
		loc := geom.V2(resp.Task.X, resp.Task.Y)
		aim := loc
		if resp.Task.HasSeed {
			aim = geom.V2(resp.Task.SeedX, resp.Task.SeedY)
		}
		switch kind {
		case taskgen.KindPhoto:
			t0 := time.Now()
			res, err := worker.DoPhotoTask(ic.vw.walk, loc, ic.rng)
			r.gen.addSweep(time.Since(t0))
			if err != nil {
				return err
			}
			body, err := r.gen.encodeUpload(server.UploadRequest{
				TaskID: resp.Task.ID, LocX: loc.X, LocY: loc.Y,
				SeedX: resp.Task.SeedX, SeedY: resp.Task.SeedY, HasSeed: resp.Task.HasSeed,
				WorkerID: reg.ID, LeaseID: resp.LeaseID,
			}, res.Photos)
			if err != nil {
				return err
			}
			if err := r.upload(ctx, c, t, ic, "upload", "photos", body, len(res.Photos), photos); err != nil {
				return err
			}
			ic.photoTasks++
		case taskgen.KindAnnotation:
			atask, err := worker.DoAnnotationTask(ic.vw.walk, aim, ic.rng)
			if err != nil {
				return err
			}
			anns, err := annotation.SimulateWorkers(atask, ic.vw.v, annotation.WorkerOptions{}, ic.rng)
			if err != nil {
				return err
			}
			req := server.AnnotateRequest{
				TaskID: resp.Task.ID, LocX: atask.Location.X, LocY: atask.Location.Y,
				SeedX: resp.Task.SeedX, SeedY: resp.Task.SeedY, HasSeed: resp.Task.HasSeed,
				WorkerID: reg.ID, LeaseID: resp.LeaseID,
			}
			for _, ph := range atask.Photos {
				req.Photos = append(req.Photos, server.PhotoToDTO(ph))
			}
			for _, a := range anns {
				m := server.AnnotationDTO{WorkerID: a.WorkerID, PhotoIdx: a.PhotoIdx}
				for i, corner := range a.Corners {
					m.Corners[i] = [2]float64{corner.X, corner.Y}
				}
				req.Marks = append(req.Marks, m)
			}
			body, err := json.Marshal(req)
			if err != nil {
				return err
			}
			if err := r.upload(ctx, c, t, ic, "annotate", "annotations", body, len(atask.Photos), photos); err != nil {
				return err
			}
			ic.annTasks++
		default:
			return fmt.Errorf("unknown task kind %q", resp.Task.Kind)
		}
	}
	return fmt.Errorf("still issuing tasks after %d claims", maxClaims)
}

// upload sends one closed-loop upload and counts its photos once the
// answer checks out.
func (r *runCtx) upload(ctx context.Context, c *httpClient, t *tally, ic *ingestCampaign, kind, route string, body []byte, n int, photos *atomic.Int64) error {
	req := request{kind: kind, method: http.MethodPost, path: scoped(ic.id, route), body: body,
		check: func(status int, body []byte) error {
			if kind == "upload" {
				return checkUpload(n, status, body)
			}
			if status != http.StatusOK {
				return fmt.Errorf("annotation status %d: %s", status, bytes.TrimSpace(body))
			}
			var resp server.AnnotateResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				return err
			}
			if resp.Duplicate {
				return errors.New("fresh annotation answered as duplicate")
			}
			return nil
		}}
	status, data, err := send(ctx, c, t, &req, time.Now())
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s answered %d: %s", kind, status, bytes.TrimSpace(data))
	}
	ic.photos += n
	photos.Add(int64(n))
	return nil
}

// checkFinal compares a finished campaign's status with the worker's
// ledger and with the campaign's reference: the first run in this
// checkout records it, every later run must reproduce it.
func (r *runCtx) checkFinal(c *httpClient, ic *ingestCampaign, refDir string) error {
	if _, err := c.getJSON(r.ctx, scoped(ic.id, "status"), &ic.final); err != nil {
		return err
	}
	st := ic.final
	var problems []string
	if st.Covered != ic.covered {
		problems = append(problems, fmt.Sprintf("covered %v, worker saw %v", st.Covered, ic.covered))
	}
	// Every issued task was done by the worker, or is still pending but
	// not eligible for it (the claim that ended the loop said so).
	if issued, done := st.PhotoTasks+st.AnnotationTasks, ic.photoTasks+ic.annTasks; issued != done+st.PendingTasks {
		problems = append(problems, fmt.Sprintf("%d tasks issued, worker did %d and %d are pending", issued, done, st.PendingTasks))
	}
	if st.PhotosProcessed != ic.photos {
		problems = append(problems, fmt.Sprintf("%d photos processed, worker uploaded %d", st.PhotosProcessed, ic.photos))
	}
	if st.Views <= 0 || st.Points <= 0 || st.Views > st.PhotosProcessed {
		problems = append(problems, fmt.Sprintf("implausible model: %d views, %d points, %d photos", st.Views, st.Points, st.PhotosProcessed))
	}
	got := finalOf(st)
	refPath := filepath.Join(refDir, fmt.Sprintf("ingest-%s-w%d.json", ic.id, ic.workerSeed))
	if data, err := os.ReadFile(refPath); err == nil {
		var want ingestFinal
		if err := json.Unmarshal(data, &want); err != nil {
			return fmt.Errorf("reference %s: %w", refPath, err)
		}
		if got != want {
			problems = append(problems, fmt.Sprintf("final state %+v differs from the recorded reference %+v", got, want))
		}
	} else if errors.Is(err, os.ErrNotExist) && len(problems) == 0 {
		if err := os.MkdirAll(refDir, 0o755); err != nil {
			return err
		}
		data, err := json.Marshal(got)
		if err != nil {
			return err
		}
		if err := os.WriteFile(refPath, data, 0o644); err != nil {
			return err
		}
	}
	if len(problems) > 0 {
		r.tally.fail(fmt.Errorf("campaign %s: %s", ic.id, strings.Join(problems, "; ")))
	}
	return nil
}
