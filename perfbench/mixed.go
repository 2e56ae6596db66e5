package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"snaptask/internal/campaign"
	"snaptask/internal/server"
)

const (
	// mixedTasks is how many guided tasks build mixed's starting model; it
	// keeps growing under the upload stream.
	mixedTasks = 10
	// mixedRate is mixed's read and claim rate: serve's reference rung.
	mixedRate = 150
	// mixedUploadRate is mixed's open-loop full-sweep upload rate per second.
	mixedUploadRate = 1.0
)

func runMixed(r *runCtx) error {
	ls, p, journal, err := prepareLoaded(r, mixedTasks)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.seed))
	queries, err := locateQueries(ls.pm, queryPool, rng, r.gen)
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
	stream, err := newReadStream(id, ls.pm, queries, workers, false)
	if err != nil {
		return err
	}
	reqs := poissonSchedule(rand.New(rand.NewSource(r.seed*100)), mixedRate, r.seconds, stream.mix())

	// Uploads: a steady stream at a fixed rate, so every run ingests the
	// same amount, starting at a seeded phase; one fresh sweep each. Evenly
	// spaced rather than random, so that whether two sweeps happen to be
	// decoded at once, which sets the server's peak memory, does not
	// depend on the seed.
	n := int(mixedUploadRate * r.seconds.Seconds())
	phase := rand.New(rand.NewSource(r.seed*100 + 1)).Float64()
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration((float64(i) + phase) / mixedUploadRate * float64(time.Second))
	}
	sweeps, err := sweepUploads(ls.pm, n, rng, r.gen)
	if err != nil {
		return err
	}
	var photos atomic.Int64
	for i, u := range sweeps {
		req := uploadRequest(id, u)
		check := req.check
		req.check = func(status int, body []byte) error {
			err := check(status, body)
			if err == nil {
				photos.Add(int64(u.photos))
			}
			return err
		}
		req.due = dues[i]
		reqs = append(reqs, req)
	}
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].due < reqs[j].due })

	tr, err := r.beginTrace(p)
	if err != nil {
		return err
	}
	res := runOpenLoop(r.ctx, r.sup, c, r.tally, reqs, r.nproc)
	if err := r.ctx.Err(); err != nil {
		return err
	}
	r.checkGenerator(res.late)
	if err := tr.end(p, stream.stats); err != nil {
		return err
	}
	r.uploadMetrics(r.tally, int(photos.Load()), res.elapsed)
	r.latency(r.tally, "locate_p50_ms", "locate", 50)
	r.latency(r.tally, "locate_p99_ms", "locate", 99)
	r.latency(r.tally, "claim_p50_ms", "claim", 50)
	r.latency(r.tally, "claim_p99_ms", "claim", 99)
	r.latency(r.tally, "map_p99_ms", "map", 99)

	var st server.StatusResponse
	if _, err := c.getJSON(r.ctx, scoped(id, "status"), &st); err != nil {
		return err
	}
	if st.PhotosProcessed != ls.pm.expect.Status.PhotosProcessed+int(photos.Load()) {
		r.tally.fail(fmt.Errorf("mixed: status counts %d photos processed, want %d loaded + %d uploaded",
			st.PhotosProcessed, ls.pm.expect.Status.PhotosProcessed, photos.Load()))
	}
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
	for _, u := range sweeps[:min(len(sweeps), probeUploads)] {
		bodies = append(bodies, u.body)
	}
	return ls.finish(p, journal, events, queries, bodies)
}
