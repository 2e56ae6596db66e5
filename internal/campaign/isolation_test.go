package campaign

import (
	"bytes"
	"fmt"
	"net/http"
	"regexp"
	"strconv"
	"sync"
	"testing"
	"time"

	"snaptask/internal/server"
	"snaptask/internal/telemetry/slo"
)

// blockOwner pins a campaign's owner lock via CheckpointState, whose
// model-save callback runs under it, until the returned release func is
// called — a stuck owner path in exactly one shard.
func blockOwner(t *testing.T, c *Campaign) (release func()) {
	t.Helper()
	entered, gate := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = c.Server().CheckpointState(func(uint64) error {
			close(entered)
			<-gate
			return nil
		})
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("owner block never engaged")
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			close(gate)
			<-done
		})
	}
}

// gaugeValue scrapes one labelled series from the rendered exposition.
func gaugeValue(t *testing.T, m *Manager, name, campaign string) float64 {
	t.Helper()
	var buf bytes.Buffer
	m.cfg.Telemetry.Registry.Render(&buf)
	re := regexp.MustCompile(fmt.Sprintf(`(?m)^%s\{campaign="%s"\} ([0-9.eE+-]+)$`, name, campaign))
	sub := re.FindStringSubmatch(buf.String())
	if sub == nil {
		return 0
	}
	v, err := strconv.ParseFloat(sub[1], 64)
	if err != nil {
		t.Fatalf("parse %s{campaign=%q}: %v", name, campaign, err)
	}
	return v
}

// TestConcurrentIngestIsolation is the -race shard-isolation check: four
// campaigns ingest simultaneously, then one campaign's owner is blocked
// and uploads to the other three must still complete promptly — observable
// through the per-campaign admission queue-depth series.
func TestConcurrentIngestIsolation(t *testing.T) {
	m, ts := newTestManager(t, ManagerConfig{
		Admission: server.AdmissionConfig{MaxQueue: 16},
	})
	specs := []Spec{
		{ID: "c1", Venue: "small", Seed: 41},
		{ID: "c2", Venue: "small", Seed: 42},
		{ID: "c3", Venue: "small", Seed: 43},
		{ID: "c4", Venue: "small", Seed: 44},
	}
	for _, sp := range specs {
		if _, err := m.Create(sp); err != nil {
			t.Fatal(err)
		}
	}

	// Phase 1: all four campaigns bootstrap and sweep concurrently.
	var wg sync.WaitGroup
	for i, sp := range specs {
		wg.Add(1)
		go func(i int, sp Spec) {
			defer wg.Done()
			base := campaignBase(ts, sp.ID)
			bootstrapCampaign(t, base, sp, int64(100+i))
			for k := 0; k < 3; k++ {
				if !sweepUpload(t, base, sp, int64(200+10*i+k)) {
					break
				}
			}
		}(i, sp)
	}
	wg.Wait()

	// Phase 2: pin c1's owner lock and park an upload behind it.
	release := blockOwner(t, m.Get("c1"))
	defer release()
	uploadDone := make(chan int, 1)
	go func() {
		code := postJSON(t, campaignBase(ts, "c1")+"/photos",
			server.UploadRequest{Photos: []server.PhotoDTO{{}}}, nil)
		uploadDone <- code
	}()
	deadline := time.Now().Add(10 * time.Second)
	for gaugeValue(t, m, "snaptask_admission_queue_depth", "c1") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("c1 queue depth never rose while its owner was blocked")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The other shards must not be delayed by c1's stall: their uploads
	// complete, and their queues stay empty once served.
	start := time.Now()
	for i, sp := range specs[1:] {
		sweepUpload(t, campaignBase(ts, sp.ID), sp, int64(300+i))
	}
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Fatalf("uploads to unblocked campaigns took %v with c1 stalled", elapsed)
	}
	for _, id := range []string{"c2", "c3", "c4"} {
		if d := gaugeValue(t, m, "snaptask_admission_queue_depth", id); d != 0 {
			t.Errorf("campaign %s queue depth %v while only c1 is blocked", id, d)
		}
	}
	if d := gaugeValue(t, m, "snaptask_admission_queue_depth", "c1"); d < 1 {
		t.Errorf("c1 queue depth %v, want >= 1 while blocked", d)
	}

	// Release c1: the parked upload must drain (it carries a junk photo,
	// so any terminal status is fine — only liveness is asserted).
	release()
	select {
	case <-uploadDone:
	case <-time.After(15 * time.Second):
		t.Fatal("parked c1 upload never drained after release")
	}
}

// TestAdmissionIsolationSLO drives one campaign into 429s (bounded owner
// queue behind a pinned lock) and asserts the sibling campaign keeps
// serving with a healthy SLO and zero sheds.
func TestAdmissionIsolationSLO(t *testing.T) {
	m, ts := newTestManager(t, ManagerConfig{
		Admission: server.AdmissionConfig{MaxQueue: 1},
	})
	quiet := Spec{ID: "quiet", Venue: "small", Seed: 51}
	noisy := Spec{ID: "noisy", Venue: "small", Seed: 52}
	for _, sp := range []Spec{quiet, noisy} {
		if _, err := m.Create(sp); err != nil {
			t.Fatal(err)
		}
		bootstrapCampaign(t, campaignBase(ts, sp.ID), sp, 3)
	}

	release := blockOwner(t, m.Get("noisy"))
	defer release()

	// Flood noisy: one request may park in the queue slot, the rest must
	// shed with 429 + Retry-After.
	const floods = 8
	codes := make(chan int, floods)
	for i := 0; i < floods; i++ {
		go func() {
			codes <- postJSON(t, campaignBase(ts, "noisy")+"/photos",
				server.UploadRequest{Photos: []server.PhotoDTO{{}}}, nil)
		}()
	}
	sheds := 0
	for i := 0; i < floods-1; i++ {
		select {
		case code := <-codes:
			if code == http.StatusTooManyRequests {
				sheds++
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("flood responses stalled after %d", i)
		}
	}
	if sheds == 0 {
		t.Fatal("no 429s from the flooded campaign")
	}

	// Meanwhile quiet keeps working: its dispatcher grants claims promptly
	// and the claim SLO stays healthy. (Upload latency is not asserted —
	// SfM ingest legitimately exceeds its latency target under the race
	// detector's slowdown, which is unrelated to noisy's sheds.)
	base := campaignBase(ts, "quiet")
	if code := postJSON(t, base+"/workers", server.RegisterWorkerRequest{ID: "qw"}, nil); code != http.StatusOK {
		t.Fatalf("quiet register: code %d", code)
	}
	grants := 0
	for k := 0; k < 4; k++ {
		code := postJSON(t, base+"/task/claim", server.ClaimRequest{WorkerID: "qw"}, nil)
		switch code {
		case http.StatusOK:
			grants++
		case http.StatusNotFound:
		default:
			t.Fatalf("quiet claim: code %d", code)
		}
	}
	if grants == 0 {
		t.Fatal("quiet campaign granted no claims while noisy sheds")
	}
	var report slo.Report
	if code := getJSON(t, base+"/slo", &report); code != http.StatusOK {
		t.Fatalf("quiet slo: code %d", code)
	}
	foundClaim := false
	for _, ep := range report.Endpoints {
		if ep.Endpoint != "claim" {
			continue
		}
		foundClaim = true
		if ep.Burning {
			t.Errorf("quiet campaign claim SLO burning while noisy sheds")
		}
	}
	if !foundClaim {
		t.Fatal("quiet slo report has no claim endpoint")
	}

	// The 429s land in noisy's own SLO accounting as bad requests.
	var noisyReport slo.Report
	if code := getJSON(t, campaignBase(ts, "noisy")+"/slo", &noisyReport); code != http.StatusOK {
		t.Fatalf("noisy slo: code %d", code)
	}
	noisyBad := uint64(0)
	for _, ep := range noisyReport.Endpoints {
		if ep.Endpoint != "upload" {
			continue
		}
		for _, w := range ep.Windows {
			if w.Bad > noisyBad {
				noisyBad = w.Bad
			}
		}
	}
	if noisyBad == 0 {
		t.Error("noisy campaign's sheds not visible in its SLO windows")
	}

	// Shed accounting is per campaign: noisy counted, quiet untouched.
	var buf bytes.Buffer
	m.cfg.Telemetry.Registry.Render(&buf)
	out := buf.String()
	re := regexp.MustCompile(`(?m)^snaptask_requests_shed_total\{campaign="noisy",cause="queue_full"\} ([0-9]+)$`)
	sub := re.FindStringSubmatch(out)
	if sub == nil || sub[1] == "0" {
		t.Fatalf("no queue_full sheds recorded for noisy campaign")
	}
	if regexp.MustCompile(`snaptask_requests_shed_total\{campaign="quiet"`).MatchString(out) {
		t.Error("quiet campaign recorded sheds")
	}

	// Drain: release the owner and collect the parked request.
	release()
	select {
	case <-codes:
	case <-time.After(15 * time.Second):
		t.Fatal("parked noisy upload never drained")
	}
}
