package campaign

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"snaptask/internal/server"
)

func rawGET(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: code %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// buildJournaledManager wires a manager over root without t.Cleanup
// closing it — restart tests manage the lifecycle explicitly.
func buildJournaledManager(t *testing.T, root string) *Manager {
	t.Helper()
	m, err := NewManager(ManagerConfig{
		JournalRoot: root,
		Telemetry:   testTelemetry(),
		LeaseTTL:    time.Minute,
		SLO:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.CreateDefault(Spec{Venue: "small", Seed: 1}, nil); err != nil {
		t.Fatal(err)
	}
	return m
}

// newestCheckpoint returns the highest-sequence checkpoint file in a
// campaign's store directory.
func newestCheckpoint(t *testing.T, dir string) string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no checkpoints in %s (err %v)", dir, err)
	}
	sort.Strings(paths)
	return paths[len(paths)-1]
}

// TestRestartRestoresCampaignsByteIdentically ingests into three campaigns,
// checkpoints, restarts the manager over the same journal root and asserts
// every campaign's /status and /progress responses are byte-identical —
// including one campaign whose newest checkpoint is deliberately corrupted
// so restore must fall back to the previous checkpoint plus segment replay.
func TestRestartRestoresCampaignsByteIdentically(t *testing.T) {
	root := t.TempDir()
	specs := map[string]Spec{
		DefaultID: {ID: DefaultID, Venue: "small", Seed: 1},
		"mall":    {ID: "mall", Venue: "small", Seed: 61},
		"depot":   {ID: "depot", Venue: "small", Seed: 62},
	}

	m1 := buildJournaledManager(t, root)
	for _, id := range []string{"mall", "depot"} {
		if _, err := m1.Create(specs[id]); err != nil {
			t.Fatal(err)
		}
	}
	ts1 := httptest.NewServer(m1)
	ids := []string{DefaultID, "mall", "depot"}
	for i, id := range ids {
		bootstrapCampaign(t, campaignBase(ts1, id), specs[id], int64(10+i))
	}
	// First checkpoint: the fallback level a corrupt newest checkpoint
	// falls through to.
	if err := m1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// More ingest, then the newest checkpoint, then a replay tail.
	for i, id := range ids {
		sweepUpload(t, campaignBase(ts1, id), specs[id], int64(20+i))
	}
	if err := m1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		sweepUpload(t, campaignBase(ts1, id), specs[id], int64(30+i))
	}

	// A worker with live dispatch state must survive the restart too.
	var reg server.RegisterWorkerResponse
	if code := postJSON(t, campaignBase(ts1, "mall")+"/workers",
		server.RegisterWorkerRequest{ID: "rw"}, &reg); code != http.StatusOK {
		t.Fatalf("register: code %d", code)
	}

	before := map[string][2]string{}
	for _, id := range ids {
		base := campaignBase(ts1, id)
		before[id] = [2]string{rawGET(t, base+"/status"), rawGET(t, base+"/progress")}
	}

	ts1.Close()
	if err := m1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt depot's newest checkpoint: restore must fall back to the
	// previous checkpoint and replay the journal tail instead.
	ckpt := newestCheckpoint(t, campaignDir(root, "depot"))
	if err := os.WriteFile(ckpt, []byte("{torn-write-garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := buildJournaledManager(t, root)
	defer m2.Close()
	for _, id := range ids {
		if m2.Get(id) == nil {
			t.Fatalf("campaign %q not restored", id)
		}
	}
	if got := len(m2.List()); got != len(ids) {
		t.Fatalf("restored %d campaigns, want %d", got, len(ids))
	}
	ts2 := httptest.NewServer(m2)
	defer ts2.Close()
	for _, id := range ids {
		base := campaignBase(ts2, id)
		if got := rawGET(t, base+"/status"); got != before[id][0] {
			t.Errorf("campaign %q status drifted across restart:\nbefore: %s\nafter:  %s", id, before[id][0], got)
		}
		if got := rawGET(t, base+"/progress"); got != before[id][1] {
			t.Errorf("campaign %q progress drifted across restart", id)
		}
	}
}
