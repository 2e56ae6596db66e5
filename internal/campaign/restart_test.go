package campaign

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"snaptask/internal/core"
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

// TestRestartLeavesManifestUntouched restarts a manager with no lifecycle
// change in between and requires campaigns.json to be the very same file:
// a restore that rewrote the manifest would replace it atomically with a
// new one. A hard link keeps the original inode alive, so a rewrite cannot
// reuse its number. An archive afterwards does rewrite the manifest.
func TestRestartLeavesManifestUntouched(t *testing.T) {
	root := t.TempDir()
	m1 := buildJournaledManager(t, root)
	for i, id := range []string{"mall", "depot"} {
		if _, err := m1.Create(Spec{ID: id, Venue: "small", Seed: int64(61 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}
	path := manifestPath(root)
	original := filepath.Join(t.TempDir(), "campaigns.json")
	if err := os.Link(path, original); err != nil {
		t.Fatal(err)
	}
	sameAsOriginal := func() bool {
		t.Helper()
		a, err := os.Stat(original)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return os.SameFile(a, b)
	}

	m2 := buildJournaledManager(t, root)
	defer m2.Close()
	if got := len(m2.List()); got != 3 {
		t.Fatalf("restored %d campaigns, want 3", got)
	}
	if !sameAsOriginal() {
		t.Fatal("restart rewrote campaigns.json")
	}
	if _, err := m2.Archive("mall"); err != nil {
		t.Fatal(err)
	}
	if sameAsOriginal() {
		t.Fatal("archive did not rewrite campaigns.json")
	}
}

// TestCheckpointAttemptsEveryCampaign breaks one campaign's snapshot write
// (its model.snap path is a non-empty directory) and requires Checkpoint to
// return that campaign's error while still writing the other campaigns'
// snapshots, each of which must load. With two broken campaigns the error
// is the first in campaign order.
func TestCheckpointAttemptsEveryCampaign(t *testing.T) {
	root := t.TempDir()
	m := buildJournaledManager(t, root)
	defer m.Close()
	specs := map[string]Spec{
		DefaultID: {ID: DefaultID, Venue: "small", Seed: 1},
		"mall":    {ID: "mall", Venue: "small", Seed: 61},
		"depot":   {ID: "depot", Venue: "small", Seed: 62},
	}
	for _, id := range []string{"mall", "depot"} {
		if _, err := m.Create(specs[id]); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(m)
	defer ts.Close()
	for i, id := range []string{DefaultID, "mall", "depot"} {
		bootstrapCampaign(t, campaignBase(ts, id), specs[id], int64(10+i))
	}

	block := func(id string) string {
		t.Helper()
		path := m.modelPath(id, false)
		if err := os.RemoveAll(path); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Join(path, "occupied"), 0o755); err != nil {
			t.Fatal(err)
		}
		return path
	}
	mallPath := block("mall")
	err := m.Checkpoint()
	if err == nil || !strings.Contains(err.Error(), mallPath) {
		t.Fatalf("Checkpoint error = %v, want the write of %s", err, mallPath)
	}
	for _, id := range []string{DefaultID, "depot"} {
		c := m.Get(id)
		f, err := os.Open(m.modelPath(id, c.isDefault))
		if err != nil {
			t.Fatalf("campaign %q: snapshot not written: %v", id, err)
		}
		v, w := campaignWorld(t, specs[id])
		sys, err := core.LoadSystem(f, v, w)
		f.Close()
		if err != nil {
			t.Fatalf("campaign %q: snapshot does not load: %v", id, err)
		}
		if got, want := sys.PhotosProcessed(), c.sys.PhotosProcessed(); got != want || got == 0 {
			t.Errorf("campaign %q: snapshot holds %d photos, live model %d", id, got, want)
		}
	}

	block("depot")
	if err := m.Checkpoint(); err == nil || !strings.Contains(err.Error(), mallPath) {
		t.Fatalf("Checkpoint error = %v, want the first failing campaign's (%s)", err, mallPath)
	}
}

// TestRestartNeverReissuesWorkerID restarts a journaled manager while an
// auto-named worker holds a lease, once after a shutdown checkpoint and
// once from the journal tail alone. In both cases a fresh registration
// gets a new ID, so it can neither inherit the holder's lease nor its
// blur exclusions, and the restored holder still holds its lease.
func TestRestartNeverReissuesWorkerID(t *testing.T) {
	for _, checkpoint := range []bool{true, false} {
		name := "journal-tail"
		if checkpoint {
			name = "shutdown-checkpoint"
		}
		t.Run(name, func(t *testing.T) {
			root := t.TempDir()
			spec := Spec{ID: "wing-a", Venue: "small", Seed: 31}
			m1 := buildJournaledManager(t, root)
			if _, err := m1.Create(spec); err != nil {
				t.Fatal(err)
			}
			ts1 := httptest.NewServer(m1)
			base := campaignBase(ts1, spec.ID)
			bootstrapCampaign(t, base, spec, 9)
			var holder server.RegisterWorkerResponse
			if code := postJSON(t, base+"/workers", server.RegisterWorkerRequest{}, &holder); code != http.StatusOK {
				t.Fatalf("register: code %d", code)
			}
			var held server.ClaimResponse
			if code := postJSON(t, base+"/task/claim", server.ClaimRequest{WorkerID: holder.ID}, &held); code != http.StatusOK || held.LeaseID == "" {
				t.Fatalf("claim: code %d %+v", code, held)
			}
			ts1.Close()
			if checkpoint {
				if err := m1.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			if err := m1.Close(); err != nil {
				t.Fatal(err)
			}

			m2 := buildJournaledManager(t, root)
			defer m2.Close()
			ts2 := httptest.NewServer(m2)
			defer ts2.Close()
			base = campaignBase(ts2, spec.ID)
			var fresh server.RegisterWorkerResponse
			if code := postJSON(t, base+"/workers", server.RegisterWorkerRequest{}, &fresh); code != http.StatusOK {
				t.Fatalf("register after restart: code %d", code)
			}
			if fresh.ID == holder.ID {
				t.Fatalf("restart reissued worker ID %q", fresh.ID)
			}
			var claim server.ClaimResponse
			code := postJSON(t, base+"/task/claim", server.ClaimRequest{WorkerID: fresh.ID}, &claim)
			if code != http.StatusOK && code != http.StatusNotFound {
				t.Fatalf("claim after restart: code %d", code)
			}
			if code == http.StatusOK && (claim.LeaseID == held.LeaseID || claim.Task.ID == held.Task.ID) {
				t.Fatalf("fresh worker %q got the holder's lease %q on task %d", fresh.ID, claim.LeaseID, claim.Task.ID)
			}
			var hb server.HeartbeatResponse
			if code := postJSON(t, base+"/workers/"+holder.ID+"/heartbeat", struct{}{}, &hb); code != http.StatusOK || !hb.Active {
				t.Fatalf("holder %q lost its lease across restart: code %d %+v", holder.ID, code, hb)
			}
		})
	}
}

// TestCheckpointSkipsUnchangedModel pins the shutdown checkpoint's
// model.snap skip. A fresh campaign writes its model the first time, even
// with no traffic. A restart with no traffic in between leaves the file
// alone: same inode, bytes and mtime. A restart after traffic — a bare
// claim, whose TakeTask is the one model mutation outside a batch —
// rewrites it. Status is byte-identical across every restart.
func TestCheckpointSkipsUnchangedModel(t *testing.T) {
	root := t.TempDir()
	spec := Spec{ID: DefaultID, Venue: "small", Seed: 1}
	annex := Spec{ID: "annex", Venue: "small", Seed: 63}
	m1 := buildJournaledManager(t, root)
	if _, err := m1.Create(annex); err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(m1)
	bootstrapCampaign(t, campaignBase(ts1, DefaultID), spec, 10)
	status := rawGET(t, campaignBase(ts1, DefaultID)+"/status")
	ts1.Close()
	if err := m1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}
	path := m1.modelPath(DefaultID, true)
	if _, err := os.Stat(m1.modelPath(annex.ID, false)); err != nil {
		t.Fatalf("fresh campaign's first checkpoint wrote no model: %v", err)
	}

	// restart reopens the root, checks the status survived, runs traffic
	// against the restored manager and checkpoints it; it returns the
	// status taken just before the checkpoint.
	restart := func(want string, traffic func(base string)) string {
		t.Helper()
		m := buildJournaledManager(t, root)
		defer m.Close()
		ts := httptest.NewServer(m)
		base := campaignBase(ts, DefaultID)
		if got := rawGET(t, base+"/status"); got != want {
			t.Fatalf("status drifted across restart:\nbefore: %s\nafter:  %s", want, got)
		}
		traffic(base)
		got := rawGET(t, base+"/status")
		ts.Close()
		if err := m.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		return got
	}

	old := time.Now().Add(-time.Hour).Truncate(time.Second)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	original := filepath.Join(t.TempDir(), "model.snap")
	if err := os.Link(path, original); err != nil {
		t.Fatal(err)
	}
	unchanged := func() bool {
		t.Helper()
		a, err := os.Stat(original)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return os.SameFile(a, b) && b.ModTime().Equal(old) && string(after) == string(before)
	}

	status = restart(status, func(string) {})
	if !unchanged() {
		t.Fatal("a restart with no traffic rewrote model.snap")
	}

	status = restart(status, func(base string) {
		var reg server.RegisterWorkerResponse
		if code := postJSON(t, base+"/workers", server.RegisterWorkerRequest{}, &reg); code != http.StatusOK {
			t.Fatalf("register: code %d", code)
		}
		var claim server.ClaimResponse
		if code := postJSON(t, base+"/task/claim", server.ClaimRequest{WorkerID: reg.ID}, &claim); code != http.StatusOK {
			t.Fatalf("claim: code %d", code)
		}
	})
	if unchanged() {
		t.Fatal("a restart after a claim left model.snap alone")
	}
	restart(status, func(string) {})
}
