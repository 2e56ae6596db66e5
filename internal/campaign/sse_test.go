package campaign

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snaptask/internal/client"
	"snaptask/internal/events"
)

// TestSSECampaignFramesAndEviction streams one campaign's events while two
// campaigns emit concurrently: every frame must carry the owning
// campaign's ID, a deliberately slow consumer must be evicted at least
// once, and reconnecting with the last seen sequence must yield a gap-free
// feed.
func TestSSECampaignFramesAndEviction(t *testing.T) {
	root := t.TempDir()
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
	defer m.Close()
	left := Spec{ID: "left", Venue: "small", Seed: 71}
	right := Spec{ID: "right", Venue: "small", Seed: 72}
	for _, sp := range []Spec{left, right} {
		if _, err := m.Create(sp); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(m)
	defer ts.Close()

	// Real ingest first, so the stream carries genuine lifecycle frames.
	bootstrapCampaign(t, campaignBase(ts, "left"), left, 3)
	bootstrapCampaign(t, campaignBase(ts, "right"), right, 4)

	// The consumer stalls completely after its first frame (blocking the
	// TCP pipe, so the server-side 256-slot buffer must overflow), while
	// both campaigns emit concurrently. The emitter keeps bursting until
	// the eviction counter confirms the stream was dropped.
	stalled := make(chan struct{})
	resume := make(chan struct{})
	var stallOnce sync.Once
	var emitters sync.WaitGroup
	var finalSeq atomic.Uint64
	emitters.Add(2)
	go func() { // right: a concurrent emitter on the sibling campaign
		defer emitters.Done()
		<-stalled
		log := m.Get("right").Log()
		for i := 0; i < 150; i++ {
			log.Emit(events.Event{Kind: events.KindCoverageDelta, Delta: 1})
		}
	}()
	go func() { // left: burst until the stalled subscriber is evicted
		defer emitters.Done()
		<-stalled
		log := m.Get("left").Log()
		for burst := 0; burst < 400; burst++ {
			for i := 0; i < 500; i++ {
				log.Emit(events.Event{Kind: events.KindCoverageDelta, Delta: 1})
			}
			if gaugeValue(t, m, "snaptask_events_dropped_subscribers_total", "left") > 0 {
				return
			}
		}
		t.Error("left subscriber never evicted after 200k events")
	}()
	go func() {
		emitters.Wait()
		finalSeq.Store(m.Get("left").Log().LastSeq())
		close(resume)
	}()

	cl := client.New(ts.URL, nil).WithCampaign("left")
	errDone := errors.New("done")
	var (
		last      uint64
		evictions int
	)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	for {
		err := cl.Events(ctx, last, func(e events.Event) error {
			if e.Campaign != "left" {
				return errors.New("frame from campaign " + e.Campaign + " on left stream")
			}
			if e.Seq != last+1 {
				t.Errorf("gap: seq %d after %d", e.Seq, last)
			}
			last = e.Seq
			stallOnce.Do(func() {
				close(stalled)
				<-resume
			})
			if f := finalSeq.Load(); f > 0 && last >= f {
				return errDone
			}
			return nil
		})
		if errors.Is(err, errDone) {
			break
		}
		if errors.Is(err, client.ErrEvicted) {
			evictions++
			continue
		}
		if err != nil {
			t.Fatalf("events stream: %v", err)
		}
	}
	if evictions == 0 {
		t.Error("stalled consumer was never evicted")
	}
	if f := finalSeq.Load(); last != f {
		t.Fatalf("reader stopped at seq %d, want %d", last, f)
	}

	// The campaign-scoped stream carries only that campaign's frames:
	// frames on /v1/campaigns/right/events all belong to right.
	func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			ts.URL+"/v1/campaigns/right/events?after=0", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("scoped events: code %d", resp.StatusCode)
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
		seen := 0
		for sc.Scan() && seen < 20 {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var e events.Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e); err != nil {
				t.Fatalf("decode scoped frame: %v", err)
			}
			if e.Campaign != "right" {
				t.Fatalf("/v1/campaigns/right/events frame belongs to %q", e.Campaign)
			}
			seen++
		}
		if seen == 0 {
			t.Fatal("no frames on the scoped stream")
		}
	}()
}
