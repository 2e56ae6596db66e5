package events

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"snaptask/internal/telemetry"
)

// fixedTime returns a deterministic timestamp for event i, so journal bytes
// are reproducible across runs.
func fixedTime(i int) time.Time {
	return time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC).Add(time.Duration(i) * time.Second)
}

// sampleEvents is a miniature campaign history exercising every kind.
func sampleEvents() []Event {
	return []Event{
		{T: fixedTime(0), Kind: KindTaskIssued, TaskID: 1, TaskKind: "photo", X: 1.5, Y: 2.5},
		{T: fixedTime(1), Kind: KindBatchAccepted, RequestID: "req-1", Batch: "bootstrap", Photos: 20, Registered: 20, NewPoints: 900},
		{T: fixedTime(2), Kind: KindCoverageDelta, CoverageCells: 40, Delta: 40},
		{T: fixedTime(3), Kind: KindBatchRejected, RequestID: "req-2", Batch: "photo_batch", Cause: CauseBlur, Photos: 8, Blurry: 8},
		{T: fixedTime(4), Kind: KindBlurRetry, TaskID: 1, TaskKind: "photo", Retry: 1},
		{T: fixedTime(5), Kind: KindBatchRejected, RequestID: "req-3", Batch: "photo_batch", Cause: CauseNoGrowth, Photos: 8, Registered: 8},
		{T: fixedTime(6), Kind: KindEscalated, TaskID: 2, TaskKind: "annotation", X: 1.5, Y: 2.5},
		{T: fixedTime(7), Kind: KindTaskIssued, TaskID: 2, TaskKind: "annotation", X: 1.5, Y: 2.5},
		{T: fixedTime(8), Kind: KindAnnotationDone, RequestID: "req-4", Batch: "annotation", Photos: 4, Identified: 2, Reconstructed: 2},
		{T: fixedTime(9), Kind: KindCoverageDelta, CoverageCells: 90, Delta: 50},
		{T: fixedTime(10), Kind: KindCovered, CoverageCells: 90},
	}
}

func emitAll(t *testing.T, l *Log, evs []Event) {
	t.Helper()
	for _, e := range evs {
		l.Emit(e)
	}
	if err := l.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
}

// openTestDir opens a Log over a fresh or existing directory store with
// default options and no checkpoint policy.
func openTestDir(t *testing.T, dir string, m *telemetry.EventMetrics) *Log {
	t.Helper()
	l, err := OpenDir(dir, m, DirStoreOptions{}, CheckpointPolicy{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return l
}

func TestJournalTruncatedFinalLineRecovery(t *testing.T) {
	dir := t.TempDir()
	l := openTestDir(t, dir, nil)
	emitAll(t, l, sampleEvents())
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	path := filepath.Join(dir, segName(1))
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}

	// Simulate a crash mid-append: keep a prefix ending inside the last line.
	torn := whole[:len(whole)-7]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatalf("write torn: %v", err)
	}

	ds, err := OpenDirStore(dir, DirStoreOptions{})
	if err != nil {
		t.Fatalf("reopen torn: %v", err)
	}
	defer ds.Close()
	wantEvents := len(sampleEvents()) - 1
	if ds.LastSeq() != uint64(wantEvents) {
		t.Fatalf("after torn-tail recovery LastSeq = %d, want %d", ds.LastSeq(), wantEvents)
	}
	wantContiguous(t, readSeqs(t, ds, 0), 1, wantEvents)
}

func TestJournalReplayThenAppendByteIdentical(t *testing.T) {
	evs := sampleEvents()
	split := 6

	// Uninterrupted run: all events through one store.
	unDir := t.TempDir()
	un := openTestDir(t, unDir, nil)
	emitAll(t, un, evs)
	if err := un.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Interrupted run: emit a prefix, close ("crash" after fsync), reopen
	// with replay, emit the rest.
	reDir := t.TempDir()
	first := openTestDir(t, reDir, nil)
	emitAll(t, first, evs[:split])
	if err := first.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	second := openTestDir(t, reDir, nil)
	if err := second.Replay(); err != nil {
		t.Fatalf("replay: %v", err)
	}
	emitAll(t, second, evs[split:])

	// The restart must restore the campaign fold exactly.
	direct := NewCampaign()
	if err := second.ReadAfter(0, func(e Event) error { direct.Apply(e); return nil }); err != nil {
		t.Fatalf("read: %v", err)
	}
	if got, want := second.Campaign().Counters(), direct.Counters(); got != want {
		t.Fatalf("replayed counters %+v != refolded %+v", got, want)
	}
	if err := second.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	a, err := os.ReadFile(filepath.Join(unDir, segName(1)))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	b, err := os.ReadFile(filepath.Join(reDir, segName(1)))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if string(a) != string(b) {
		t.Fatalf("replay-then-append journal differs from uninterrupted run:\n--- uninterrupted ---\n%s\n--- restarted ---\n%s", a, b)
	}
}

func TestCampaignFold(t *testing.T) {
	l := NewLog(nil)
	emitAll(t, l, sampleEvents())

	got := l.Campaign().Counters()
	want := Counters{
		PhotoTasksIssued:      1,
		AnnotationTasksIssued: 1,
		TasksRetried:          1,
		TasksEscalated:        1,
		BatchesAccepted:       1,
		RejectedBlur:          1,
		RejectedNoGrowth:      1,
		AnnotationRounds:      1,
		PhotosProcessed:       40,
		CoverageCells:         90,
		Covered:               true,
		LastSeq:               uint64(len(sampleEvents())),
	}
	if got != want {
		t.Fatalf("counters = %+v, want %+v", got, want)
	}

	points := l.Campaign().Progress()
	wantPoints := []Point{
		{Seq: 3, T: fixedTime(2), CoverageCells: 40, Photos: 20, TasksIssued: 1},
		{Seq: 10, T: fixedTime(9), CoverageCells: 90, Photos: 40, TasksIssued: 2, Retries: 1, Escalations: 1},
	}
	if !reflect.DeepEqual(points, wantPoints) {
		t.Fatalf("progress = %+v, want %+v", points, wantPoints)
	}
}

func TestBusEvictsSlowSubscriber(t *testing.T) {
	l := NewLog(nil)
	slow := l.Subscribe(1)
	fast := l.Subscribe(64)

	evs := sampleEvents()
	emitAll(t, l, evs) // slow's buffer of 1 overflows on the second event

	if !slow.Evicted() {
		t.Fatal("slow subscriber was not evicted")
	}
	// Its channel must be closed after the buffered event.
	var slowGot int
	for range slow.C {
		slowGot++
	}
	if slowGot != 1 {
		t.Fatalf("slow subscriber received %d events, want 1 (its buffer)", slowGot)
	}

	// The fast subscriber sees the full stream in order.
	for i := range evs {
		select {
		case e := <-fast.C:
			if e.Seq != uint64(i+1) {
				t.Fatalf("fast subscriber got seq %d at position %d", e.Seq, i)
			}
		default:
			t.Fatalf("fast subscriber missing event %d", i+1)
		}
	}
	if fast.Evicted() {
		t.Fatal("fast subscriber wrongly marked evicted")
	}
	l.Unsubscribe(fast)
	l.Unsubscribe(fast) // idempotent
	l.Unsubscribe(slow) // no-op after eviction
}

func TestReadAfterSkipsServedPrefix(t *testing.T) {
	l := openTestDir(t, t.TempDir(), nil)
	defer l.Close()
	evs := sampleEvents()
	emitAll(t, l, evs)

	var got []uint64
	if err := l.ReadAfter(4, func(e Event) error { got = append(got, e.Seq); return nil }); err != nil {
		t.Fatalf("read: %v", err)
	}
	want := []uint64{5, 6, 7, 8, 9, 10, 11}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ReadAfter(4) seqs = %v, want %v", got, want)
	}
}

func TestNilLogIsNoOp(t *testing.T) {
	var l *Log
	l.Emit(Event{Kind: KindTaskIssued})
	if err := l.Commit(); err != nil {
		t.Fatalf("nil commit: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("nil close: %v", err)
	}
	if l.Campaign().Counters() != (Counters{}) {
		t.Fatal("nil campaign counters not zero")
	}
	if l.LastSeq() != 0 {
		t.Fatal("nil LastSeq not zero")
	}
}
