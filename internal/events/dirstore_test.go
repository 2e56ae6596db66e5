package events

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"snaptask/internal/telemetry"
)

// dirEvent builds one deterministic event for store-level tests (Seq set
// explicitly, as the Log would).
func dirEvent(i int) Event {
	return Event{Seq: uint64(i), T: fixedTime(i), Kind: KindWorkerRegistered,
		Worker: fmt.Sprintf("w%d", i)}
}

// appendN appends events seq from..to inclusive and syncs.
func appendN(t *testing.T, ds *DirStore, from, to int) {
	t.Helper()
	for i := from; i <= to; i++ {
		if err := ds.Append(dirEvent(i)); err != nil {
			t.Fatalf("append seq %d: %v", i, err)
		}
	}
	if err := ds.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
}

// storeCheckpoint writes a minimal checkpoint covering seq.
func storeCheckpoint(t *testing.T, ds *DirStore, seq int) {
	t.Helper()
	c := Checkpoint{Seq: uint64(seq), T: fixedTime(seq), Counters: Counters{LastSeq: uint64(seq)}}
	if err := ds.WriteCheckpoint(c); err != nil {
		t.Fatalf("checkpoint at %d: %v", seq, err)
	}
}

// readSeqs collects the sequence numbers ReadAfter(after) yields.
func readSeqs(t *testing.T, ds *DirStore, after uint64) []uint64 {
	t.Helper()
	var got []uint64
	if err := ds.ReadAfter(after, func(e Event) error {
		got = append(got, e.Seq)
		return nil
	}); err != nil {
		t.Fatalf("ReadAfter(%d): %v", after, err)
	}
	return got
}

// wantContiguous asserts seqs run exactly from..to inclusive.
func wantContiguous(t *testing.T, got []uint64, from, to int) {
	t.Helper()
	if len(got) != to-from+1 {
		t.Fatalf("got %d seqs, want %d..%d", len(got), from, to)
	}
	for i, s := range got {
		if s != uint64(from+i) {
			t.Fatalf("seq[%d] = %d, want %d", i, s, from+i)
		}
	}
}

func countFiles(t *testing.T, dir, prefix string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), prefix) {
			n++
		}
	}
	return n
}

func TestDirStoreRotationReadAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDirStore(dir, DirStoreOptions{SegmentMaxBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, ds, 1, 50)
	if n := countFiles(t, dir, segPrefix); n < 2 {
		t.Fatalf("no rotation happened: %d segment files", n)
	}
	wantContiguous(t, readSeqs(t, ds, 0), 1, 50)
	wantContiguous(t, readSeqs(t, ds, 37), 38, 50)
	if ds.LastSeq() != 50 {
		t.Fatalf("LastSeq = %d, want 50", ds.LastSeq())
	}
	if ds.Horizon() != 0 {
		t.Fatalf("Horizon = %d before any compaction, want 0", ds.Horizon())
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the multi-segment history is intact and appends continue.
	ds2, err := OpenDirStore(dir, DirStoreOptions{SegmentMaxBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	if ds2.LastSeq() != 50 {
		t.Fatalf("reopened LastSeq = %d, want 50", ds2.LastSeq())
	}
	appendN(t, ds2, 51, 55)
	wantContiguous(t, readSeqs(t, ds2, 0), 1, 55)
}

func TestDirStoreAppendSeqRegressionPoisons(t *testing.T) {
	ds, err := OpenDirStore(t.TempDir(), DirStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	appendN(t, ds, 1, 2)
	if err := ds.Append(dirEvent(2)); !errors.Is(err, ErrSeqRegression) {
		t.Fatalf("repeated seq accepted: %v", err)
	}
	// The store is poisoned: even the correct next seq is refused now.
	if err := ds.Append(dirEvent(3)); !errors.Is(err, ErrSeqRegression) {
		t.Fatalf("append after poisoning: %v", err)
	}
	if err := ds.Sync(); !errors.Is(err, ErrSeqRegression) {
		t.Fatalf("sync after poisoning: %v", err)
	}
}

func TestDirStoreCheckpointCompactsAndSetsHorizon(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDirStore(dir, DirStoreOptions{SegmentMaxBytes: 200, KeepCheckpoints: 2})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, ds, 1, 12)
	storeCheckpoint(t, ds, 6)
	// One checkpoint: the retention window is not full, nothing compacts.
	if h := ds.Horizon(); h != 0 {
		t.Fatalf("horizon %d after first checkpoint, want 0 (no compaction yet)", h)
	}
	appendN(t, ds, 13, 24)
	storeCheckpoint(t, ds, 18)
	h := ds.Horizon()
	if h == 0 || h > 6 {
		t.Fatalf("horizon %d after second checkpoint, want in (0, 6]", h)
	}
	if segs := countFiles(t, dir, segPrefix); segs < 1 {
		t.Fatal("all segments deleted")
	}

	// Reads before the horizon fail explicitly; from the horizon they work.
	err = ds.ReadAfter(0, func(Event) error { return nil })
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("ReadAfter(0) over compacted history: %v, want ErrTruncated", err)
	}
	wantContiguous(t, readSeqs(t, ds, h), int(h)+1, 24)

	if c, ok := ds.Checkpoint(); !ok || c.Seq != 18 {
		t.Fatalf("newest checkpoint = %+v ok=%v, want seq 18", c, ok)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: newest checkpoint + tail only.
	ds2, err := OpenDirStore(dir, DirStoreOptions{SegmentMaxBytes: 200, KeepCheckpoints: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	if c, ok := ds2.Checkpoint(); !ok || c.Seq != 18 {
		t.Fatalf("reopened checkpoint = %+v ok=%v, want seq 18", c, ok)
	}
	if ds2.LastSeq() != 24 {
		t.Fatalf("reopened LastSeq = %d, want 24", ds2.LastSeq())
	}
	wantContiguous(t, readSeqs(t, ds2, 18), 19, 24)
}

func TestDirStoreCorruptNewestCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDirStore(dir, DirStoreOptions{SegmentMaxBytes: 200, KeepCheckpoints: 2})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, ds, 1, 12)
	storeCheckpoint(t, ds, 6)
	appendN(t, ds, 13, 24)
	storeCheckpoint(t, ds, 18)
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	// Damage the newest checkpoint (crash corruption / disk damage).
	if err := os.WriteFile(filepath.Join(dir, ckptName(18)), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	ds2, err := OpenDirStore(dir, DirStoreOptions{SegmentMaxBytes: 200, KeepCheckpoints: 2})
	if err != nil {
		t.Fatalf("open with corrupt newest checkpoint: %v", err)
	}
	defer ds2.Close()
	if ds2.CorruptCheckpoints() != 1 {
		t.Fatalf("corrupt checkpoints = %d, want 1", ds2.CorruptCheckpoints())
	}
	c, ok := ds2.Checkpoint()
	if !ok || c.Seq != 6 {
		t.Fatalf("fallback checkpoint = %+v ok=%v, want seq 6", c, ok)
	}
	// Compaction only ever deleted segments covered by the OLDER retained
	// checkpoint, so the fallback's tail is complete: 7..24 all readable.
	wantContiguous(t, readSeqs(t, ds2, 6), 7, 24)
	if ds2.LastSeq() != 24 {
		t.Fatalf("LastSeq = %d, want 24", ds2.LastSeq())
	}
}

func TestDirStoreCorruptOnlyCheckpointFullReplay(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDirStore(dir, DirStoreOptions{SegmentMaxBytes: 200})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, ds, 1, 12)
	storeCheckpoint(t, ds, 8)
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ckptName(8)), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	// The single checkpoint never compacted anything, so its corruption
	// falls all the way back to a full replay.
	ds2, err := OpenDirStore(dir, DirStoreOptions{SegmentMaxBytes: 200})
	if err != nil {
		t.Fatalf("open with corrupt only checkpoint: %v", err)
	}
	defer ds2.Close()
	if _, ok := ds2.Checkpoint(); ok {
		t.Fatal("corrupt checkpoint still reported as valid")
	}
	wantContiguous(t, readSeqs(t, ds2, 0), 1, 12)
}

func TestDirStoreCrashMidCheckpointWriteRemovesStrayTemp(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDirStore(dir, DirStoreOptions{SegmentMaxBytes: 200, KeepCheckpoints: 2})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, ds, 1, 12)
	storeCheckpoint(t, ds, 6)
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	// A crash mid-atomic-write leaves the half-written temp file behind;
	// the rename never happened, so the previous checkpoint is current.
	stray := filepath.Join(dir, ckptName(12)+tmpSuffix+"123456")
	if err := os.WriteFile(stray, []byte(`{"seq":12,"half`), 0o644); err != nil {
		t.Fatal(err)
	}

	ds2, err := OpenDirStore(dir, DirStoreOptions{SegmentMaxBytes: 200, KeepCheckpoints: 2})
	if err != nil {
		t.Fatalf("open after crash mid-checkpoint: %v", err)
	}
	defer ds2.Close()
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatalf("stray temp file survived open: %v", err)
	}
	if c, ok := ds2.Checkpoint(); !ok || c.Seq != 6 {
		t.Fatalf("checkpoint after crash = %+v ok=%v, want the previous (seq 6)", c, ok)
	}
	wantContiguous(t, readSeqs(t, ds2, 0), 1, 12)
}

func TestDirStoreCrashMidCompactionRecovers(t *testing.T) {
	dir := t.TempDir()
	// High KeepCheckpoints: checkpoints accumulate, compaction never runs,
	// giving us covered-but-present segments to "partially delete".
	ds, err := OpenDirStore(dir, DirStoreOptions{SegmentMaxBytes: 200, KeepCheckpoints: 10})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, ds, 1, 30)
	storeCheckpoint(t, ds, 25)
	firstSeg := ds.segs[0]
	if len(ds.segs) < 3 {
		t.Fatalf("need >=3 segments for a partial-compaction crash, have %d", len(ds.segs))
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	// Crash mid-compaction: the oldest covered segment was deleted, later
	// covered segments were not.
	if err := os.Remove(firstSeg.path); err != nil {
		t.Fatal(err)
	}

	ds2, err := OpenDirStore(dir, DirStoreOptions{SegmentMaxBytes: 200, KeepCheckpoints: 10})
	if err != nil {
		t.Fatalf("open after crash mid-compaction: %v", err)
	}
	defer ds2.Close()
	c, ok := ds2.Checkpoint()
	if !ok || c.Seq != 25 {
		t.Fatalf("checkpoint = %+v ok=%v, want seq 25", c, ok)
	}
	// The tail after the checkpoint is fully readable.
	wantContiguous(t, readSeqs(t, ds2, 25), 26, 30)
	// History before the deleted segment is gone — and says so.
	if err := ds2.ReadAfter(0, func(Event) error { return nil }); !errors.Is(err, ErrTruncated) {
		t.Fatalf("ReadAfter(0) over partially compacted history: %v, want ErrTruncated", err)
	}
}

func TestDirStoreCompactedHistoryWithoutCheckpointIsAnError(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDirStore(dir, DirStoreOptions{SegmentMaxBytes: 200, KeepCheckpoints: 2})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, ds, 1, 24)
	storeCheckpoint(t, ds, 10)
	storeCheckpoint(t, ds, 20)
	if ds.Horizon() == 0 {
		t.Fatal("no compaction happened; test needs a compacted store")
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	// Every checkpoint corrupt + history compacted: there is a real gap,
	// and open must refuse rather than replay a silently wrong prefix.
	for _, seq := range []uint64{10, 20} {
		path := filepath.Join(dir, ckptName(seq))
		if _, err := os.Stat(path); err == nil {
			if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := OpenDirStore(dir, DirStoreOptions{}); err == nil {
		t.Fatal("open succeeded over compacted history with no usable checkpoint")
	}
}

func TestDirStoreSealedSegmentTornFragmentIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDirStore(dir, DirStoreOptions{SegmentMaxBytes: 200})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, ds, 1, 20)
	if len(ds.segs) < 2 {
		t.Fatalf("need a sealed segment, have %d segments", len(ds.segs))
	}
	sealed := ds.segs[0].path

	// Chop the sealed segment mid-line: unlike the active tail (where a
	// fragment means a concurrent append), a sealed segment can never have
	// an appender, so this is damage.
	data, err := os.ReadFile(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(sealed, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	err = ds.ReadAfter(0, func(Event) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn sealed segment read: %v, want ErrCorrupt", err)
	}
	ds.Close()
}

func TestJournalAppendSeqRegressionPoisons(t *testing.T) {
	j, err := openJournal(filepath.Join(t.TempDir(), "j.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	// An empty journal accepts any positive starting seq (a checkpointed
	// store opens segments mid-history)...
	if err := j.Append(dirEvent(5)); err != nil {
		t.Fatalf("append to empty journal at seq 5: %v", err)
	}
	// ...but zero and non-successor seqs are rejected and poison the file.
	if err := j.Append(dirEvent(7)); !errors.Is(err, ErrSeqRegression) {
		t.Fatalf("gap accepted: %v", err)
	}
	if err := j.Append(dirEvent(6)); !errors.Is(err, ErrSeqRegression) {
		t.Fatalf("append after poisoning: %v", err)
	}
	if err := j.Flush(); !errors.Is(err, ErrSeqRegression) {
		t.Fatalf("flush after poisoning: %v", err)
	}

	j2, err := openJournal(filepath.Join(t.TempDir(), "j2.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if err := j2.Append(Event{Seq: 0, T: fixedTime(0), Kind: KindWorkerRegistered}); !errors.Is(err, ErrSeqRegression) {
		t.Fatalf("seq 0 accepted: %v", err)
	}
}

func TestReadAfterSurfacesMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, segName(1))
	reg := telemetry.NewRegistry()
	m := telemetry.NewEventMetrics(reg)
	l := openTestDir(t, dir, m)
	defer l.Close()
	emitAll(t, l, sampleEvents())

	// Damage a middle line in place (after open, so the torn-tail scan at
	// open cannot have truncated it): this is post-hoc file damage, not a
	// benign concurrent-append fragment, and must not silently truncate
	// the replay.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	lines[3] = `{"seq":definitely not json`
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}

	readErr := l.ReadAfter(0, func(Event) error { return nil })
	if !errors.Is(readErr, ErrCorrupt) {
		t.Fatalf("mid-file corruption read: %v, want ErrCorrupt", readErr)
	}
	if got := m.Corrupt.Value(); got != 1 {
		t.Fatalf("snaptask_events_journal_corrupt_total = %d, want 1", got)
	}
}

func TestLogDirCheckpointReplayMatchesFullFold(t *testing.T) {
	dir := t.TempDir()
	evs := sampleEvents()
	split := 6

	l, err := OpenDir(dir, nil, DirStoreOptions{SegmentMaxBytes: 128}, CheckpointPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	emitAll(t, l, evs[:split])
	if err := l.WriteCheckpoint(nil); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if l.CheckpointSeq() != uint64(split) {
		t.Fatalf("CheckpointSeq = %d, want %d", l.CheckpointSeq(), split)
	}
	emitAll(t, l, evs[split:])
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: checkpoint + tail must reproduce the full fold exactly.
	l2, err := OpenDir(dir, nil, DirStoreOptions{SegmentMaxBytes: 128}, CheckpointPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if err := l2.Replay(); err != nil {
		t.Fatalf("replay: %v", err)
	}
	full := NewLog(nil)
	emitAll(t, full, evs)
	if got, want := l2.Campaign().Counters(), full.Campaign().Counters(); got != want {
		t.Fatalf("checkpoint+tail counters %+v != full fold %+v", got, want)
	}
	gotPts, wantPts := l2.Campaign().Progress(), full.Campaign().Progress()
	if len(gotPts) != len(wantPts) {
		t.Fatalf("progress length %d != %d", len(gotPts), len(wantPts))
	}
	for i := range gotPts {
		if gotPts[i] != wantPts[i] {
			t.Fatalf("progress[%d] %+v != %+v", i, gotPts[i], wantPts[i])
		}
	}
	// Appends continue with the next seq, as if never restarted.
	l2.Emit(Event{T: fixedTime(99), Kind: KindTaskIssued, TaskKind: "photo"})
	if err := l2.Commit(); err != nil {
		t.Fatal(err)
	}
	if l2.LastSeq() != uint64(len(evs))+1 {
		t.Fatalf("post-restart LastSeq = %d, want %d", l2.LastSeq(), len(evs)+1)
	}
}

func TestLogCheckpointDueTriggers(t *testing.T) {
	l, err := OpenDir(t.TempDir(), nil, DirStoreOptions{}, CheckpointPolicy{Every: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.CheckpointDue() {
		t.Fatal("empty log reports a checkpoint due")
	}
	emitAll(t, l, sampleEvents()[:2])
	if l.CheckpointDue() {
		t.Fatal("due after 2 events with Every=3")
	}
	emitAll(t, l, sampleEvents()[2:3])
	if !l.CheckpointDue() {
		t.Fatal("not due after 3 events with Every=3")
	}
	if err := l.WriteCheckpoint(nil); err != nil {
		t.Fatal(err)
	}
	if l.CheckpointDue() {
		t.Fatal("still due right after checkpointing")
	}

	// Time trigger, against an injected clock.
	lt, err := OpenDir(t.TempDir(), nil, DirStoreOptions{}, CheckpointPolicy{Interval: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer lt.Close()
	now := fixedTime(0)
	lt.now = func() time.Time { return now }
	lt.lastCkptT = now
	emitAll(t, lt, sampleEvents()[:1])
	if lt.CheckpointDue() {
		t.Fatal("due before the interval elapsed")
	}
	now = now.Add(2 * time.Minute)
	if !lt.CheckpointDue() {
		t.Fatal("not due after the interval elapsed")
	}

	// A store-less log never checkpoints.
	ln := NewLog(nil)
	emitAll(t, ln, sampleEvents())
	if ln.CheckpointDue() {
		t.Fatal("store-less log reports checkpoint due")
	}
	if err := ln.WriteCheckpoint(nil); err != nil {
		t.Fatalf("WriteCheckpoint without a store: %v (want nil no-op)", err)
	}
}

// TestLogCheckpointAtLastSeqSealsSegment: a checkpoint covering every
// stored event (the shutdown checkpoint) seals the active segment, so a
// reopen replays nothing: Replay folds no event, ReadAfter from the
// checkpoint yields none, and neither open nor either read touches the
// sealed segment, here overwritten with unparseable lines that any read
// would report as corrupt and that open would truncate.
func TestLogCheckpointAtLastSeqSealsSegment(t *testing.T) {
	dir := t.TempDir()
	evs := sampleEvents()
	l := openTestDir(t, dir, nil)
	emitAll(t, l, evs)
	if err := l.WriteCheckpoint(json.RawMessage(`{"workers":null}`)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	sealed := filepath.Join(dir, segName(1))
	active := filepath.Join(dir, segName(uint64(len(evs))+1))
	if info, err := os.Stat(active); err != nil || info.Size() != 0 {
		t.Fatalf("no empty segment after the checkpoint seq: %v %v", info, err)
	}
	garbage := []byte("not an event\nnor this\n")
	if err := os.WriteFile(sealed, garbage, 0o644); err != nil {
		t.Fatal(err)
	}

	l2 := openTestDir(t, dir, nil)
	defer l2.Close()
	folded := 0
	if err := l2.Replay(func(Event) { folded++ }); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if folded != 0 {
		t.Fatalf("replay folded %d events the checkpoint covers", folded)
	}
	if err := l2.ReadAfter(l2.CheckpointSeq(), func(e Event) error {
		t.Errorf("ReadAfter(%d) yielded seq %d", l2.CheckpointSeq(), e.Seq)
		return nil
	}); err != nil {
		t.Fatalf("ReadAfter: %v", err)
	}
	full := NewLog(nil)
	emitAll(t, full, evs)
	if got, want := l2.Campaign().Counters(), full.Campaign().Counters(); got != want {
		t.Fatalf("restored counters %+v != full fold %+v", got, want)
	}
	if string(l2.CheckpointDispatch()) != `{"workers":null}` {
		t.Fatalf("checkpoint dispatch state %s", l2.CheckpointDispatch())
	}
	if got, err := os.ReadFile(sealed); err != nil || !bytes.Equal(got, garbage) {
		t.Fatalf("sealed segment changed: %q %v", got, err)
	}
	l2.Emit(Event{T: fixedTime(99), Kind: KindTaskIssued, TaskKind: "photo"})
	if err := l2.Commit(); err != nil {
		t.Fatal(err)
	}
	if l2.LastSeq() != uint64(len(evs))+1 {
		t.Fatalf("post-restart LastSeq = %d, want %d", l2.LastSeq(), len(evs)+1)
	}
}

// TestLogReplayFoldsTailOnce: after a crash (events appended past the
// newest checkpoint, no shutdown checkpoint) Replay hands exactly those
// events, once each and in order, to the campaign aggregate and to the
// fold function, in one pass.
func TestLogReplayFoldsTailOnce(t *testing.T) {
	dir := t.TempDir()
	evs := sampleEvents()
	const split = 4
	l := openTestDir(t, dir, nil)
	emitAll(t, l, evs[:split])
	if err := l.WriteCheckpoint(nil); err != nil {
		t.Fatal(err)
	}
	emitAll(t, l, evs[split:])
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := openTestDir(t, dir, nil)
	defer l2.Close()
	var folded []uint64
	if err := l2.Replay(func(e Event) {
		if l2.Campaign().Counters().LastSeq != e.Seq {
			t.Errorf("seq %d reached the fold before the aggregate", e.Seq)
		}
		folded = append(folded, e.Seq)
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	wantContiguous(t, folded, split+1, len(evs))
	full := NewLog(nil)
	emitAll(t, full, evs)
	if got, want := l2.Campaign().Counters(), full.Campaign().Counters(); got != want {
		t.Fatalf("checkpoint+tail counters %+v != full fold %+v", got, want)
	}
}
