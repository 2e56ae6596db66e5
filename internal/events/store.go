package events

import (
	"encoding/json"
	"errors"
	"time"
)

// Store is the persistence backend behind the Log: the DirStore (a
// directory of JSONL segments plus periodic checkpoints, with compaction
// of segments the newest checkpoints fully cover). The Log, the SSE
// catch-up path and /v1/progress all route through this interface; tests
// wrap it to inject storage faults.
type Store interface {
	// Append buffers one event line. Appends must be contiguous: an event
	// whose Seq is not exactly LastSeq()+1 is rejected (a caller bug there
	// would silently break Last-Event-ID resume).
	Append(e Event) error
	// Flush pushes buffered appends to the OS (no fsync).
	Flush() error
	// Sync flushes and fsyncs; appended events then survive a crash.
	Sync() error
	// ReadAfter streams stored events with Seq > after, in order. Asking
	// for history older than Horizon() fails with ErrTruncated; a stored
	// line that no longer parses fails with ErrCorrupt.
	ReadAfter(after uint64, fn func(Event) error) error
	// LastSeq is the sequence number of the newest stored event (at least
	// the newest checkpoint's seq).
	LastSeq() uint64
	// Horizon is the compaction horizon: events with Seq <= Horizon() are
	// no longer individually readable (their folded effect lives in the
	// newest checkpoint).
	Horizon() uint64
	// WriteCheckpoint durably persists a checkpoint and compacts segments
	// the retained checkpoints fully cover.
	WriteCheckpoint(c Checkpoint) error
	// Checkpoint returns the newest valid checkpoint (loaded at open or
	// written since), if any.
	Checkpoint() (Checkpoint, bool)
	// Close flushes, fsyncs and releases the backing files.
	Close() error
}

// Checkpoint is a folded snapshot of everything the journal prefix up to
// Seq produces: the campaign aggregate (counters plus the full progress
// time series, so /v1/progress stays byte-identical across a compacted
// restart) and the dispatcher's serialised state. Restart = load the
// newest valid checkpoint + replay only the tail with Seq > Seq — O(tail),
// not O(lifetime).
type Checkpoint struct {
	// Seq is the sequence number of the last event folded into this
	// checkpoint; replay resumes at Seq+1.
	Seq uint64 `json:"seq"`
	// T is the checkpoint's write time (informational).
	T time.Time `json:"t"`
	// Counters and Points are the campaign aggregate at Seq.
	Counters Counters `json:"counters"`
	Points   []Point  `json:"points,omitempty"`
	// Dispatch is the dispatcher's serialised state at Seq (see
	// dispatch.State); empty when the checkpoint writer ran without a
	// dispatcher (library and benchmark use).
	Dispatch json.RawMessage `json:"dispatch,omitempty"`
}

// Sentinel errors surfaced by Store implementations.
var (
	// ErrCorrupt marks a stored event line that no longer parses. Only the
	// final line of the active segment can legitimately be torn (and is
	// truncated away at open), so mid-file corruption is a real integrity
	// failure — it is surfaced, counted in
	// snaptask_events_journal_corrupt_total, and never silently conflated
	// with the benign concurrent-append fragment case.
	ErrCorrupt = errors.New("events: journal corrupt")
	// ErrTruncated marks a read of history older than the compaction
	// horizon: the events are gone, their folded effect lives in the
	// newest checkpoint. SSE clients resuming from before the horizon get
	// an explicit history_truncated signal instead.
	ErrTruncated = errors.New("events: history truncated by compaction")
	// ErrSeqRegression marks an append whose sequence number is not the
	// successor of the last stored event. The store poisons itself on the
	// first regression so a looping caller bug cannot shred the file.
	ErrSeqRegression = errors.New("events: non-monotonic event sequence")
)
