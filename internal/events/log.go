package events

import (
	"encoding/json"
	"errors"
	"sync"
	"time"

	"snaptask/internal/telemetry"
)

// Log is the campaign event hub: it assigns sequence numbers, appends to the
// store, folds the campaign aggregate and fans out to live subscribers —
// in that order, so any event a subscriber misses is already durable and
// recoverable via ReadAfter (the SSE catch-up path).
//
// A nil *Log is a no-op for Emit and Commit, so core code records events
// unconditionally.
type Log struct {
	mu    sync.Mutex
	store Store
	bus   *Bus
	camp  *Campaign
	m     *telemetry.EventMetrics
	seq   uint64
	// lastDropped mirrors bus evictions into the telemetry counter.
	lastDropped uint64

	// campaignID, when set, is stamped onto every emitted event that does
	// not already carry one (multi-campaign servers; empty keeps legacy
	// single-campaign journals byte-identical).
	campaignID string

	// Checkpointing state (meaningful only with a store).
	policy       CheckpointPolicy
	now          func() time.Time
	ckptSeq      uint64          // seq covered by the newest checkpoint
	ckptDispatch json.RawMessage // dispatcher state carried by that checkpoint
	lastCkptT    time.Time
	ckptFailed   bool // the latest checkpoint write failed
}

// CheckpointPolicy says when a new checkpoint is due. Zero fields disable
// that trigger; the zero policy never triggers (checkpoints can still be
// written explicitly, e.g. at shutdown).
type CheckpointPolicy struct {
	// Interval triggers a checkpoint when at least this much time has
	// passed since the last one (and new events were folded).
	Interval time.Duration
	// Every triggers a checkpoint after this many events since the last
	// one.
	Every uint64
}

// OpenDir opens (or initialises) the checkpointing directory store at dir
// and returns a hub over it. Restart cost is O(checkpoint + tail): Replay
// restores the newest valid checkpoint and folds only the events after it.
// metrics may be nil.
func OpenDir(dir string, m *telemetry.EventMetrics, opts DirStoreOptions, policy CheckpointPolicy) (*Log, error) {
	ds, err := OpenDirStore(dir, opts)
	if err != nil {
		return nil, err
	}
	l := OpenStore(ds, m, policy)
	if n := ds.CorruptCheckpoints(); n > 0 {
		l.m.Corrupt.Add(uint64(n))
	}
	return l, nil
}

// OpenStore returns a hub over an already-open store, numbering new events
// after its newest stored one and checkpointing under policy. metrics may
// be nil.
func OpenStore(st Store, m *telemetry.EventMetrics, policy CheckpointPolicy) *Log {
	l := NewLog(m)
	l.store = st
	l.seq = st.LastSeq()
	l.policy = policy
	l.lastCkptT = l.now()
	if c, ok := st.Checkpoint(); ok {
		l.ckptSeq = c.Seq
		l.ckptDispatch = c.Dispatch
	}
	return l
}

// NewLog returns a store-less hub (bus + campaign only) — used by tests
// and by servers that want live events without durability.
func NewLog(m *telemetry.EventMetrics) *Log {
	if m == nil {
		// A bundle over a nil registry: every instrument no-ops, so the emit
		// path never branches on telemetry presence.
		m = telemetry.NewEventMetrics(nil)
	}
	return &Log{bus: NewBus(), camp: NewCampaign(), m: m, now: time.Now}
}

// Replay restores the campaign aggregate: the newest checkpoint's folded
// state first (when the store has one), then every stored event after it,
// producing exactly the counters and progress history an uninterrupted run
// would hold. Each fold function also sees every one of those tail events,
// in order, after the aggregate has applied it: the server restores its
// dispatcher in the same pass over the journal. Call once, before Emit.
func (l *Log) Replay(fold ...func(Event)) error {
	if l == nil || l.store == nil {
		return nil
	}
	from := uint64(0)
	if c, ok := l.store.Checkpoint(); ok {
		l.camp.Restore(c.Counters, c.Points)
		from = c.Seq
	}
	err := l.store.ReadAfter(from, func(e Event) error {
		l.camp.Apply(e)
		for _, fn := range fold {
			fn(e)
		}
		return nil
	})
	if errors.Is(err, ErrCorrupt) {
		l.m.Corrupt.Inc()
	}
	return err
}

// Emit stamps, numbers, journals, folds and publishes one event. The caller
// is the model owner (single producer); the mutex only orders Emit against
// itself for safety. Store errors are remembered by the store and
// surfaced on Commit/Close — emission never fails the ingest path.
func (l *Log) Emit(e Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	e.Seq = l.seq
	if e.T.IsZero() {
		e.T = time.Now().UTC()
	}
	if e.Campaign == "" {
		e.Campaign = l.campaignID
	}
	if l.store != nil {
		if err := l.store.Append(e); err == nil {
			l.m.Appended.Inc()
		}
	} else {
		l.m.Appended.Inc()
	}
	l.camp.Apply(e)
	l.bus.Publish(e)
	if d := l.bus.Dropped(); d != l.lastDropped {
		l.m.DroppedSubscribers.Add(d - l.lastDropped)
		l.lastDropped = d
		l.m.Subscribers.Set(float64(l.bus.Subscribers()))
	}
}

// SetCampaignID sets the campaign name stamped onto every subsequently
// emitted event that does not already carry one. Call before serving;
// replayed history is never restamped.
func (l *Log) SetCampaignID(id string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.campaignID = id
	l.mu.Unlock()
}

// Commit makes every emitted event durable (store fsync) and observes the
// fsync latency. The model owner calls it once per processed batch.
func (l *Log) Commit() error {
	if l == nil || l.store == nil {
		return nil
	}
	start := time.Now()
	err := l.store.Sync()
	l.m.FsyncSeconds.Observe(time.Since(start).Seconds())
	return err
}

// CheckpointDue reports whether the policy calls for a new checkpoint:
// events were folded since the last one, and either the count or the time
// trigger fired. Always false without a store.
func (l *Log) CheckpointDue() bool {
	if l == nil || l.store == nil {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seq == l.ckptSeq {
		return false
	}
	if l.policy.Every > 0 && l.seq-l.ckptSeq >= l.policy.Every {
		return true
	}
	if l.policy.Interval > 0 && l.now().Sub(l.lastCkptT) >= l.policy.Interval {
		return true
	}
	return false
}

// WriteCheckpoint persists a checkpoint of the current folded state plus
// the caller's serialised dispatch state. The caller must guarantee that
// no emitter is concurrently producing events it considers part of the
// checkpointed state (the server holds the owner and dispatcher locks).
// The tail is fsynced first, so the checkpoint never covers events that
// could be lost, and the write is atomic (temp file, fsync, rename).
// A no-op when nothing was folded since the last checkpoint, or without a
// store. A failure is counted in snaptask_events_checkpoint_failures_total
// and reported by CheckpointFailing until a later write succeeds.
func (l *Log) WriteCheckpoint(dispatch json.RawMessage) error {
	if l == nil || l.store == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seq == l.ckptSeq {
		return nil
	}
	err := l.writeCheckpointLocked(dispatch)
	l.ckptFailed = err != nil
	if err != nil {
		l.m.CheckpointFailures.Inc()
	}
	return err
}

func (l *Log) writeCheckpointLocked(dispatch json.RawMessage) error {
	if err := l.store.Sync(); err != nil {
		return err
	}
	c := Checkpoint{
		Seq:      l.seq,
		T:        l.now().UTC(),
		Counters: l.camp.Counters(),
		Points:   l.camp.Progress(),
		Dispatch: dispatch,
	}
	start := time.Now()
	if err := l.store.WriteCheckpoint(c); err != nil {
		return err
	}
	l.m.Checkpoints.Inc()
	l.m.CheckpointSeconds.Observe(time.Since(start).Seconds())
	l.ckptSeq = c.Seq
	l.ckptDispatch = dispatch
	l.lastCkptT = c.T
	return nil
}

// CheckpointFailing reports whether the latest checkpoint write failed.
func (l *Log) CheckpointFailing() bool {
	if l == nil {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ckptFailed
}

// CheckpointSeq returns the sequence number covered by the newest
// checkpoint (0 when none); Replay folds the journal events after it.
func (l *Log) CheckpointSeq() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ckptSeq
}

// CheckpointDispatch returns the serialised dispatcher state carried by the
// newest checkpoint (nil when none) — the dispatcher restores from it
// before folding the tail.
func (l *Log) CheckpointDispatch() json.RawMessage {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ckptDispatch
}

// Horizon returns the store's compaction horizon: events with Seq <=
// Horizon() are no longer individually readable. 0 without a store.
func (l *Log) Horizon() uint64 {
	if l == nil || l.store == nil {
		return 0
	}
	return l.store.Horizon()
}

// Subscribe registers a live event consumer with the given channel buffer.
func (l *Log) Subscribe(buf int) *Subscriber {
	if l == nil {
		return nil
	}
	s := l.bus.Subscribe(buf)
	l.m.Subscribers.Set(float64(l.bus.Subscribers()))
	return s
}

// Unsubscribe removes a consumer (idempotent, eviction-safe).
func (l *Log) Unsubscribe(s *Subscriber) {
	if l == nil || s == nil {
		return
	}
	l.bus.Unsubscribe(s)
	l.m.Subscribers.Set(float64(l.bus.Subscribers()))
}

// ReadAfter streams stored events with Seq > after, in order — the SSE
// catch-up and /v1/progress source. Without a store it is a no-op.
// Corruption surfaced by the store is counted in
// snaptask_events_journal_corrupt_total on the way through.
func (l *Log) ReadAfter(after uint64, fn func(Event) error) error {
	if l == nil || l.store == nil {
		return nil
	}
	err := l.store.ReadAfter(after, fn)
	if errors.Is(err, ErrCorrupt) {
		l.m.Corrupt.Inc()
	}
	return err
}

// LastSeq returns the sequence number of the last emitted (or replayed)
// event.
func (l *Log) LastSeq() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Campaign returns the live campaign aggregate (nil-safe: a nil Log yields
// a nil aggregate whose reads return zero values).
func (l *Log) Campaign() *Campaign {
	if l == nil {
		return nil
	}
	return l.camp
}

// Close flushes and fsyncs the store. Emit must not be called after.
func (l *Log) Close() error {
	if l == nil || l.store == nil {
		return nil
	}
	return l.store.Close()
}
