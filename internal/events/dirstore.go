package events

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// DirStore is the checkpointing, compacting persistence backend: a
// directory of JSONL segments plus periodic checkpoint files.
//
// Layout:
//
//	events-0000000000000001.jsonl   segment: events with Seq >= 1
//	events-0000000000004097.jsonl   segment: events with Seq >= 4097
//	checkpoint-0000000000004096.json  folded state covering Seq <= 4096
//	checkpoint-0000000000008192.json  folded state covering Seq <= 8192
//
// Each segment is a journal file named after the sequence number of its
// first event; the highest-named segment is the active one and rotates
// when it exceeds SegmentMaxBytes or when a checkpoint covers all of it.
// A checkpoint at seq S is written atomically (temp file, fsync, rename,
// directory fsync) and makes every segment that ends at or before S
// redundant — but segments are only deleted once they are covered by the
// *oldest retained* checkpoint, so a corrupt newest checkpoint can always
// fall back to the previous one plus a longer tail. With KeepCheckpoints=2
// (the default) the invariant is:
//
//	oldest segment's first seq  <=  oldest retained checkpoint seq + 1
//
// Restart cost is therefore O(newest checkpoint + tail), not O(lifetime):
// open parses the newest valid checkpoint and scans only the segments
// after it.
type DirStore struct {
	mu   sync.Mutex
	dir  string
	opts DirStoreOptions

	segs   []segment // ascending by first seq; the last one is active
	active *journal  // journal over segs[len(segs)-1]

	ckpt     *Checkpoint // newest valid checkpoint, nil when none
	ckptSeqs []uint64    // valid checkpoint files on disk, ascending

	corruptCkpts int // unparseable checkpoint files skipped (and removed) at open
	lastSeq      uint64
	err          error // first append/rotation error; poisons further writes
}

// DirStoreOptions tunes the segment store. Zero fields take defaults.
type DirStoreOptions struct {
	// SegmentMaxBytes rotates the active segment once it exceeds this
	// size. Defaults to 4 MiB.
	SegmentMaxBytes int64
	// KeepCheckpoints is how many of the newest checkpoints are retained;
	// segments are compacted only up to the oldest retained one, so each
	// extra checkpoint is one more fallback level. Defaults to 2.
	KeepCheckpoints int
}

type segment struct {
	first uint64 // seq of the segment's first event
	path  string
}

const (
	segPrefix  = "events-"
	segSuffix  = ".jsonl"
	ckptPrefix = "checkpoint-"
	ckptSuffix = ".json"
)

func segName(first uint64) string { return fmt.Sprintf("%s%016d%s", segPrefix, first, segSuffix) }
func ckptName(seq uint64) string  { return fmt.Sprintf("%s%016d%s", ckptPrefix, seq, ckptSuffix) }

// parseSeqName extracts the sequence number from a segment or checkpoint
// file name with the given prefix/suffix.
func parseSeqName(name, prefix, suffix string) (uint64, bool) {
	rest, ok := strings.CutPrefix(name, prefix)
	if !ok {
		return 0, false
	}
	rest, ok = strings.CutSuffix(rest, suffix)
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// OpenDirStore opens (or initialises) the directory store at dir. Recovery
// is the whole point of the layout, so open handles every crash shape:
// stray atomic-write temp files are removed, unparseable checkpoints are
// skipped (newest-first, so the previous checkpoint takes over), a torn
// final line in the active segment is truncated away, and a half-finished
// compaction (some covered segments deleted, some not) is simply continued
// from whatever files remain.
func OpenDirStore(dir string, opts DirStoreOptions) (*DirStore, error) {
	if opts.SegmentMaxBytes <= 0 {
		opts.SegmentMaxBytes = 4 << 20
	}
	if opts.KeepCheckpoints <= 0 {
		opts.KeepCheckpoints = 2
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("events: create store dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("events: read store dir: %w", err)
	}
	ds := &DirStore{dir: dir, opts: opts}
	var ckptSeqs []uint64
	for _, ent := range entries {
		name := ent.Name()
		if strings.Contains(name, tmpSuffix) {
			// A crash mid-atomic-write left its temp file behind; the
			// incomplete content must never be mistaken for real state.
			_ = os.Remove(filepath.Join(dir, name))
			continue
		}
		if first, ok := parseSeqName(name, segPrefix, segSuffix); ok {
			ds.segs = append(ds.segs, segment{first: first, path: filepath.Join(dir, name)})
			continue
		}
		if seq, ok := parseSeqName(name, ckptPrefix, ckptSuffix); ok {
			ckptSeqs = append(ckptSeqs, seq)
		}
	}
	sort.Slice(ds.segs, func(i, j int) bool { return ds.segs[i].first < ds.segs[j].first })
	sort.Slice(ckptSeqs, func(i, j int) bool { return ckptSeqs[i] < ckptSeqs[j] })

	// Newest valid checkpoint wins; corrupt ones (crash-damaged or
	// tampered) are counted, removed, and fallen through — the previous
	// checkpoint plus a longer tail, or a full replay when none is left.
	for i := len(ckptSeqs) - 1; i >= 0; i-- {
		path := filepath.Join(dir, ckptName(ckptSeqs[i]))
		c, err := loadCheckpoint(path, ckptSeqs[i])
		if err != nil {
			ds.corruptCkpts++
			_ = os.Remove(path)
			ckptSeqs = append(ckptSeqs[:i], ckptSeqs[i+1:]...)
			continue
		}
		if ds.ckpt == nil {
			ds.ckpt = c
		}
	}
	ds.ckptSeqs = ckptSeqs

	// Tail continuity: whatever base we recover from, the remaining
	// segments must connect to it without a gap.
	if len(ds.segs) > 0 {
		oldest := ds.segs[0].first
		switch {
		case ds.ckpt == nil && oldest > 1:
			return nil, fmt.Errorf("events: store %s: no valid checkpoint and history starts at seq %d — earlier segments were compacted away and cannot be replayed", dir, oldest)
		case ds.ckpt != nil && oldest > ds.ckpt.Seq+1:
			return nil, fmt.Errorf("events: store %s: gap between checkpoint seq %d and oldest segment seq %d", dir, ds.ckpt.Seq, oldest)
		}
	}

	if len(ds.segs) == 0 {
		first := uint64(1)
		if ds.ckpt != nil {
			first = ds.ckpt.Seq + 1
		}
		ds.segs = append(ds.segs, segment{first: first, path: filepath.Join(dir, segName(first))})
	}
	last := ds.segs[len(ds.segs)-1]
	ds.active, err = openJournal(last.path)
	if err != nil {
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		ds.active.Close()
		return nil, fmt.Errorf("events: store %s: %w", dir, err)
	}
	ds.lastSeq = ds.active.LastSeq()
	if ds.active.Len() == 0 {
		ds.lastSeq = last.first - 1
	}
	if ds.ckpt != nil && ds.ckpt.Seq > ds.lastSeq {
		// The checkpoint protocol fsyncs the tail before writing the
		// checkpoint, so this only happens on tampered files. Start a
		// fresh segment after the checkpoint rather than appending a seq
		// the active segment would reject.
		ds.lastSeq = ds.ckpt.Seq
		if err := ds.rotateLocked(); err != nil {
			return nil, err
		}
	}
	return ds, nil
}

// loadCheckpoint parses and validates one checkpoint file; the embedded
// seq must match the filename (a copy under the wrong name is corruption,
// not a checkpoint).
func loadCheckpoint(path string, seq uint64) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("events: read checkpoint: %w", err)
	}
	var c Checkpoint
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%w: checkpoint %s: %v", ErrCorrupt, path, err)
	}
	if c.Seq != seq {
		return nil, fmt.Errorf("%w: checkpoint %s claims seq %d", ErrCorrupt, path, c.Seq)
	}
	return &c, nil
}

// CorruptCheckpoints reports how many unparseable checkpoint files open
// skipped — surfaced into snaptask_events_journal_corrupt_total.
func (ds *DirStore) CorruptCheckpoints() int {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.corruptCkpts
}

// Append buffers one event into the active segment, rotating first when
// the segment is full. Sequence numbers must be exactly contiguous with
// the store's history (checkpoint included); a regression poisons the
// store.
func (ds *DirStore) Append(e Event) error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.err != nil {
		return ds.err
	}
	if e.Seq != ds.lastSeq+1 {
		ds.err = fmt.Errorf("%w: append seq %d after %d", ErrSeqRegression, e.Seq, ds.lastSeq)
		return ds.err
	}
	if ds.active.Size() >= ds.opts.SegmentMaxBytes {
		if err := ds.rotateLocked(); err != nil {
			ds.err = err
			return err
		}
	}
	if err := ds.active.Append(e); err != nil {
		ds.err = err
		return err
	}
	ds.lastSeq = e.Seq
	return nil
}

// rotateLocked seals the active segment (flush + fsync + close) and starts
// the next one, named after the seq its first event will carry. The
// directory is fsynced so the new segment survives a crash.
func (ds *DirStore) rotateLocked() error {
	if ds.active != nil {
		if err := ds.active.Close(); err != nil {
			return err
		}
	}
	first := ds.lastSeq + 1
	path := filepath.Join(ds.dir, segName(first))
	j, err := openJournal(path)
	if err != nil {
		return err
	}
	if err := syncDir(ds.dir); err != nil {
		j.Close()
		return fmt.Errorf("events: rotate segment: %w", err)
	}
	ds.active = j
	ds.segs = append(ds.segs, segment{first: first, path: path})
	return nil
}

// Flush pushes buffered appends to the OS (no fsync).
func (ds *DirStore) Flush() error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.err != nil {
		return ds.err
	}
	return ds.active.Flush()
}

// Sync flushes and fsyncs the active segment. Sealed segments were fsynced
// when they rotated out, so after Sync the full history is durable.
func (ds *DirStore) Sync() error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.err != nil {
		return ds.err
	}
	return ds.active.Sync()
}

// LastSeq returns the newest stored sequence number (checkpoint included).
func (ds *DirStore) LastSeq() uint64 {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.lastSeq
}

// Horizon returns the compaction horizon: events with Seq <= Horizon()
// were folded into a checkpoint and their segments deleted. 0 until the
// first compaction.
func (ds *DirStore) Horizon() uint64 {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.segs[0].first - 1
}

// ReadAfter streams stored events with Seq > after across segments, in
// order. after older than the horizon fails with ErrTruncated — the caller
// decides how to present the gap (the SSE layer sends an explicit
// history_truncated signal).
func (ds *DirStore) ReadAfter(after uint64, fn func(Event) error) error {
	ds.mu.Lock()
	if err := ds.active.Flush(); err != nil {
		ds.mu.Unlock()
		return err
	}
	if horizon := ds.segs[0].first - 1; after < horizon {
		ds.mu.Unlock()
		return fmt.Errorf("%w: requested events after seq %d but the horizon is %d", ErrTruncated, after, horizon)
	}
	segs := make([]segment, len(ds.segs))
	copy(segs, ds.segs)
	ds.mu.Unlock()

	for i, s := range segs {
		sealed := i+1 < len(segs)
		if sealed && segs[i+1].first <= after+1 {
			continue // segment ends at or before `after`
		}
		if err := readSegmentFile(s.path, after, sealed, fn); err != nil {
			return err
		}
	}
	return nil
}

// WriteCheckpoint atomically persists the checkpoint, then compacts:
// checkpoint files beyond KeepCheckpoints are removed and segments fully
// covered by the oldest retained checkpoint are deleted. The caller (the
// Log) has already fsynced the tail, so the checkpoint never claims to
// cover events that could be lost. A checkpoint that covers every stored
// event also seals the active segment, when it holds any: a reopen then
// scans and replays none of the covered events, and compaction later
// deletes the sealed segment whole.
func (ds *DirStore) WriteCheckpoint(c Checkpoint) error {
	data, err := json.Marshal(c)
	if err != nil {
		return fmt.Errorf("events: encode checkpoint: %w", err)
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if c.Seq > ds.lastSeq {
		return fmt.Errorf("events: checkpoint seq %d beyond stored history %d", c.Seq, ds.lastSeq)
	}
	if ds.ckpt != nil && c.Seq <= ds.ckpt.Seq {
		return nil // nothing new folded since the last checkpoint
	}
	path := filepath.Join(ds.dir, ckptName(c.Seq))
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(append(data, '\n'))
		return err
	}); err != nil {
		return err
	}
	cc := c
	ds.ckpt = &cc
	ds.ckptSeqs = append(ds.ckptSeqs, c.Seq)
	if c.Seq == ds.lastSeq && ds.active.Len() > 0 {
		if err := ds.rotateLocked(); err != nil {
			ds.err = err
			return err
		}
	}
	ds.compactLocked()
	return nil
}

// Checkpoint returns the newest valid checkpoint, if any.
func (ds *DirStore) Checkpoint() (Checkpoint, bool) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.ckpt == nil {
		return Checkpoint{}, false
	}
	return *ds.ckpt, true
}

// compactLocked enforces the retention policy. Removal failures are left
// for the next open to retry (the files re-appear in the directory listing
// and are compacted again); a crash part-way through just means some
// covered files survive until then — never a correctness problem, because
// deletion only ever targets state the retained checkpoints already cover.
func (ds *DirStore) compactLocked() {
	if n := len(ds.ckptSeqs) - ds.opts.KeepCheckpoints; n > 0 {
		for _, seq := range ds.ckptSeqs[:n] {
			_ = os.Remove(filepath.Join(ds.dir, ckptName(seq)))
		}
		ds.ckptSeqs = append([]uint64(nil), ds.ckptSeqs[n:]...)
	}
	// Segments are only deleted once the retention window is full: the
	// first checkpoint of a store's life must not compact anything, or a
	// corrupt newest checkpoint would have no fallback (neither an older
	// checkpoint nor a full history).
	if len(ds.ckptSeqs) < ds.opts.KeepCheckpoints {
		return
	}
	covered := ds.ckptSeqs[0]
	// A segment is deletable when the next segment starts at or before
	// covered+1 — i.e. every event in it has seq <= covered. The active
	// segment never qualifies (its upper bound is open).
	for len(ds.segs) >= 2 && ds.segs[1].first <= covered+1 {
		_ = os.Remove(ds.segs[0].path)
		ds.segs = ds.segs[1:]
	}
}

// Close flushes, fsyncs and closes the active segment.
func (ds *DirStore) Close() error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.active.Close()
}

var _ Store = (*DirStore)(nil)
