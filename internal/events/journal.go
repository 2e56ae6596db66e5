package events

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
)

// journal is one append-only JSONL segment file of a DirStore: one event
// per line, encoded with encoding/json (deterministic field order), so the
// file is greppable, diffable, and byte-reproducible — replaying a journal
// and appending to it produces exactly the bytes an uninterrupted run would
// have written.
//
// Crash safety: appends are buffered and pushed to the OS on Flush; Sync
// additionally fsyncs (the model owner calls it once per processed batch, so
// a crash loses at most the in-flight batch's events). A torn final line —
// the signature of a crash mid-append — is detected and truncated away on
// open, restoring the longest valid prefix.
type journal struct {
	mu sync.Mutex
	f  *os.File
	w  *bufio.Writer
	// size is the validated file length (end of the last complete line);
	// appends grow it.
	size int64
	// lastSeq is the sequence number of the last stored event (0 when
	// empty).
	lastSeq uint64
	// count is the number of stored events.
	count int
	err   error // first append/flush error; poisons further writes
}

// openJournal opens (or creates) the journal at path, scans it for
// integrity, and truncates a torn final line if the previous process died
// mid-append. The scan also recovers the last assigned sequence number so
// new events continue the contiguous numbering.
func openJournal(path string) (*journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("events: open journal: %w", err)
	}
	j := &journal{f: f}
	valid, lastSeq, count, err := scanJournal(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("events: stat journal: %w", err)
	}
	if info.Size() > valid {
		// Torn tail from a crash mid-append: drop it so the file is a clean
		// prefix of the uninterrupted history again.
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, fmt.Errorf("events: truncate torn journal tail: %w", err)
		}
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("events: seek journal: %w", err)
	}
	j.size = valid
	j.lastSeq = lastSeq
	j.count = count
	j.w = bufio.NewWriter(f)
	return j, nil
}

// scanJournal reads the file from the start and returns the byte offset of
// the end of the last complete, parseable line, plus the last event's
// sequence number and the event count. A final fragment without a newline,
// or a complete line that fails to parse, marks the end of the valid prefix.
func scanJournal(f *os.File) (valid int64, lastSeq uint64, count int, err error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, 0, 0, fmt.Errorf("events: seek journal: %w", err)
	}
	r := bufio.NewReader(f)
	for {
		line, err := r.ReadString('\n')
		if err == io.EOF {
			// line holds a torn fragment (or nothing); either way the valid
			// prefix ends before it.
			return valid, lastSeq, count, nil
		}
		if err != nil {
			return 0, 0, 0, fmt.Errorf("events: read journal: %w", err)
		}
		var e Event
		if jsonErr := json.Unmarshal([]byte(strings.TrimSuffix(line, "\n")), &e); jsonErr != nil {
			// A complete but unparseable line: treat everything from here on
			// as torn (a crash can flush garbage with a trailing newline).
			return valid, lastSeq, count, nil
		}
		valid += int64(len(line))
		lastSeq = e.Seq
		count++
	}
}

// LastSeq returns the sequence number of the last stored event (0 when the
// journal is empty).
func (j *journal) LastSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lastSeq
}

// Len returns the number of stored events.
func (j *journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.count
}

// Size returns the validated byte length of the file plus buffered appends.
func (j *journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
}

// Append buffers one event line. The write reaches the OS on Flush/Sync.
// Sequence numbers are validated: on a non-empty journal e.Seq must be
// exactly LastSeq()+1 (an empty journal accepts any positive starting seq,
// so a store can begin mid-history after a checkpoint). A regression or gap
// poisons the journal — ReadAfter ordering and Last-Event-ID resume both
// depend on contiguous seqs, so a caller bug must fail loudly rather than
// corrupt the resume invariants.
func (j *journal) Append(e Event) error {
	data, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("events: encode event: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if e.Seq == 0 || (j.count > 0 && e.Seq != j.lastSeq+1) {
		j.err = fmt.Errorf("%w: append seq %d after %d", ErrSeqRegression, e.Seq, j.lastSeq)
		return j.err
	}
	if _, err := j.w.Write(data); err != nil {
		j.err = fmt.Errorf("events: append: %w", err)
		return j.err
	}
	if err := j.w.WriteByte('\n'); err != nil {
		j.err = fmt.Errorf("events: append: %w", err)
		return j.err
	}
	j.size += int64(len(data)) + 1
	j.lastSeq = e.Seq
	j.count++
	return nil
}

// Flush pushes buffered appends to the OS (no fsync). Readers opening the
// file afterwards see every appended event.
func (j *journal) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.flushLocked()
}

func (j *journal) flushLocked() error {
	if j.err != nil {
		return j.err
	}
	if err := j.w.Flush(); err != nil {
		j.err = fmt.Errorf("events: flush: %w", err)
	}
	return j.err
}

// Sync flushes and fsyncs: after it returns, every appended event survives a
// machine crash. The model owner calls it once per processed batch.
func (j *journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.flushLocked(); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		j.err = fmt.Errorf("events: fsync: %w", err)
	}
	return j.err
}

// readSegmentFile streams events with Seq > after from one JSONL file,
// through its own handle so the owner can keep appending meanwhile. fn
// returning an error aborts the scan and is returned.
//
// Only a *final fragment without a newline* is benign (a concurrent append
// the buffered writer cut mid-line); sealed marks a rotated-out segment,
// which can never have a concurrent appender, so even a trailing fragment
// is corruption there. A complete line that fails to parse is mid-file
// corruption — openJournal already truncated any crash-torn tail, so
// garbage inside the validated region means the file was damaged after the
// fact. That case fails with ErrCorrupt instead of silently truncating the
// replay.
func readSegmentFile(path string, after uint64, sealed bool, fn func(Event) error) error {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			// Compaction removed the segment between listing and opening;
			// its events are covered by the newest checkpoint.
			return fmt.Errorf("%w: segment %s removed", ErrTruncated, path)
		}
		return fmt.Errorf("events: open journal for read: %w", err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	for {
		line, err := r.ReadString('\n')
		if err == io.EOF {
			if len(line) > 0 && sealed {
				return fmt.Errorf("%w: torn final line in sealed segment %s", ErrCorrupt, path)
			}
			return nil // active tail: benign concurrent-append fragment (or end)
		}
		if err != nil {
			return fmt.Errorf("events: read journal: %w", err)
		}
		var e Event
		if err := json.Unmarshal([]byte(strings.TrimSuffix(line, "\n")), &e); err != nil {
			return fmt.Errorf("%w: unparseable line in %s: %v", ErrCorrupt, path, err)
		}
		if e.Seq <= after {
			continue
		}
		if err := fn(e); err != nil {
			return err
		}
	}
}

// Close flushes, fsyncs and closes the file.
func (j *journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	flushErr := j.flushLocked()
	syncErr := j.f.Sync()
	closeErr := j.f.Close()
	if flushErr != nil {
		return flushErr
	}
	if syncErr != nil {
		return fmt.Errorf("events: fsync on close: %w", syncErr)
	}
	if closeErr != nil {
		return fmt.Errorf("events: close journal: %w", closeErr)
	}
	return nil
}
