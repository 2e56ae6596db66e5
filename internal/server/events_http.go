// Campaign event endpoints: GET /v1/events streams the lifecycle feed over
// Server-Sent Events, GET /v1/progress serves the journal-derived campaign
// history. Both are read paths — they consume the event log's bus and
// aggregate and never touch the owner mutex.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"snaptask/internal/events"
)

// ProgressResponse is the /v1/progress payload: the campaign lifecycle
// totals plus the per-batch coverage/photos/tasks/retries time series, both
// folded from the event stream (and therefore identical after a journal
// replay).
type ProgressResponse struct {
	Counters events.Counters `json:"counters"`
	Points   []events.Point  `json:"points"`
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	camp := s.evlog.Campaign()
	points := camp.Progress()
	if points == nil {
		points = []events.Point{}
	}
	writeJSON(w, http.StatusOK, ProgressResponse{
		Counters: camp.Counters(),
		Points:   points,
	})
}

// resumeAfter extracts the client's replay position: the standard
// Last-Event-ID header (set by EventSource on reconnect) or an explicit
// ?after= query parameter. Zero streams the full history.
func resumeAfter(r *http.Request) (uint64, error) {
	raw := r.Header.Get("Last-Event-ID")
	if q := r.URL.Query().Get("after"); q != "" {
		raw = q
	}
	if raw == "" {
		return 0, nil
	}
	after, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad event id %q", raw)
	}
	return after, nil
}

// writeTruncatedSSE tells a resuming client that events at or before
// horizon were compacted away. The frame's id is the horizon itself, so a
// standard EventSource reconnect carries it as Last-Event-ID and resumes
// cleanly after the gap.
func writeTruncatedSSE(w io.Writer, horizon uint64) error {
	_, err := fmt.Fprintf(w,
		"id: %d\nevent: history_truncated\ndata: {\"horizon\":%d}\n\n",
		horizon, horizon)
	return err
}

// writeSSE renders one event as an SSE frame. The sequence number is the
// event id, so a dropped client resumes exactly where it left off.
func writeSSE(w io.Writer, e events.Event) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Kind, data)
	return err
}

// handleEvents streams campaign events over SSE. The contract:
//
//   - Each frame carries the event's sequence number as its SSE id; clients
//     resume with Last-Event-ID (or ?after=N) and receive every stored
//     event with Seq > N from the journal before the live feed continues —
//     the subscription is opened first and the overlap deduplicated by Seq,
//     so no event is skipped.
//   - Comment heartbeats keep idle connections alive.
//   - A consumer that falls behind the bus buffer is evicted (the owner
//     path never blocks on a slow reader); the stream ends with a comment
//     telling the client to reconnect with Last-Event-ID.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	after, err := resumeAfter(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	rc := http.NewResponseController(w)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	// Subscribe before the journal catch-up: an event emitted while we read
	// the backlog is then either already in the flushed journal or waiting
	// in the channel — never lost. The overlap is deduplicated by sequence.
	sub := s.evlog.Subscribe(sseBuf)
	defer s.evlog.Unsubscribe(sub)

	lastSent := after
	// A client resuming from before the compaction horizon cannot be
	// replayed event-by-event: that history was folded into a checkpoint
	// and its segments deleted. Send an explicit history_truncated frame
	// (its id is the horizon, so a plain EventSource reconnect resumes
	// past the gap) and continue from the horizon; clients that need the
	// folded effect fetch /v1/status or /v1/progress.
	if h := s.evlog.Horizon(); lastSent < h {
		if writeTruncatedSSE(w, h) != nil {
			return
		}
		lastSent = h
	}
	err = s.evlog.ReadAfter(lastSent, func(e events.Event) error {
		if e.Seq <= lastSent {
			return nil
		}
		if err := writeSSE(w, e); err != nil {
			return err
		}
		lastSent = e.Seq
		return nil
	})
	if err != nil {
		if errors.Is(err, events.ErrTruncated) {
			// Compaction advanced between the horizon check and the segment
			// read. Signal the new horizon; the client reconnects from it.
			_ = writeTruncatedSSE(w, s.evlog.Horizon())
			_ = rc.Flush()
		}
		return
	}
	if rc.Flush() != nil {
		return
	}

	heartbeat := time.NewTicker(sseHeartbeat)
	defer heartbeat.Stop()
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case e, ok := <-sub.C:
			if !ok {
				// Evicted for falling behind; the journal still has
				// everything, so the client reconnects from lastSent.
				_, _ = io.WriteString(w, ": dropped, reconnect with Last-Event-ID\n\n")
				_ = rc.Flush()
				return
			}
			if e.Seq <= lastSent {
				continue // already served from the journal backlog
			}
			if writeSSE(w, e) != nil {
				return
			}
			lastSent = e.Seq
			if rc.Flush() != nil {
				return
			}
		case <-heartbeat.C:
			if _, err := io.WriteString(w, ": heartbeat\n\n"); err != nil {
				return
			}
			if rc.Flush() != nil {
				return
			}
		}
	}
}
