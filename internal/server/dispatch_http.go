// Dispatch endpoints: worker registration, heartbeats and lease-based task
// claims. A claim names its worker, carries a lease deadline, and an
// abandoned lease requeues its task for other workers.
package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"snaptask/internal/dispatch"
	"snaptask/internal/geom"
	"snaptask/internal/telemetry"
)

// RegisterWorkerRequest registers (or re-announces) a worker. All fields
// are optional: an empty ID is assigned one, reliability defaults to 1, and
// position/cost parameters only matter when the server runs with an
// incentive budget.
type RegisterWorkerRequest struct {
	ID          string  `json:"id,omitempty"`
	X           float64 `json:"x,omitempty"`
	Y           float64 `json:"y,omitempty"`
	HasLoc      bool    `json:"hasLoc,omitempty"`
	BaseReward  float64 `json:"baseReward,omitempty"`
	PerMetre    float64 `json:"perMetre,omitempty"`
	Reliability float64 `json:"reliability,omitempty"`
}

// RegisterWorkerResponse confirms registration.
type RegisterWorkerResponse struct {
	ID string `json:"id"`
	// LeaseTTLSeconds is how long a claimed lease lives without a
	// heartbeat — the client's heartbeat-interval hint.
	LeaseTTLSeconds float64 `json:"leaseTtlSeconds"`
}

// HeartbeatResponse reports the worker's lease state after a heartbeat.
type HeartbeatResponse struct {
	WorkerID string `json:"workerId"`
	// Active is true when the worker holds a lease; Deadline is then its
	// extended expiry.
	Active   bool      `json:"active"`
	Deadline time.Time `json:"deadline,omitzero"`
}

// ClaimRequest asks for a task lease. A reported location updates the
// registry and, with an incentive budget, steers scored assignment.
type ClaimRequest struct {
	WorkerID string  `json:"workerId"`
	X        float64 `json:"x,omitempty"`
	Y        float64 `json:"y,omitempty"`
	HasLoc   bool    `json:"hasLoc,omitempty"`
}

// ClaimResponse grants a lease (or reports the venue covered).
type ClaimResponse struct {
	Task     TaskDTO   `json:"task"`
	LeaseID  string    `json:"leaseId,omitempty"`
	WorkerID string    `json:"workerId,omitempty"`
	Deadline time.Time `json:"deadline,omitzero"`
}

// handleRegisterWorker implements POST /v1/workers.
func (s *Server) handleRegisterWorker(w http.ResponseWriter, r *http.Request) {
	s.adm.limitBody(w, r)
	var req RegisterWorkerRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.rejectDecode(w, r, "register", err)
		return
	}
	// Registration only touches the dispatcher, but the status snapshot
	// shows the registry, so publish under the owner lock.
	s.mu.Lock()
	defer s.mu.Unlock()
	info, err := s.disp.Register(dispatch.WorkerInfo{
		ID:          req.ID,
		Pos:         geom.V2(req.X, req.Y),
		HasPos:      req.HasLoc,
		BaseReward:  req.BaseReward,
		PerMetre:    req.PerMetre,
		Reliability: req.Reliability,
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.publishLocked()
	s.maybeCheckpointLocked()
	writeJSON(w, http.StatusOK, RegisterWorkerResponse{
		ID:              info.ID,
		LeaseTTLSeconds: s.disp.LeaseTTL().Seconds(),
	})
}

// handleHeartbeat implements POST /v1/workers/{id}/heartbeat. It extends
// the worker's active lease and deliberately avoids the owner lock —
// heartbeats are the highest-frequency write and must never queue behind an
// in-flight batch.
func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.rateAdmit(w, r, "heartbeat", id) {
		return
	}
	deadline, active, err := s.disp.Heartbeat(id)
	if err != nil {
		writeError(w, leaseErrorStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, HeartbeatResponse{
		WorkerID: id,
		Active:   active,
		Deadline: deadline,
	})
}

// handleClaim implements POST /v1/task/claim: pop a pending task under a
// lease for a registered worker. The claim is the dispatch path's
// owner-lock hop, so it gets a request trace: the queue wait (claim.lock)
// versus the assignment itself (claim.assign) is the interesting split
// when uploads and claims contend.
func (s *Server) handleClaim(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	tr := s.tel.Tracer.StartRequest("claim", telemetry.RequestID(r.Context()),
		telemetry.TraceContextFromContext(r.Context()))
	defer tr.Finish()
	defer func() {
		s.dispM.ClaimSeconds.Observe(time.Since(start).Seconds())
	}()
	s.adm.limitBody(w, r)
	var req ClaimRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		tr.SetError(err)
		if s.rejectDecode(w, r, "claim", err) {
			s.claimResult("shed")
		} else {
			s.claimResult("error")
		}
		return
	}
	var pos *geom.Vec2
	if req.HasLoc {
		p := geom.V2(req.X, req.Y)
		pos = &p
	}
	// Claims pop the shared task queue, so they run on the owner path —
	// through admission control (rate limit, then the bounded queue; a
	// shed answers 429 + Retry-After before the lock).
	sp := tr.Span("claim.lock")
	release, ok := s.ownerAdmit(w, r, "claim", req.WorkerID)
	sp.End()
	if !ok {
		s.claimResult("shed")
		tr.SetError(errors.New("claim shed by admission control"))
		return
	}
	defer release()
	if s.sys.Covered() {
		s.claimResult("covered")
		writeJSON(w, http.StatusOK, ClaimResponse{Task: TaskDTO{Covered: true}})
		return
	}
	sp = tr.Span("claim.assign")
	task, lease, err := s.disp.Claim(req.WorkerID, pos, s.sys)
	sp.End()
	switch {
	case errors.Is(err, dispatch.ErrNoTask):
		s.claimResult("no_task")
		writeError(w, http.StatusNotFound, err)
		return
	case errors.Is(err, dispatch.ErrBudgetExhausted):
		s.claimResult("budget")
		writeError(w, http.StatusConflict, err)
		return
	case errors.Is(err, dispatch.ErrUnknownWorker):
		s.claimResult("error")
		writeError(w, http.StatusNotFound, err)
		return
	case err != nil:
		s.claimResult("error")
		tr.SetError(err)
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.claimResult("granted")
	sp = tr.Span("claim.publish")
	s.publishLocked()
	s.maybeCheckpointLocked()
	sp.End()
	writeJSON(w, http.StatusOK, ClaimResponse{
		Task:     taskToDTO(task),
		LeaseID:  lease.ID,
		WorkerID: lease.Worker,
		Deadline: lease.Deadline,
	})
}

func (s *Server) claimResult(result string) {
	s.dispM.Claims.With(result).Inc()
}
