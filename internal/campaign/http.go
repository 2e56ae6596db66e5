// Campaign-manager HTTP surface: lifecycle endpoints, campaign-scoped
// delegation, the default-campaign aliases and the cross-campaign status
// rollup. Every campaign-scoped request is rewritten to the legacy path
// shape and handed to the owning campaign's server, so a campaign's mux,
// middleware, admission and telemetry see exactly the traffic a
// single-campaign server would.
package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"

	"snaptask/internal/server"
)

// Sentinel errors mapped onto lifecycle HTTP statuses.
var (
	ErrNotFound = errors.New("no such campaign")
	ErrExists   = errors.New("campaign already exists")
	ErrBadID    = errors.New("invalid campaign id")
)

// ListResponse is the GET /v1/campaigns payload.
type ListResponse struct {
	Campaigns []Rollup `json:"campaigns"`
}

// ManagerStatus is the GET /v1/status payload under the manager: the
// default campaign's status (unchanged shape, so single-campaign clients
// keep decoding it) plus the cross-campaign rollup section.
type ManagerStatus struct {
	server.StatusResponse
	Campaigns []Rollup `json:"campaigns"`
}

func (m *Manager) routes() {
	m.mux.HandleFunc("POST /v1/campaigns", m.handleCreate)
	m.mux.HandleFunc("GET /v1/campaigns", m.handleList)
	m.mux.HandleFunc("GET /v1/campaigns/{id}", m.handleGet)
	m.mux.HandleFunc("POST /v1/campaigns/{id}/archive", m.handleArchive)
	m.mux.HandleFunc("/v1/campaigns/{id}/{rest...}", m.handleDelegate)
	m.mux.HandleFunc("GET /v1/status", m.handleStatus)
	m.mux.HandleFunc("/", m.handleDefaultAlias)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func lifecycleStatus(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrExists):
		return http.StatusConflict
	case errors.Is(err, ErrBadID):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// handleCreate implements POST /v1/campaigns.
func (m *Manager) handleCreate(w http.ResponseWriter, r *http.Request) {
	if limit := m.cfg.Admission.MaxBodyBytes; limit > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, limit)
	}
	var spec Spec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		// No campaign owns the request: the manager counts it under an
		// empty campaign label and retains its error trace.
		if errors.As(err, new(*http.MaxBytesError)) {
			m.shed.With(server.ShedBodyLimit).Inc()
			server.TraceShed(m.cfg.Telemetry.Tracer, r, "create", server.ShedBodyLimit)
			server.WriteBodyLimit(w, m.cfg.Admission.MaxBodyBytes)
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode: %w", err))
		return
	}
	spec.Archived = false
	c, err := m.Create(spec)
	if err != nil {
		writeError(w, lifecycleStatus(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, m.rollup(c))
}

// handleList implements GET /v1/campaigns.
func (m *Manager) handleList(w http.ResponseWriter, r *http.Request) {
	resp := ListResponse{Campaigns: []Rollup{}}
	for _, c := range m.List() {
		resp.Campaigns = append(resp.Campaigns, m.rollup(c))
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleGet implements GET /v1/campaigns/{id}: the campaign's rollup row.
func (m *Manager) handleGet(w http.ResponseWriter, r *http.Request) {
	c := m.Get(r.PathValue("id"))
	if c == nil {
		writeError(w, http.StatusNotFound, ErrNotFound)
		return
	}
	writeJSON(w, http.StatusOK, m.rollup(c))
}

// handleArchive implements POST /v1/campaigns/{id}/archive.
func (m *Manager) handleArchive(w http.ResponseWriter, r *http.Request) {
	c, err := m.Archive(r.PathValue("id"))
	if err != nil {
		writeError(w, lifecycleStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, m.rollup(c))
}

// handleDelegate implements /v1/campaigns/{id}/{rest...}: rewrite to the
// legacy path shape and hand to the owning campaign's server.
func (m *Manager) handleDelegate(w http.ResponseWriter, r *http.Request) {
	c := m.Get(r.PathValue("id"))
	if c == nil {
		writeError(w, http.StatusNotFound, ErrNotFound)
		return
	}
	if c.Archived() && r.Method != http.MethodGet && r.Method != http.MethodHead {
		writeError(w, http.StatusGone, fmt.Errorf("campaign %q is archived", c.ID()))
		return
	}
	m.forward(c, w, r, "/v1/"+r.PathValue("rest"))
}

// handleDefaultAlias keeps every legacy route working: anything not
// claimed by a manager-level pattern goes to the default campaign.
func (m *Manager) handleDefaultAlias(w http.ResponseWriter, r *http.Request) {
	if rejectCampaignQuery(w, r) {
		return
	}
	c := m.Default()
	if c == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("%w: %q", ErrNotFound, DefaultID))
		return
	}
	if c.Archived() && r.Method != http.MethodGet && r.Method != http.MethodHead {
		writeError(w, http.StatusGone, fmt.Errorf("campaign %q is archived", c.ID()))
		return
	}
	m.forward(c, w, r, r.URL.Path)
}

// rejectCampaignQuery answers 400 for a bare route that names a campaign
// in its query. Campaigns are addressed only by /v1/campaigns/{id}/...;
// serving the default campaign instead would hand the caller another
// campaign's data.
func rejectCampaignQuery(w http.ResponseWriter, r *http.Request) bool {
	q := r.URL.Query()
	if !q.Has("campaign") {
		return false
	}
	id := q.Get("campaign")
	writeError(w, http.StatusBadRequest, fmt.Errorf("the campaign query parameter is not supported: address campaign %q as /v1/campaigns/%s%s",
		id, url.PathEscape(id), strings.TrimPrefix(r.URL.Path, "/v1")))
	return true
}

// handleStatus implements GET /v1/status: the default campaign's status
// extended with the cross-campaign rollup.
func (m *Manager) handleStatus(w http.ResponseWriter, r *http.Request) {
	if rejectCampaignQuery(w, r) {
		return
	}
	var resp ManagerStatus
	if d := m.Default(); d != nil {
		if snap := d.srv.Snapshot(); snap != nil {
			resp.StatusResponse = snap.Status
		}
	}
	resp.Campaigns = []Rollup{}
	for _, c := range m.List() {
		resp.Campaigns = append(resp.Campaigns, m.rollup(c))
	}
	writeJSON(w, http.StatusOK, resp)
}

// forward hands the request to the campaign's server under a rewritten
// path. A shallow clone keeps the body, headers and context (request IDs,
// traceparent) intact while the inner mux re-matches the path.
func (m *Manager) forward(c *Campaign, w http.ResponseWriter, r *http.Request, path string) {
	r2 := new(http.Request)
	*r2 = *r
	u := *r.URL
	u.Path = path
	r2.URL = &u
	c.srv.ServeHTTP(w, r2)
}
