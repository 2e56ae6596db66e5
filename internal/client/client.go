// Package client is the mobile-side of SnapTask: a Go client for the
// backend's HTTP API that plays the role of the paper's Android
// application — it fetches tasks, performs the capture protocols through a
// crowd.GuidedWorker, and uploads photos and annotations.
package client

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"snaptask/internal/annotation"
	"snaptask/internal/camera"
	"snaptask/internal/crowd"
	"snaptask/internal/geom"
	"snaptask/internal/grid"
	"snaptask/internal/server"
	"snaptask/internal/taskgen"
	"snaptask/internal/telemetry"
	"snaptask/internal/venue"
)

// RequestInfo describes one outgoing request's correlation identifiers —
// minted client-side, sent as X-Request-ID and W3C traceparent headers so
// the agent's logs join server access logs and /debug/traces records.
type RequestInfo struct {
	Method    string
	Path      string
	RequestID string
	TraceID   string
	SpanID    string
}

// Client talks to a SnapTask backend.
type Client struct {
	base string
	hc   *http.Client
	// OnRequest, when set, is called with each outgoing request's
	// correlation IDs before it is sent (the agent logs them). Must be
	// safe for concurrent use if the client is shared across goroutines.
	OnRequest func(RequestInfo)
	// MaxRetries429 bounds how many times an idempotent request (claim,
	// locate, heartbeat) is retried after a 429 before the error is
	// surfaced. 0 uses the default (3); negative disables retrying.
	MaxRetries429 int

	// campaign, when set, rewrites every /v1/* path onto the
	// campaign-scoped route shape (see WithCampaign).
	campaign string

	retried atomic.Uint64
}

// New returns a client for the backend at baseURL (e.g.
// "http://127.0.0.1:8080"). A nil httpClient uses http.DefaultClient.
func New(baseURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: baseURL, hc: httpClient}
}

// WithCampaign returns a client routing every request through the
// multi-campaign server's campaign-scoped endpoints: /v1/X becomes
// /v1/campaigns/{id}/X (including the SSE event stream). The receiver is
// unchanged; the derived client shares the HTTP client, callback and
// retry policy but counts its own 429 retries.
func (c *Client) WithCampaign(id string) *Client {
	return &Client{
		base:          c.base,
		hc:            c.hc,
		OnRequest:     c.OnRequest,
		MaxRetries429: c.MaxRetries429,
		campaign:      id,
	}
}

// path maps a legacy route onto the campaign-scoped shape when the client
// is campaign-bound.
func (c *Client) path(p string) string {
	if c.campaign == "" || !strings.HasPrefix(p, "/v1/") {
		return p
	}
	return "/v1/campaigns/" + c.campaign + strings.TrimPrefix(p, "/v1")
}

// do sends one request with client-minted correlation headers: a request
// ID and a fresh trace context per logical request (the server joins the
// trace rather than minting its own, so one trace ID spans client log,
// access log and owner-path stage spans).
func (c *Client) do(method, path string, body io.Reader) (*http.Response, error) {
	path = c.path(path)
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return nil, fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	id := telemetry.NewRequestID()
	tc := telemetry.NewTraceContext()
	req.Header.Set("X-Request-ID", id)
	req.Header.Set("Traceparent", tc.Header())
	if c.OnRequest != nil {
		c.OnRequest(RequestInfo{
			Method: method, Path: path,
			RequestID: id, TraceID: tc.TraceID, SpanID: tc.SpanID,
		})
	}
	return c.hc.Do(req)
}

func (c *Client) getJSON(path string, out any) error {
	resp, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return fmt.Errorf("client: GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("client: read %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return &APIError{Status: resp.StatusCode, Body: string(body)}
	}
	return json.Unmarshal(body, out)
}

func (c *Client) postJSON(path string, in, out any) error {
	payload, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("client: marshal %s: %w", path, err)
	}
	return c.postBytes(path, payload, out)
}

func (c *Client) postBytes(path string, payload []byte, out any) error {
	resp, err := c.do(http.MethodPost, path, bytes.NewReader(payload))
	if err != nil {
		return fmt.Errorf("client: POST %s: %w", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("client: read %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return &APIError{
			Status:     resp.StatusCode,
			Body:       string(body),
			RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
		}
	}
	return json.Unmarshal(body, out)
}

// postJSONIdempotent is postJSON for requests that are safe to repeat
// (claim, locate, heartbeat): when the server sheds with 429, the client
// honours Retry-After with jitter and retries up to MaxRetries429 times
// before surfacing the error, counting each retry in Retried429. Shed
// responses are backpressure, not failures — an agent fleet that treated
// the first 429 as fatal would collapse exactly when the server asks it to
// slow down.
func (c *Client) postJSONIdempotent(path string, in, out any) error {
	payload, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("client: marshal %s: %w", path, err)
	}
	retries := c.MaxRetries429
	if retries == 0 {
		retries = 3
	}
	for attempt := 0; ; attempt++ {
		err := c.postBytes(path, payload, out)
		var apiErr *APIError
		if err == nil || attempt >= retries ||
			!errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
			return err
		}
		c.retried.Add(1)
		time.Sleep(backoff(apiErr.RetryAfter, attempt))
	}
}

// Retried429 returns how many requests this client has re-sent after a 429
// (across all goroutines sharing it).
func (c *Client) Retried429() uint64 { return c.retried.Load() }

// backoff derives the post-429 sleep: the server's Retry-After when it sent
// one (jittered to 50–100% so a shed burst does not retry in lockstep),
// otherwise a jittered exponential fallback from 100ms.
func backoff(retryAfter time.Duration, attempt int) time.Duration {
	base := retryAfter
	if base <= 0 {
		base = 100 * time.Millisecond << uint(attempt)
	}
	if base > 10*time.Second {
		base = 10 * time.Second
	}
	half := base / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// parseRetryAfter reads an integer-seconds Retry-After value ("" or
// malformed yields 0; HTTP-date form is not produced by this backend).
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// APIError is a non-200 backend response.
type APIError struct {
	Status int
	Body   string
	// RetryAfter is the parsed Retry-After header of a 429 shed response
	// (0 when absent).
	RetryAfter time.Duration
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("client: backend returned %d: %s", e.Status, e.Body)
}

// Task is a claimed assignment.
type Task struct {
	ID       int
	Kind     taskgen.Kind
	Location geom.Vec2
	// Seed is the discovery-frontier point (aim hint for annotations).
	// It is only meaningful when HasSeed is set: a frontier can sit at
	// the world origin, so the zero value cannot mean "unset".
	Seed    geom.Vec2
	HasSeed bool
	// Covered is true when the backend has declared the venue complete.
	Covered bool
	// WorkerID and LeaseID are set on tasks obtained through Claim; the
	// upload helpers forward them so the backend validates the lease.
	WorkerID string
	LeaseID  string
}

// aimPoint returns the capture aim: the seed when the backend sent one.
func (t Task) aimPoint() geom.Vec2 {
	if t.HasSeed {
		return t.Seed
	}
	return t.Location
}

// RegisterWorker registers this client in the backend's dispatch registry
// (POST /v1/workers). An empty ID in the request is assigned by the server.
func (c *Client) RegisterWorker(req server.RegisterWorkerRequest) (server.RegisterWorkerResponse, error) {
	var resp server.RegisterWorkerResponse
	err := c.postJSON("/v1/workers", req, &resp)
	return resp, err
}

// Heartbeat marks the worker alive (POST /v1/workers/{id}/heartbeat),
// extending its active lease.
func (c *Client) Heartbeat(workerID string) (server.HeartbeatResponse, error) {
	var resp server.HeartbeatResponse
	err := c.postJSONIdempotent("/v1/workers/"+workerID+"/heartbeat", struct{}{}, &resp)
	return resp, err
}

// Claim requests a task lease (POST /v1/task/claim). ok=false means no
// eligible task is pending right now; a Covered task means mapping is done.
// A reported position enables the backend's incentive-aware assignment.
func (c *Client) Claim(workerID string, pos *geom.Vec2) (Task, bool, error) {
	req := server.ClaimRequest{WorkerID: workerID}
	if pos != nil {
		req.X, req.Y, req.HasLoc = pos.X, pos.Y, true
	}
	var resp server.ClaimResponse
	if err := c.postJSONIdempotent("/v1/task/claim", req, &resp); err != nil {
		var apiErr *APIError
		if errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound &&
			!strings.Contains(apiErr.Body, "unknown worker") {
			return Task{}, false, nil
		}
		return Task{}, false, err
	}
	if resp.Task.Covered {
		return Task{Covered: true}, true, nil
	}
	kind, err := server.TaskKindFromString(resp.Task.Kind)
	if err != nil {
		return Task{}, false, err
	}
	return Task{
		ID:       resp.Task.ID,
		Kind:     kind,
		Location: geom.V2(resp.Task.X, resp.Task.Y),
		Seed:     geom.V2(resp.Task.SeedX, resp.Task.SeedY),
		HasSeed:  resp.Task.HasSeed,
		WorkerID: resp.WorkerID,
		LeaseID:  resp.LeaseID,
	}, true, nil
}

// UploadBootstrap sends the initial capture set.
func (c *Client) UploadBootstrap(photos []camera.Photo) (server.UploadResponse, error) {
	req := server.UploadRequest{Bootstrap: true}
	for _, p := range photos {
		req.Photos = append(req.Photos, server.PhotoToDTO(p))
	}
	var resp server.UploadResponse
	err := c.postJSON("/v1/photos", req, &resp)
	return resp, err
}

// UploadPhotos sends a completed photo task's batch.
func (c *Client) UploadPhotos(task Task, photos []camera.Photo) (server.UploadResponse, error) {
	req := server.UploadRequest{
		TaskID:   task.ID,
		LocX:     task.Location.X,
		LocY:     task.Location.Y,
		SeedX:    task.Seed.X,
		SeedY:    task.Seed.Y,
		HasSeed:  task.HasSeed,
		WorkerID: task.WorkerID,
		LeaseID:  task.LeaseID,
	}
	for _, p := range photos {
		req.Photos = append(req.Photos, server.PhotoToDTO(p))
	}
	var resp server.UploadResponse
	err := c.postJSON("/v1/photos", req, &resp)
	return resp, err
}

// UploadAnnotations sends an annotation task's photos and worker marks.
func (c *Client) UploadAnnotations(task Task, atask annotation.Task, anns []annotation.Annotation) (server.AnnotateResponse, error) {
	req := server.AnnotateRequest{
		TaskID:   task.ID,
		LocX:     atask.Location.X,
		LocY:     atask.Location.Y,
		SeedX:    task.Seed.X,
		SeedY:    task.Seed.Y,
		HasSeed:  task.HasSeed,
		WorkerID: task.WorkerID,
		LeaseID:  task.LeaseID,
	}
	for _, p := range atask.Photos {
		req.Photos = append(req.Photos, server.PhotoToDTO(p))
	}
	for _, a := range anns {
		m := server.AnnotationDTO{WorkerID: a.WorkerID, PhotoIdx: a.PhotoIdx}
		for i, corner := range a.Corners {
			m.Corners[i] = [2]float64{corner.X, corner.Y}
		}
		req.Marks = append(req.Marks, m)
	}
	var resp server.AnnotateResponse
	err := c.postJSON("/v1/annotations", req, &resp)
	return resp, err
}

// Locate asks the backend to localise a photo against the model (the
// paper's image-based positioning service).
func (c *Client) Locate(photo camera.Photo) (server.LocateResponse, error) {
	var resp server.LocateResponse
	err := c.postJSONIdempotent("/v1/locate", server.LocateRequest{Photo: server.PhotoToDTO(photo)}, &resp)
	return resp, err
}

// Status fetches backend state.
func (c *Client) Status() (server.StatusResponse, error) {
	var resp server.StatusResponse
	err := c.getJSON("/v1/status", &resp)
	return resp, err
}

// FetchMap downloads the current floor-plan map.
func (c *Client) FetchMap() (server.MapResponse, error) {
	var resp server.MapResponse
	err := c.getJSON("/v1/map", &resp)
	return resp, err
}

// Agent couples the HTTP client with a simulated guided worker: the full
// mobile app. RunWorker drives the task loop until the backend declares
// the venue covered or maxTasks is reached.
type Agent struct {
	Client  *Client
	Worker  *crowd.GuidedWorker
	Venue   *venue.Venue
	WalkMap *grid.Map
	// Workers configures simulated annotation workers (the online tool's
	// crowd).
	Workers annotation.WorkerOptions
	// CrashProb is the per-claim probability that the agent vanishes
	// mid-lease: it claims a task and then neither heartbeats nor uploads,
	// exercising the backend's expiry-and-requeue recovery.
	CrashProb float64
	// Poll is the idle wait between claim attempts when no task is
	// pending (default 50ms).
	Poll time.Duration
	// Think, when set, is sampled once per loop iteration for the pause
	// after a completed task and for idle waits, instead of the fixed
	// Poll. Sampling per iteration (rather than fixing one delay per
	// worker) keeps a fleet's arrival process heavy-tailed the way real
	// participants are, instead of converging to n synchronized loops.
	Think func(rng *rand.Rand) time.Duration
	// MaxIdle bounds consecutive empty claim attempts before RunWorker
	// gives up (default 40).
	MaxIdle int
}

// AgentStats summarises an agent session.
type AgentStats struct {
	PhotoTasks      int
	AnnotationTasks int
	PhotosUploaded  int
	Covered         bool
	// Lease bookkeeping: leases claimed, simulated mid-lease crashes, and
	// leases lost to expiry or conflict before the upload landed.
	Claims     int
	Crashes    int
	LostLeases int
	Duplicates int
	// Sheds counts requests the backend refused with 429 even after the
	// client's Retry-After backoff; the worker pauses and carries on
	// rather than treating backpressure as failure.
	Sheds int
}

// RunWorker is the lease-aware task loop: the agent claims tasks under the
// given registered worker ID, heartbeats while performing them, and uploads
// under the lease. With CrashProb set it sometimes abandons a claim
// mid-lease (no heartbeat, no upload) to exercise the backend's
// expiry-and-requeue path; leases lost to expiry or conflict are counted
// and the loop moves on. The loop ends when the venue is covered, maxTasks
// tasks have been attempted, or MaxIdle consecutive claims found nothing.
func (a *Agent) RunWorker(workerID string, maxTasks int, rng *rand.Rand) (AgentStats, error) {
	var stats AgentStats
	poll := a.Poll
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	maxIdle := a.MaxIdle
	if maxIdle <= 0 {
		maxIdle = 40
	}
	// pause is the inter-iteration wait: a fresh heavy-tail sample each
	// time when Think is set, else the fixed Poll.
	pause := func() time.Duration {
		if a.Think != nil {
			return a.Think(rng)
		}
		return poll
	}
	idle := 0
	for done := 0; done < maxTasks; {
		pos := a.Worker.Pos
		task, ok, err := a.Client.Claim(workerID, &pos)
		if err != nil {
			var apiErr *APIError
			switch {
			case errors.As(err, &apiErr) && apiErr.Status == http.StatusConflict:
				// Incentive budget exhausted: no more paid work for us.
				return stats, nil
			case errors.As(err, &apiErr) && apiErr.Status == http.StatusTooManyRequests:
				// Still shed after the client's own Retry-After retries:
				// back off like an idle worker instead of dying.
				stats.Sheds++
				idle++
				if idle >= maxIdle {
					return stats, nil
				}
				time.Sleep(pause())
				continue
			}
			return stats, err
		}
		if !ok {
			idle++
			if idle >= maxIdle {
				return stats, nil
			}
			time.Sleep(pause())
			continue
		}
		if task.Covered {
			stats.Covered = true
			return stats, nil
		}
		idle = 0
		stats.Claims++
		done++
		if a.CrashProb > 0 && rng.Float64() < a.CrashProb {
			stats.Crashes++ // vanish mid-lease; the backend will requeue
			continue
		}
		if _, err := a.Client.Heartbeat(workerID); err != nil {
			var apiErr *APIError
			if errors.As(err, &apiErr) && apiErr.Status == http.StatusTooManyRequests {
				// A shed heartbeat just risks lease expiry — the lost-lease
				// path below already absorbs that. Keep working.
				stats.Sheds++
			} else {
				return stats, err
			}
		}
		switch task.Kind {
		case taskgen.KindPhoto:
			res, err := a.Worker.DoPhotoTask(a.WalkMap, task.Location, rng)
			if err != nil {
				return stats, err
			}
			resp, err := a.Client.UploadPhotos(task, res.Photos)
			if lost := leaseLost(err); lost {
				stats.LostLeases++
				continue
			} else if err != nil {
				return stats, err
			}
			if resp.Duplicate {
				stats.Duplicates++
				continue
			}
			stats.PhotoTasks++
			stats.PhotosUploaded += len(res.Photos)
		case taskgen.KindAnnotation:
			atask, err := a.Worker.DoAnnotationTask(a.WalkMap, task.aimPoint(), rng)
			if err != nil {
				return stats, err
			}
			anns, err := annotation.SimulateWorkers(atask, a.Venue, a.Workers, rng)
			if err != nil {
				return stats, err
			}
			resp, err := a.Client.UploadAnnotations(task, atask, anns)
			if lost := leaseLost(err); lost {
				stats.LostLeases++
				continue
			} else if err != nil {
				return stats, err
			}
			if resp.Duplicate {
				stats.Duplicates++
				continue
			}
			stats.AnnotationTasks++
			stats.PhotosUploaded += len(atask.Photos)
		}
		if a.Think != nil {
			time.Sleep(a.Think(rng))
		}
	}
	return stats, nil
}

// leaseLost reports whether an upload error means the lease is gone
// (expired and requeued, or granted to someone else) rather than broken.
func leaseLost(err error) bool {
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		return false
	}
	return apiErr.Status == http.StatusGone || apiErr.Status == http.StatusConflict
}
