// Package campaign is the multi-campaign manager: it hosts N concurrent
// venue campaigns inside one server process, each campaign owning its own
// core.System, owner lock, events journal, dispatch registry and atomic
// read snapshot — so uploads to campaign A never contend with campaign B.
//
// Sharding model: a campaign is one fully wired server.Server. The manager
// routes /v1/campaigns/{id}/... to the owning campaign's mux by rewriting
// the path, keeps the legacy single-campaign routes as aliases to a
// default campaign, and adds two cross-campaign surfaces of its own:
// lifecycle endpoints (create/list/archive, journaled in a manifest and
// restored on restart) and rollups on /v1/status and /metrics
// (per-campaign labels on the existing families via telemetry.Registry
// const-label views, plus aggregate gauges).
//
// Persistence layout under the manager's journal root:
//
//	<root>/                    default campaign's checkpointing store
//	<root>/model.snap          default campaign's model (written at Checkpoint)
//	<root>/campaigns.json      manifest of named campaigns
//	<root>/campaigns/<id>/     named campaign's checkpointing store
//	<root>/campaigns/<id>/model.snap
//
// The default campaign keeps the legacy single-campaign layout, so a
// pre-multi-campaign journal directory restarts unchanged.
package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"snaptask/internal/camera"
	"snaptask/internal/core"
	"snaptask/internal/dispatch"
	"snaptask/internal/events"
	"snaptask/internal/server"
	"snaptask/internal/telemetry"
	"snaptask/internal/venue"
)

// DefaultID is the campaign the legacy single-campaign routes alias to.
const DefaultID = "default"

// Spec describes one campaign: the deterministic world parameters every
// agent must share to observe the same venue. It is both the create-API
// request body and the manifest entry restored on restart.
type Spec struct {
	ID    string `json:"id"`
	Venue string `json:"venue"`
	Seed  int64  `json:"seed"`
	// Margin is the map margin beyond the venue bounds in metres
	// (<=0 takes the server default of 12).
	Margin float64 `json:"margin,omitempty"`
	// Archived is manifest state only: archived campaigns stay listable
	// and readable but reject mutations.
	Archived bool `json:"archived,omitempty"`
}

// withDefaults fills the server default margin.
func (s Spec) withDefaults() Spec {
	if s.Margin <= 0 {
		s.Margin = 12
	}
	return s
}

// ManagerConfig carries the per-campaign wiring templates: every campaign
// gets its own journal directory, dispatcher, admission instance and SLO
// tracker (served at /v1/campaigns/{id}/slo) cut from these shared
// settings.
type ManagerConfig struct {
	// JournalRoot is the checkpointing store root ("" = campaigns are
	// ephemeral: live events and progress, no durability, no manifest).
	JournalRoot     string
	SegmentMaxBytes int64
	Checkpoint      events.CheckpointPolicy
	// Admission is instantiated per campaign — each venue gets its own
	// bounded owner queue and token buckets, so one venue's overload sheds
	// only that venue's traffic. The zero config admits everything.
	Admission server.AdmissionConfig
	// LeaseTTL and IncentiveBudget configure every campaign's dispatcher
	// (zero keeps the dispatch defaults: a 60 s lease, no budget).
	LeaseTTL        time.Duration
	IncentiveBudget float64
	// Telemetry is the root bundle (nil for none; NewManager resolves it).
	// Campaigns observe through Registry.WithConstLabels("campaign", id)
	// views, so every existing family gains a campaign label while
	// sharing one exposition.
	Telemetry *telemetry.Telemetry
	// Watchdog, when non-nil, probes the busiest owner path across all
	// campaigns and ticks every campaign's SLO evaluator.
	Watchdog *telemetry.Watchdog
}

// Campaign is one hosted venue campaign: a fully wired server plus the
// manager-level lifecycle state around it.
type Campaign struct {
	spec      Spec
	isDefault bool
	srv       *server.Server
	sys       *core.System
	log       *events.Log
	archived  atomic.Bool

	// modelSaved reports that the campaign's model.snap holds the model as
	// of log seq modelSeq: it was read from that file or last written to
	// it then. Every model mutation emits an event, so while the log's
	// seq stays at modelSeq the file needs no rewrite. Read and written
	// only under the server's owner lock (inside CheckpointState).
	modelSaved bool
	modelSeq   uint64
}

// ID returns the campaign identifier.
func (c *Campaign) ID() string { return c.spec.ID }

// Server returns the campaign's underlying server (tests drive owner-path
// blocking and snapshots through it).
func (c *Campaign) Server() *server.Server { return c.srv }

// Log returns the campaign's event log (the CLI logs replay stats from it).
func (c *Campaign) Log() *events.Log { return c.log }

// Archived reports whether the campaign has been archived.
func (c *Campaign) Archived() bool { return c.archived.Load() }

// Manager hosts the campaigns and the cross-campaign surfaces.
type Manager struct {
	cfg ManagerConfig
	mux *http.ServeMux
	cm  *telemetry.CampaignMetrics
	// shed counts requests the manager itself rejects, under an empty
	// campaign label: no campaign owns them.
	shed *telemetry.CounterVec

	mu        sync.Mutex
	campaigns map[string]*Campaign
	order     []string // creation order, default first when present
}

// NewManager builds a manager, restoring every named campaign recorded in
// the journal root's manifest (each campaign replays its own journal and
// reloads its model snapshot). Install the default campaign afterwards
// with CreateDefault.
func NewManager(cfg ManagerConfig) (*Manager, error) {
	tel := cfg.Telemetry.Resolve()
	cfg.Telemetry = &tel
	m := &Manager{
		cfg:       cfg,
		mux:       http.NewServeMux(),
		campaigns: make(map[string]*Campaign),
	}
	reg := tel.Registry
	m.cm = telemetry.NewCampaignMetrics(reg)
	m.shed = telemetry.NewShedCounter(reg.WithConstLabels("campaign", ""))
	telemetry.RegisterCampaignRollups(reg, m.totalPendingTasks, m.coveredCampaigns)
	m.routes()
	cfg.Watchdog.SetOwnerBusy(m.maxOwnerBusy)

	if cfg.JournalRoot != "" {
		mf, err := loadManifest(manifestPath(cfg.JournalRoot))
		if err != nil {
			return nil, err
		}
		if err := m.restore(mf.Campaigns); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// restore rebuilds the manifest's campaigns. Their models load side by
// side, one loadCampaign each; wiring them (journal replay, server and
// watchdog hooks) stays serial and in manifest order, because the
// watchdog's probe and hook registration are not synchronised. The
// manifest is left untouched: a restore changes no lifecycle state.
func (m *Manager) restore(specs []Spec) error {
	systems := make([]*core.System, len(specs))
	loaded := make([]bool, len(specs))
	errs := make([]error, len(specs))
	parallel(len(specs), func(i int) {
		if errs[i] = validateID(specs[i].ID); errs[i] == nil {
			systems[i], loaded[i], errs[i] = m.loadCampaign(specs[i], false)
		}
	})
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, spec := range specs {
		err := errs[i]
		if _, dup := m.campaigns[spec.ID]; dup && err == nil {
			err = fmt.Errorf("campaign: %w: %q", ErrExists, spec.ID)
		}
		if err != nil {
			return fmt.Errorf("restore campaign %q: %w", spec.ID, err)
		}
		c, err := m.build(spec, systems[i], loaded[i], false)
		if err != nil {
			return fmt.Errorf("restore campaign %q: %w", spec.ID, err)
		}
		m.insertLocked(c)
	}
	return nil
}

// parallel calls fn(0), …, fn(n-1) on at most runtime.GOMAXPROCS(0)
// goroutines and returns when every call has.
func parallel(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// ServeHTTP routes to lifecycle endpoints, campaign-scoped delegates or
// the default-campaign aliases.
func (m *Manager) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	m.mux.ServeHTTP(w, r)
}

// CreateDefault installs the default campaign the legacy single-campaign
// routes alias to. Its journal lives at the manager's journal root itself,
// preserving the pre-multi-campaign layout. sys, when non-nil, is a pre-built or
// pre-loaded model (the CLI's -load path); otherwise the model is restored
// from <root>/model.snap when present, or built fresh from the spec.
func (m *Manager) CreateDefault(spec Spec, sys *core.System) (*Campaign, error) {
	spec.ID = DefaultID
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.campaigns[DefaultID]; ok {
		return nil, fmt.Errorf("campaign: default campaign already installed")
	}
	c, err := m.build(spec, sys, false, true)
	if err != nil {
		return nil, err
	}
	m.insertLocked(c)
	// Default first in listing order regardless of manifest restores.
	m.order = append([]string{DefaultID}, m.order[:len(m.order)-1]...)
	return c, nil
}

// Create builds, registers and journals a named campaign.
func (m *Manager) Create(spec Spec) (*Campaign, error) {
	return m.create(spec, nil)
}

// CreateWith is Create with a pre-built system — benches and tests clone a
// covered model into several campaigns without re-ingesting per campaign.
func (m *Manager) CreateWith(spec Spec, sys *core.System) (*Campaign, error) {
	return m.create(spec, sys)
}

func (m *Manager) create(spec Spec, sys *core.System) (*Campaign, error) {
	if err := validateID(spec.ID); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.campaigns[spec.ID]; ok {
		return nil, fmt.Errorf("campaign: %w: %q", ErrExists, spec.ID)
	}
	c, err := m.build(spec, sys, false, false)
	if err != nil {
		return nil, err
	}
	m.insertLocked(c)
	if err := m.saveManifestLocked(); err != nil {
		return nil, err
	}
	return c, nil
}

// loadCampaign builds a campaign's model: venue and feature world from the
// spec, then the campaign's model snapshot when it is journaled and has
// one (fromSnap), else a fresh system. It reads no mutable manager state,
// so restores run it for several campaigns at once.
func (m *Manager) loadCampaign(spec Spec, isDefault bool) (sys *core.System, fromSnap bool, err error) {
	spec = spec.withDefaults()
	v, err := venue.ByName(spec.Venue, spec.Seed)
	if err != nil {
		return nil, false, err
	}
	world := camera.NewWorld(v, v.GenerateFeatures(rand.New(rand.NewSource(spec.Seed))))
	if m.cfg.JournalRoot != "" {
		sys, err := loadModelSnap(m.modelPath(spec.ID, isDefault), v, world)
		if err != nil || sys != nil {
			return sys, sys != nil, err
		}
	}
	sys, err = core.NewSystem(v, world, core.Config{Margin: spec.Margin})
	return sys, false, err
}

// build wires one campaign around its model (loaded by loadCampaign when
// sys is nil; fromSnap marks a sys the caller read from the campaign's
// model.snap): a telemetry view labelled with the campaign ID, its own
// journal (replayed inside server.New), dispatcher, admission instance and
// SLO tracker. Caller holds m.mu.
func (m *Manager) build(spec Spec, sys *core.System, fromSnap, isDefault bool) (*Campaign, error) {
	spec = spec.withDefaults()
	var err error
	if sys == nil {
		if sys, fromSnap, err = m.loadCampaign(spec, isDefault); err != nil {
			return nil, err
		}
	} else if _, err = venue.ByName(spec.Venue, spec.Seed); err != nil {
		return nil, err
	}

	reg := m.cfg.Telemetry.Registry.WithConstLabels("campaign", spec.ID)
	tel := &telemetry.Telemetry{Registry: reg, Tracer: m.cfg.Telemetry.Tracer,
		Logger: m.cfg.Telemetry.Logger.With("campaign", spec.ID)}

	var log *events.Log
	em := telemetry.NewEventMetrics(reg)
	if m.cfg.JournalRoot != "" {
		dir := m.cfg.JournalRoot
		if !isDefault {
			dir = campaignDir(m.cfg.JournalRoot, spec.ID)
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, err
			}
		}
		log, err = events.OpenDir(dir, em,
			events.DirStoreOptions{SegmentMaxBytes: m.cfg.SegmentMaxBytes}, m.cfg.Checkpoint)
		if err != nil {
			return nil, err
		}
	} else {
		log = events.NewLog(em)
	}
	log.SetCampaignID(spec.ID)
	sys.SetTelemetry(tel)

	opts := []server.Option{
		server.WithEvents(log),
		server.WithDispatch(dispatch.New(dispatch.Config{
			LeaseTTL: m.cfg.LeaseTTL,
			Budget:   m.cfg.IncentiveBudget,
		})),
		server.WithAdmission(m.cfg.Admission),
		// The shared watchdog ticks each campaign's SLO evaluator and
		// captures profiles on fast burns (wired inside server.New).
		server.WithWatchdog(m.cfg.Watchdog),
		server.WithTelemetry(tel),
	}
	srv, err := server.New(sys, rand.New(rand.NewSource(spec.Seed+1)), opts...)
	if err != nil {
		_ = log.Close()
		return nil, err
	}
	// server.New points the watchdog's owner-busy probe at this one server;
	// restore the cross-campaign probe (longest-held owner lock anywhere).
	m.cfg.Watchdog.SetOwnerBusy(m.maxOwnerBusy)

	c := &Campaign{spec: spec, isDefault: isDefault, srv: srv, sys: sys, log: log,
		modelSaved: fromSnap, modelSeq: log.LastSeq()}
	c.archived.Store(spec.Archived)
	return c, nil
}

// insertLocked registers a built campaign and refreshes the lifecycle
// gauges. Caller holds m.mu.
func (m *Manager) insertLocked(c *Campaign) {
	m.campaigns[c.spec.ID] = c
	m.order = append(m.order, c.spec.ID)
	m.refreshGaugesLocked()
}

func (m *Manager) refreshGaugesLocked() {
	active, archived := 0, 0
	for _, c := range m.campaigns {
		if c.Archived() {
			archived++
		} else {
			active++
		}
	}
	m.cm.Active.Set(float64(active))
	m.cm.Archived.Set(float64(archived))
}

// Archive marks a campaign archived (idempotently), persists the manifest,
// and — when journaled — writes a final checkpoint plus model snapshot so
// a restart restores it without replay. Archived campaigns stay readable
// but reject mutations.
func (m *Manager) Archive(id string) (*Campaign, error) {
	m.mu.Lock()
	c, ok := m.campaigns[id]
	if !ok {
		m.mu.Unlock()
		return nil, fmt.Errorf("campaign: %w: %q", ErrNotFound, id)
	}
	if c.isDefault {
		m.mu.Unlock()
		return nil, fmt.Errorf("campaign: %w: the default campaign cannot be archived", ErrBadID)
	}
	already := c.archived.Swap(true)
	m.refreshGaugesLocked()
	var err error
	if !already {
		err = m.saveManifestLocked()
	}
	m.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if !already {
		if cerr := m.checkpointCampaign(c); cerr != nil {
			return nil, cerr
		}
	}
	return c, nil
}

// Get returns a campaign by ID (nil when unknown).
func (m *Manager) Get(id string) *Campaign {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.campaigns[id]
}

// Default returns the default campaign (nil when not installed).
func (m *Manager) Default() *Campaign { return m.Get(DefaultID) }

// List returns every campaign in creation order (default first).
func (m *Manager) List() []*Campaign {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Campaign, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.campaigns[id])
	}
	return out
}

// Checkpoint persists every journaled campaign: an event-log checkpoint
// and the model snapshot, captured under one owner-lock acquisition per
// campaign. The shutdown path calls it so the next start replays (almost)
// no tail and restores each model byte-identically. A model.snap that
// already holds the current model (no event since it was read or written)
// is left alone. Campaigns checkpoint side by side; every one is
// attempted, and the first error in campaign order is returned.
func (m *Manager) Checkpoint() error {
	cs := m.List()
	errs := make([]error, len(cs))
	parallel(len(cs), func(i int) { errs[i] = m.checkpointCampaign(cs[i]) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// checkpointCampaign is a no-op for an ephemeral manager: its campaigns'
// logs have no store to checkpoint into and no model file.
func (m *Manager) checkpointCampaign(c *Campaign) error {
	if m.cfg.JournalRoot == "" {
		return nil
	}
	path := m.modelPath(c.spec.ID, c.isDefault)
	return c.srv.CheckpointState(func(seq uint64) error {
		if c.modelSaved && c.modelSeq == seq {
			return nil
		}
		if err := events.WriteFileAtomic(path, c.sys.WriteSnapshot); err != nil {
			return err
		}
		c.modelSaved, c.modelSeq = true, seq
		return nil
	})
}

// Close closes every campaign's journal.
func (m *Manager) Close() error {
	var firstErr error
	for _, c := range m.List() {
		if err := c.log.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// maxOwnerBusy is the watchdog probe: the longest-held owner lock across
// all campaigns (a stall in any campaign is a stall worth profiling).
func (m *Manager) maxOwnerBusy() time.Duration {
	var max time.Duration
	for _, c := range m.List() {
		if d := c.srv.OwnerBusy(); d > max {
			max = d
		}
	}
	return max
}

// totalPendingTasks is the scrape-time rollup: pending tasks summed over
// live campaigns.
func (m *Manager) totalPendingTasks() float64 {
	var sum float64
	for _, c := range m.List() {
		if c.Archived() {
			continue
		}
		if snap := c.srv.Snapshot(); snap != nil {
			sum += float64(snap.Status.PendingTasks)
		}
	}
	return sum
}

// coveredCampaigns counts live campaigns whose venue is fully covered.
func (m *Manager) coveredCampaigns() float64 {
	var n float64
	for _, c := range m.List() {
		if c.Archived() {
			continue
		}
		if snap := c.srv.Snapshot(); snap != nil && snap.Status.Covered {
			n++
		}
	}
	return n
}

// Rollup is the cross-campaign status row: the per-campaign summary on
// GET /v1/campaigns and the campaigns section of GET /v1/status.
type Rollup struct {
	ID              string `json:"id"`
	Venue           string `json:"venue"`
	Seed            int64  `json:"seed"`
	Archived        bool   `json:"archived,omitempty"`
	Covered         bool   `json:"covered"`
	Views           int    `json:"views"`
	Points          int    `json:"points"`
	PhotosProcessed int    `json:"photosProcessed"`
	PendingTasks    int    `json:"pendingTasks"`
}

func (m *Manager) rollup(c *Campaign) Rollup {
	r := Rollup{ID: c.spec.ID, Venue: c.spec.Venue, Seed: c.spec.Seed, Archived: c.Archived()}
	if snap := c.srv.Snapshot(); snap != nil {
		st := snap.Status
		r.Covered = st.Covered
		r.Views = st.Views
		r.Points = st.Points
		r.PhotosProcessed = st.PhotosProcessed
		r.PendingTasks = st.PendingTasks
	}
	return r
}

// Manifest persistence.

type manifest struct {
	Campaigns []Spec `json:"campaigns"`
}

func manifestPath(root string) string { return filepath.Join(root, "campaigns.json") }

func campaignDir(root, id string) string { return filepath.Join(root, "campaigns", id) }

func (m *Manager) modelPath(id string, isDefault bool) string {
	if isDefault {
		return filepath.Join(m.cfg.JournalRoot, "model.snap")
	}
	return filepath.Join(campaignDir(m.cfg.JournalRoot, id), "model.snap")
}

func loadManifest(path string) (manifest, error) {
	var mf manifest
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return mf, nil
	}
	if err != nil {
		return mf, err
	}
	if err := json.Unmarshal(data, &mf); err != nil {
		return mf, fmt.Errorf("campaign: corrupt manifest %s: %w", path, err)
	}
	return mf, nil
}

// saveManifestLocked writes the named-campaign manifest atomically (the
// default campaign is implied by the server's own flags, not recorded).
// Caller holds m.mu.
func (m *Manager) saveManifestLocked() error {
	if m.cfg.JournalRoot == "" {
		return nil
	}
	var mf manifest
	for _, id := range m.order {
		c := m.campaigns[id]
		if c.isDefault {
			continue
		}
		sp := c.spec
		sp.Archived = c.Archived()
		mf.Campaigns = append(mf.Campaigns, sp)
	}
	sort.Slice(mf.Campaigns, func(i, j int) bool { return mf.Campaigns[i].ID < mf.Campaigns[j].ID })
	return events.WriteFileAtomic(manifestPath(m.cfg.JournalRoot), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(mf)
	})
}

// loadModelSnap restores a campaign model from its snapshot file; a
// missing file returns (nil, nil) so the caller builds a fresh system.
func loadModelSnap(path string, v *venue.Venue, world *camera.World) (*core.System, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sys, err := core.LoadSystem(f, v, world)
	if err != nil {
		return nil, fmt.Errorf("campaign: load model snapshot %s: %w", path, err)
	}
	return sys, nil
}

// validateID enforces filesystem- and URL-safe campaign IDs.
func validateID(id string) error {
	if id == "" || len(id) > 64 {
		return fmt.Errorf("campaign: %w: id must be 1-64 characters", ErrBadID)
	}
	if id == DefaultID {
		return fmt.Errorf("campaign: %w: %q is reserved", ErrBadID, DefaultID)
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_':
		default:
			return fmt.Errorf("campaign: %w: %q (use [a-z0-9_-])", ErrBadID, id)
		}
	}
	return nil
}
