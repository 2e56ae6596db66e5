// Package dispatch owns SnapTask's task-assignment lifecycle: who is
// working on what, for how long, and what happens when they vanish. The
// paper's Algorithm 1 needs worker identity — a blurry batch means "retry
// the same task with OTHER workers" — but task generation itself is
// stateless about people. This package supplies the missing half:
//
//   - a worker registry (register, heartbeat, per-worker stats),
//   - lease-based claims: a claim hands out a task plus a lease ID and a
//     deadline; heartbeats extend the deadline; uploads must present the
//     lease,
//   - lazy expiry against an injected clock: a lease whose holder stops
//     heartbeating is expired at the next dispatcher operation and its task
//     requeued for other workers, never the one that lost it,
//   - per-task exclusion sets: a worker whose upload was rejected as blurry
//     never receives that task again (paper fidelity),
//   - idempotent, lease-validated completion: a duplicate upload of a
//     completed lease is a no-op, an expired lease is refused, a foreign
//     lease is refused,
//   - optional incentive-aware assignment: when a campaign budget is set
//     and the worker reports a location, the claim picks the pending task
//     with the best reliability-per-cost score (internal/incentive) and
//     reserves the payment until completion.
//
// The dispatcher emits worker_registered / task_claimed / lease_expired /
// task_requeued events into the campaign journal and restores its entire
// state — registry, per-worker counters, active leases, requeue buffer,
// exclusions, budget spend — by folding the journal back (Restore), so a
// server restart reproduces /v1/status byte-identically.
//
// Like the rest of the repo this package is stdlib-only and the clock is
// injected, so every expiry path is deterministic under test.
package dispatch

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"snaptask/internal/events"
	"snaptask/internal/geom"
	"snaptask/internal/incentive"
	"snaptask/internal/taskgen"
	"snaptask/internal/telemetry"
)

// TaskSource is where claims draw fresh tasks from — implemented by
// core.System's pending queue. The dispatcher only calls it while the
// server's owner lock is held, so no synchronisation is required of it.
type TaskSource interface {
	// PendingTasks returns a copy of the pending queue, in issue order.
	PendingTasks() []taskgen.Task
	// TakeTask removes the pending task with the given ID.
	TakeTask(id int) (taskgen.Task, bool)
}

// Config tunes the dispatcher. Zero fields take defaults.
type Config struct {
	// LeaseTTL is how long a claim stays valid without a heartbeat.
	// Defaults to 60s.
	LeaseTTL time.Duration
	// Budget, when positive, enables incentive-aware assignment: claims
	// from located workers pick the best score-per-cost task the remaining
	// budget affords, and completions are paid from the budget.
	Budget float64
	// Now is the clock; defaults to time.Now. Tests inject a fake.
	Now func() time.Time
	// TombstoneCap bounds the completed/expired lease tombstone sets
	// (FIFO eviction). Defaults to 8192. The bound is what keeps
	// checkpoints — and restarts — flat under unbounded lease churn; its
	// cost is that a duplicate upload for a lease finished more than cap
	// leases ago gets ErrUnknownLease instead of the precise verdict.
	TombstoneCap int
}

// WorkerInfo is a registry entry: identity, last reported position and the
// incentive parameters the worker registered with.
type WorkerInfo struct {
	ID          string
	Pos         geom.Vec2
	HasPos      bool
	BaseReward  float64
	PerMetre    float64
	Reliability float64
}

// WorkerCounters are per-worker lifetime stats, part of /v1/status.
type WorkerCounters struct {
	Claims      int     `json:"claims"`
	Completions int     `json:"completions"`
	Expiries    int     `json:"expiries"`
	BlurStrikes int     `json:"blurStrikes"`
	Paid        float64 `json:"paid"`
}

// Lease is a granted claim: present its ID with the upload, keep
// heartbeating to hold it past the deadline.
type Lease struct {
	ID       string
	Worker   string
	TaskID   int
	Deadline time.Time
}

// IncentiveStatus reports budget accounting when incentive assignment is
// enabled.
type IncentiveStatus struct {
	Budget   float64 `json:"budget"`
	Spent    float64 `json:"spent"`
	Reserved float64 `json:"reserved"`
}

// Status is the dispatch section of /v1/status. Everything in it is
// derived from journal-replayable state, so it is byte-identical across a
// restart.
type Status struct {
	Workers        int                       `json:"workers"`
	ActiveLeases   int                       `json:"activeLeases"`
	Claims         int                       `json:"claims"`
	Completions    int                       `json:"completions"`
	Expiries       int                       `json:"expiries"`
	Requeues       int                       `json:"requeues"`
	RequeuedQueued int                       `json:"requeuedQueued"`
	PerWorker      map[string]WorkerCounters `json:"perWorker,omitempty"`
	Incentive      *IncentiveStatus          `json:"incentive,omitempty"`
}

// Sentinel errors; the HTTP layer maps them onto status codes.
var (
	// ErrUnknownWorker: the worker never registered (or the server
	// restarted a journal-less deployment). Register first.
	ErrUnknownWorker = errors.New("dispatch: unknown worker")
	// ErrUnknownLease: the lease ID was never granted.
	ErrUnknownLease = errors.New("dispatch: unknown lease")
	// ErrLeaseExpired: the lease passed its deadline and the task was
	// requeued; the work is gone (410).
	ErrLeaseExpired = errors.New("dispatch: lease expired")
	// ErrForeignLease: the lease belongs to another worker (409).
	ErrForeignLease = errors.New("dispatch: lease held by another worker")
	// ErrNoTask: no pending task is eligible for this worker right now.
	ErrNoTask = errors.New("dispatch: no eligible task")
	// ErrBudgetExhausted: eligible tasks exist but the remaining incentive
	// budget cannot afford this worker's cost for any of them.
	ErrBudgetExhausted = errors.New("dispatch: incentive budget exhausted")
)

type workerState struct {
	info  WorkerInfo
	stats WorkerCounters
	lease string // active lease ID, "" when idle
}

type leaseState struct {
	id       string
	seq      uint64 // grant order, for deterministic expiry sweeps
	worker   string
	task     taskgen.Task
	deadline time.Time
	cost     float64
	pins     int // >0 while an upload validates against this lease
}

// Dispatcher is the assignment state machine. It has its own mutex: the
// registry and heartbeat paths never need the server's owner lock, and the
// claim path takes both (owner lock first) because it pops the task queue.
type Dispatcher struct {
	mu  sync.Mutex
	cfg Config
	log *events.Log
	m   *telemetry.DispatchMetrics

	workers    map[string]*workerState
	leases     map[string]*leaseState
	completed  *tombstones    // lease ID -> worker (duplicate-upload tombstones)
	expired    *tombstones    // lease ID -> worker (gone-forever tombstones)
	buffer     []taskgen.Task // requeued tasks, served before the source queue
	excluded   map[int]map[string]bool
	lastHolder map[int]string // soft exclusion: who just lost the lease

	nextWorker int
	nextLease  int
	leaseSeq   uint64

	claims, completions, expiries, requeues int
	spent, reserved                         float64
}

// New returns a dispatcher with the given configuration.
func New(cfg Config) *Dispatcher {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 60 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.TombstoneCap <= 0 {
		cfg.TombstoneCap = 8192
	}
	return &Dispatcher{
		cfg:        cfg,
		workers:    make(map[string]*workerState),
		leases:     make(map[string]*leaseState),
		completed:  newTombstones(cfg.TombstoneCap),
		expired:    newTombstones(cfg.TombstoneCap),
		excluded:   make(map[int]map[string]bool),
		lastHolder: make(map[int]string),
		m:          telemetry.NewDispatchMetrics(nil),
	}
}

// AttachLog wires the campaign event log (nil-safe, like everywhere else).
// Call before the first operation.
func (d *Dispatcher) AttachLog(l *events.Log) { d.log = l }

// SetMetrics replaces the no-op snaptask_dispatch_* instrument bundle New
// starts with; m must not be nil (build it over a nil registry for none).
func (d *Dispatcher) SetMetrics(m *telemetry.DispatchMetrics) {
	d.m = m
	d.updateGauges()
}

// LeaseTTL returns the configured lease duration.
func (d *Dispatcher) LeaseTTL() time.Duration { return d.cfg.LeaseTTL }

// Register adds a worker to the registry (or refreshes an existing one's
// position and incentive parameters, keeping its stats). An empty ID is
// assigned one. Reliability defaults to 1.
func (d *Dispatcher) Register(info WorkerInfo) (WorkerInfo, error) {
	if info.Reliability == 0 {
		info.Reliability = 1
	}
	p := incentive.Participant{Pos: info.Pos, BaseReward: info.BaseReward,
		PerMetre: info.PerMetre, Reliability: info.Reliability}
	if err := p.Validate(); err != nil {
		return WorkerInfo{}, fmt.Errorf("dispatch: register: %w", err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.expireLocked()
	if info.ID == "" {
		d.nextWorker++
		info.ID = "w" + strconv.Itoa(d.nextWorker)
	} else {
		bumpCounter(&d.nextWorker, info.ID, "w")
	}
	w := d.workers[info.ID]
	if w == nil {
		w = &workerState{}
		d.workers[info.ID] = w
	}
	w.info = info
	d.emit(events.Event{
		Kind:        events.KindWorkerRegistered,
		Worker:      info.ID,
		X:           info.Pos.X,
		Y:           info.Pos.Y,
		HasPos:      info.HasPos,
		BaseReward:  info.BaseReward,
		PerMetre:    info.PerMetre,
		Reliability: info.Reliability,
	})
	d.commit()
	d.updateGauges()
	return info, nil
}

// Heartbeat marks the worker alive and extends its active lease (if any)
// to now+TTL. active is false when the worker holds no lease — either it
// never claimed or the lease already expired (heartbeats that arrive after
// the deadline are too late by design).
func (d *Dispatcher) Heartbeat(workerID string) (deadline time.Time, active bool, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.expireLocked()
	w := d.workers[workerID]
	if w == nil {
		return time.Time{}, false, ErrUnknownWorker
	}
	d.commit() // the expiry sweep above may have journaled
	if w.lease == "" {
		return time.Time{}, false, nil
	}
	ls := d.leases[w.lease]
	ls.deadline = d.cfg.Now().Add(d.cfg.LeaseTTL)
	return ls.deadline, true, nil
}

// Claim grants the worker a lease on a pending task. Requeued tasks are
// served before fresh ones; tasks that exclude the worker (blur history or
// the just-expired holder, while other workers exist) are skipped. With a
// budget and a located worker the eligible task with the best
// reliability-per-cost score is chosen instead of FIFO, and its cost is
// reserved until completion. A worker that already holds a lease gets it
// back (idempotent re-claim, deadline refreshed).
//
// Callers must hold the owner lock protecting src.
func (d *Dispatcher) Claim(workerID string, pos *geom.Vec2, src TaskSource) (taskgen.Task, Lease, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.expireLocked()
	defer d.commit()
	w := d.workers[workerID]
	if w == nil {
		return taskgen.Task{}, Lease{}, ErrUnknownWorker
	}
	if pos != nil {
		w.info.Pos, w.info.HasPos = *pos, true
	}
	if w.lease != "" {
		ls := d.leases[w.lease]
		ls.deadline = d.cfg.Now().Add(d.cfg.LeaseTTL)
		return ls.task, d.leaseDTO(ls), nil
	}

	type candidate struct {
		task   taskgen.Task
		bufIdx int // index into d.buffer, -1 for source-queue tasks
	}
	var cands []candidate
	for i, t := range d.buffer {
		cands = append(cands, candidate{t, i})
	}
	for _, t := range src.PendingTasks() {
		cands = append(cands, candidate{t, -1})
	}

	eligible := cands[:0]
	for _, c := range cands {
		if d.isExcluded(c.task, workerID) {
			continue
		}
		eligible = append(eligible, c)
	}
	if len(eligible) == 0 {
		return taskgen.Task{}, Lease{}, ErrNoTask
	}

	chosen := eligible[0]
	var cost float64
	if d.cfg.Budget > 0 && w.info.HasPos {
		p := incentive.Participant{Pos: w.info.Pos, BaseReward: w.info.BaseReward,
			PerMetre: w.info.PerMetre, Reliability: w.info.Reliability}
		available := d.cfg.Budget - d.spent - d.reserved
		best, bestScore := candidate{}, -1.0
		for _, c := range eligible {
			cc := p.Cost(c.task.Location)
			if cc > available {
				continue
			}
			if s := p.Score(c.task.Location); s > bestScore {
				best, bestScore, cost = c, s, cc
			}
		}
		if bestScore < 0 {
			return taskgen.Task{}, Lease{}, ErrBudgetExhausted
		}
		chosen = best
	}

	if chosen.bufIdx >= 0 {
		d.buffer = append(d.buffer[:chosen.bufIdx], d.buffer[chosen.bufIdx+1:]...)
	} else if _, ok := src.TakeTask(chosen.task.ID); !ok {
		return taskgen.Task{}, Lease{}, ErrNoTask
	}

	d.nextLease++
	d.leaseSeq++
	ls := &leaseState{
		id:       "l" + strconv.Itoa(d.nextLease),
		seq:      d.leaseSeq,
		worker:   workerID,
		task:     chosen.task,
		deadline: d.cfg.Now().Add(d.cfg.LeaseTTL),
		cost:     cost,
	}
	d.leases[ls.id] = ls
	w.lease = ls.id
	w.stats.Claims++
	d.claims++
	d.reserved += cost
	e := taskEvent(events.KindTaskClaimed, ls.task)
	e.Worker = workerID
	e.LeaseID = ls.id
	e.Cost = cost
	d.emit(e)
	d.updateGauges()
	return ls.task, d.leaseDTO(ls), nil
}

// BeginUpload validates that (worker, lease) may complete an upload and
// pins the lease so a concurrent heartbeat-triggered expiry sweep cannot
// take it away mid-processing. dup is true when this lease already
// completed — the caller should treat the upload as an idempotent no-op.
// Every successful (non-dup, nil-error) BeginUpload must be paired with a
// FinishUpload.
func (d *Dispatcher) BeginUpload(workerID, leaseID string) (dup bool, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.expireLocked()
	d.commit()
	if by, ok := d.completed.get(leaseID); ok {
		if by != workerID {
			return false, ErrForeignLease
		}
		return true, nil
	}
	if _, ok := d.expired.get(leaseID); ok {
		return false, ErrLeaseExpired
	}
	ls, ok := d.leases[leaseID]
	if !ok {
		return false, ErrUnknownLease
	}
	if ls.worker != workerID {
		return false, ErrForeignLease
	}
	ls.pins++
	return false, nil
}

// FinishUpload closes a BeginUpload. When the upload processed
// successfully the lease completes: the worker is freed, its completion
// counted, and the reserved incentive cost paid out. On a processing error
// the lease is merely unpinned and stays active so the worker may retry.
func (d *Dispatcher) FinishUpload(workerID, leaseID string, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	ls := d.leases[leaseID]
	if ls == nil {
		return
	}
	ls.pins--
	if !ok {
		return
	}
	delete(d.leases, leaseID)
	d.completed.add(leaseID, workerID)
	d.completions++
	d.spent += ls.cost
	d.reserved -= ls.cost
	if w := d.workers[workerID]; w != nil {
		if w.lease == leaseID {
			w.lease = ""
		}
		w.stats.Completions++
		w.stats.Paid += ls.cost
	}
	d.updateGauges()
}

// NoteBlur records that the worker's upload was rejected as blurry and the
// given (re-issued) task must never be assigned to it again.
func (d *Dispatcher) NoteBlur(workerID string, taskID int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.noteBlurLocked(workerID, taskID)
}

func (d *Dispatcher) noteBlurLocked(workerID string, taskID int) {
	if workerID == "" {
		return
	}
	ex := d.excluded[taskID]
	if ex == nil {
		ex = make(map[string]bool)
		d.excluded[taskID] = ex
	}
	ex[workerID] = true
	if w := d.workers[workerID]; w != nil {
		w.stats.BlurStrikes++
	}
}

// Status returns the dispatch section of /v1/status. It is a pure read —
// expiry stays lazy on mutating operations — so a freshly restored server
// reports exactly the folded journal state.
func (d *Dispatcher) Status() *Status {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := &Status{
		Workers:        len(d.workers),
		ActiveLeases:   len(d.leases),
		Claims:         d.claims,
		Completions:    d.completions,
		Expiries:       d.expiries,
		Requeues:       d.requeues,
		RequeuedQueued: len(d.buffer),
	}
	if len(d.workers) > 0 {
		st.PerWorker = make(map[string]WorkerCounters, len(d.workers))
		for id, w := range d.workers {
			st.PerWorker[id] = w.stats
		}
	}
	if d.cfg.Budget > 0 {
		st.Incentive = &IncentiveStatus{Budget: d.cfg.Budget, Spent: d.spent, Reserved: d.reserved}
	}
	return st
}

// Restore folds one journal event into the dispatcher, mirroring the live
// mutations exactly: replaying the full journal reproduces the registry,
// per-worker counters, requeue buffer, exclusions, budget accounting and
// active leases (re-armed with a fresh TTL from the restore-time clock).
// Call in sequence order before serving traffic; Restore never emits.
func (d *Dispatcher) Restore(e events.Event) {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch e.Kind {
	case events.KindWorkerRegistered:
		w := d.workers[e.Worker]
		if w == nil {
			w = &workerState{}
			d.workers[e.Worker] = w
		}
		w.info = WorkerInfo{ID: e.Worker, Pos: geom.Vec2{X: e.X, Y: e.Y}, HasPos: e.HasPos,
			BaseReward: e.BaseReward, PerMetre: e.PerMetre, Reliability: e.Reliability}
		bumpCounter(&d.nextWorker, e.Worker, "w")
	case events.KindTaskClaimed:
		t := taskFromEvent(e)
		for i := range d.buffer {
			if d.buffer[i].ID == t.ID {
				d.buffer = append(d.buffer[:i], d.buffer[i+1:]...)
				break
			}
		}
		d.leaseSeq++
		d.leases[e.LeaseID] = &leaseState{
			id:       e.LeaseID,
			seq:      d.leaseSeq,
			worker:   e.Worker,
			task:     t,
			deadline: d.cfg.Now().Add(d.cfg.LeaseTTL),
			cost:     e.Cost,
		}
		bumpCounter(&d.nextLease, e.LeaseID, "l")
		if w := d.workers[e.Worker]; w != nil {
			w.lease = e.LeaseID
			w.stats.Claims++
		}
		d.claims++
		d.reserved += e.Cost
	case events.KindLeaseExpired:
		if ls := d.leases[e.LeaseID]; ls != nil {
			delete(d.leases, e.LeaseID)
			d.reserved -= ls.cost
		}
		d.expired.add(e.LeaseID, e.Worker)
		if w := d.workers[e.Worker]; w != nil {
			if w.lease == e.LeaseID {
				w.lease = ""
			}
			w.stats.Expiries++
		}
		d.expiries++
		d.lastHolder[e.TaskID] = e.Worker
	case events.KindTaskRequeued:
		d.buffer = append(d.buffer, taskFromEvent(e))
		d.requeues++
	case events.KindBlurRetry:
		if e.Worker != "" {
			d.noteBlurLocked(e.Worker, e.TaskID)
		}
	case events.KindBatchAccepted, events.KindBatchRejected, events.KindAnnotationDone:
		if e.LeaseID == "" {
			return
		}
		if e.Kind == events.KindBatchRejected && e.Cause == events.CauseError {
			// Live, a pipeline error leaves the lease active for a retry;
			// the fold must not complete it either.
			return
		}
		ls := d.leases[e.LeaseID]
		if ls == nil {
			return
		}
		delete(d.leases, e.LeaseID)
		d.completed.add(e.LeaseID, e.Worker)
		d.completions++
		d.spent += ls.cost
		d.reserved -= ls.cost
		if w := d.workers[e.Worker]; w != nil {
			if w.lease == e.LeaseID {
				w.lease = ""
			}
			w.stats.Completions++
			w.stats.Paid += ls.cost
		}
	}
	d.updateGauges()
}

// isExcluded reports whether the task must not go to the worker: a blur
// strike (hard, forever) or being the holder that just lost the lease
// (soft — skipped when no other worker is registered, so a lone worker is
// not deadlocked out of its own crashed task).
func (d *Dispatcher) isExcluded(t taskgen.Task, workerID string) bool {
	if d.excluded[t.ID][workerID] {
		return true
	}
	for _, ex := range t.Exclude {
		if ex == workerID {
			return true
		}
	}
	if d.lastHolder[t.ID] == workerID && len(d.workers) > 1 {
		return true
	}
	return false
}

// expireLocked lazily expires overdue leases in grant order: each one is
// removed, tombstoned, counted against its worker, journaled and its task
// pushed onto the requeue buffer. Pinned leases (mid-upload) are immune.
func (d *Dispatcher) expireLocked() {
	now := d.cfg.Now()
	var due []*leaseState
	for _, ls := range d.leases {
		if ls.pins == 0 && now.After(ls.deadline) {
			due = append(due, ls)
		}
	}
	sort.Slice(due, func(i, j int) bool { return due[i].seq < due[j].seq })
	for _, ls := range due {
		delete(d.leases, ls.id)
		d.expired.add(ls.id, ls.worker)
		if w := d.workers[ls.worker]; w != nil {
			if w.lease == ls.id {
				w.lease = ""
			}
			w.stats.Expiries++
		}
		d.expiries++
		d.lastHolder[ls.task.ID] = ls.worker
		d.reserved -= ls.cost
		e := taskEvent(events.KindLeaseExpired, ls.task)
		e.Worker = ls.worker
		e.LeaseID = ls.id
		d.emit(e)
		d.buffer = append(d.buffer, ls.task)
		d.requeues++
		d.emit(taskEvent(events.KindTaskRequeued, ls.task))
		d.m.LeaseExpiries.Inc()
		d.m.TaskRequeues.Inc()
	}
	if len(due) > 0 {
		d.updateGauges()
	}
}

func (d *Dispatcher) leaseDTO(ls *leaseState) Lease {
	return Lease{ID: ls.id, Worker: ls.worker, TaskID: ls.task.ID, Deadline: ls.deadline}
}

func (d *Dispatcher) emit(e events.Event) { d.log.Emit(e) }

func (d *Dispatcher) commit() {
	// Commit failures surface through the server's logger on the batch
	// path; dispatch transitions are best-effort durable between batches.
	_ = d.log.Commit()
}

func (d *Dispatcher) updateGauges() {
	d.m.Workers.Set(float64(len(d.workers)))
	d.m.ActiveLeases.Set(float64(len(d.leases)))
}

// taskEvent builds an event carrying the full task payload, enough for
// Restore to reconstruct the task without the queue.
func taskEvent(kind events.Kind, t taskgen.Task) events.Event {
	return events.Event{
		Kind:     kind,
		TaskID:   t.ID,
		TaskKind: t.Kind.String(),
		Retry:    t.Retry,
		X:        t.Location.X,
		Y:        t.Location.Y,
		SeedX:    t.Seed.X,
		SeedY:    t.Seed.Y,
		HasSeed:  t.Seed != (geom.Vec2{}),
	}
}

// taskFromEvent inverts taskEvent. The exclusion list is not carried — the
// dispatcher's excluded map, folded from blur_retry events, covers it.
func taskFromEvent(e events.Event) taskgen.Task {
	t := taskgen.Task{
		ID:       e.TaskID,
		Location: geom.Vec2{X: e.X, Y: e.Y},
		Retry:    e.Retry,
	}
	if e.HasSeed {
		t.Seed = geom.Vec2{X: e.SeedX, Y: e.SeedY}
	}
	switch e.TaskKind {
	case "annotation":
		t.Kind = taskgen.KindAnnotation
	default:
		t.Kind = taskgen.KindPhoto
	}
	return t
}

// bumpCounter keeps an ID counter monotonic across restores: when id is
// prefix+digits and the number exceeds the counter, the counter jumps.
func bumpCounter(counter *int, id, prefix string) {
	rest, ok := strings.CutPrefix(id, prefix)
	if !ok {
		return
	}
	if n, err := strconv.Atoi(rest); err == nil && n > *counter {
		*counter = n
	}
}
