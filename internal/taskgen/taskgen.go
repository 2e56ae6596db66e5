// Package taskgen implements SnapTask's task-generation algorithms — the
// paper's primary contribution. Algorithm 4 (findUnvisited) flood-fills the
// current model coverage from the initial position looking for free areas
// seen by fewer than COVERED_VIEW_TOLERANCE cameras and at least
// MIN_AREA_SIZE large; Algorithm 1 wraps it in the full decision workflow:
// grow → search for unvisited areas → issue photo tasks, or, when a
// location stays unproductive despite sharp photos, escalate to a
// featureless-surface annotation task.
package taskgen

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"snaptask/internal/geom"
	"snaptask/internal/grid"
)

// Kind distinguishes the two task types SnapTask issues.
type Kind int

const (
	// KindPhoto asks a participant to perform a 360° photo sweep at the
	// task location.
	KindPhoto Kind = iota + 1
	// KindAnnotation asks for photos of a featureless surface plus
	// online corner annotations.
	KindAnnotation
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindPhoto:
		return "photo"
	case KindAnnotation:
		return "annotation"
	default:
		return "unknown"
	}
}

// Task is one crowdsourcing assignment.
type Task struct {
	ID       int
	Kind     Kind
	Location geom.Vec2
	// Seed is the discovery-frontier point of the unvisited area that
	// produced the task — the cell where the coverage search first
	// crossed into the area. For areas beyond a glass wall the seed sits
	// right at the gap, which is where an annotation task must aim.
	Seed geom.Vec2
	// Retry counts how many times this location has been re-issued.
	Retry int
	// Exclude lists workers that must not receive this task: participants
	// whose blurry uploads caused it to be re-issued. Algorithm 1 retries
	// blurry spots "with other workers" — this carries the "other".
	Exclude []string
}

// AimPoint returns where a worker should direct the capture: the discovery
// seed when known, the task location otherwise.
func (t Task) AimPoint() geom.Vec2 {
	if t.Seed != (geom.Vec2{}) {
		return t.Seed
	}
	return t.Location
}

// Config tunes the generator. Zero fields take the paper's values.
type Config struct {
	// CoveredViewTolerance: a cell is unvisited when fewer camera views
	// cover it (3 in the paper — the SfM pipeline needs 3 observations).
	CoveredViewTolerance int
	// MinAreaSize is the smallest unvisited area worth a task, in m²
	// (2.25 m² in the paper).
	MinAreaSize float64
	// MaxTasks bounds how many tasks one iteration may generate
	// (MAX_TASKS; the paper issues 1 at a time per participant).
	MaxTasks int
	// TT is how many unproductive high-quality attempts a location gets
	// before escalating to an annotation task (2 in the paper).
	TT int
	// LowQualitySharpness is the Laplacian-variance threshold below
	// which a batch counts as blurry input.
	LowQualitySharpness float64
	// GiveUpAfter is how many annotation escalations a location bucket
	// gets before the generator stops issuing tasks there. The paper's
	// pipeline similarly leaves spots it cannot improve uncovered
	// ("other white areas show spots that were too small"). Defaults
	// to 2.
	GiveUpAfter int
}

func (c Config) withDefaults() Config {
	if c.CoveredViewTolerance == 0 {
		c.CoveredViewTolerance = 3
	}
	if c.MinAreaSize == 0 {
		c.MinAreaSize = 2.25
	}
	if c.MaxTasks == 0 {
		c.MaxTasks = 1
	}
	if c.TT == 0 {
		c.TT = 2
	}
	if c.LowQualitySharpness == 0 {
		c.LowQualitySharpness = 150
	}
	if c.GiveUpAfter == 0 {
		c.GiveUpAfter = 2
	}
	return c
}

// retryQuantum is the size (metres) of the location buckets used for retry
// counting: successive tasks within the same bucket count toward the same
// TT escalation even when map noise shifts the exact task cell slightly.
// The bucket is about one annotation window wide, so one escalate-and-seal
// cycle handles one bucket.
const retryQuantum = 3.0

// Generator is the Algorithm 1 state machine. It tracks per-location retry
// counts across iterations. Not safe for concurrent use.
type Generator struct {
	cfg    Config
	nextID int
	tried  map[grid.Cell]int
	// escalations counts annotation escalations per retry bucket; buckets
	// at GiveUpAfter are exhausted and no longer receive tasks.
	escalations map[grid.Cell]int
	// blurred lists, per retry bucket, the workers whose uploads there
	// were rejected as blurry; re-issued tasks exclude them.
	blurred map[grid.Cell][]string
}

// retryKey buckets a location for retry counting.
func retryKey(loc geom.Vec2) grid.Cell {
	return grid.Cell{
		I: int(math.Floor(loc.X / retryQuantum)),
		J: int(math.Floor(loc.Y / retryQuantum)),
	}
}

// NewGenerator returns a generator with the given configuration.
func NewGenerator(cfg Config) *Generator {
	return &Generator{
		cfg:         cfg.withDefaults(),
		tried:       make(map[grid.Cell]int),
		escalations: make(map[grid.Cell]int),
		blurred:     make(map[grid.Cell][]string),
	}
}

// Config returns the generator's resolved configuration.
func (g *Generator) Config() Config { return g.cfg }

// StepInput carries the state Algorithm 1 inspects after a batch of photos
// has been processed.
type StepInput struct {
	// Obstacles and Visibility are the current maps (Algorithms 2–3
	// output) sharing one layout.
	Obstacles, Visibility *grid.Map
	// Start is the flood-fill origin — the venue's initial position.
	Start geom.Vec2
	// BatchRegistered reports whether the uploaded photos entered the
	// model (Algorithm 1's "P ∈ Mf").
	BatchRegistered bool
	// CoverageIncreased reports whether model coverage grew.
	CoverageIncreased bool
	// BatchSharpness is the batch's photo quality (variance of the
	// Laplacian; the minimum over the batch is the conservative choice).
	BatchSharpness float64
	// TaskLocation is the location L of the task that produced the batch.
	TaskLocation geom.Vec2
	// Bootstrap marks the initial model-building call, which has no
	// preceding task; failure handling is skipped.
	Bootstrap bool
	// AnnotationFailed marks that an annotation task at TaskLocation
	// identified nothing to annotate; the generator gives up on the spot
	// immediately instead of burning further attempts.
	AnnotationFailed bool
	// TaskSeed is the discovery seed of the task that produced this
	// batch, propagated to retries and escalations.
	TaskSeed geom.Vec2
	// WorkerID identifies the participant whose upload is being judged.
	// On a blur rejection the worker joins the location's exclusion set so
	// the re-issued task goes to other participants. Empty (anonymous
	// uploads) records nothing.
	WorkerID string
}

// StepOutput is Algorithm 1's result.
type StepOutput struct {
	// Tasks to issue next (empty when the venue is covered or a retry is
	// pending elsewhere).
	Tasks []Task
	// VenueCovered is true when no unvisited areas remain.
	VenueCovered bool
	// EscalatedToAnnotation is true when a photo task was converted into
	// an annotation task at the same location.
	EscalatedToAnnotation bool
	// RetriedForBlur is true when the batch was rejected as blurry input
	// and the same task was re-issued without counting a TT strike.
	RetriedForBlur bool
}

// Step runs one iteration of Algorithm 1 (lines 6–20: the task-decision
// part; callers run reconstruction and map building first).
func (g *Generator) Step(in StepInput) (StepOutput, error) {
	if in.Obstacles == nil || in.Visibility == nil {
		return StepOutput{}, fmt.Errorf("taskgen: nil maps")
	}
	if !in.Obstacles.SameLayout(in.Visibility) {
		return StepOutput{}, fmt.Errorf("taskgen: obstacle and visibility layouts differ")
	}

	if in.BatchRegistered && in.CoverageIncreased || in.Bootstrap {
		return g.searchTasks(in), nil
	}

	// Failure handling (lines 13–19). Retry accounting keys on the
	// discovery seed so photo retries and annotation escalations at the
	// same gap share one counter.
	keyLoc := in.TaskSeed
	if keyLoc == (geom.Vec2{}) {
		keyLoc = in.TaskLocation
	}
	key := retryKey(keyLoc)
	if in.AnnotationFailed {
		g.escalations[key] = g.cfg.GiveUpAfter
	}
	if g.escalations[key] >= g.cfg.GiveUpAfter {
		// This spot has already burned its annotation attempts; move on
		// to the next unvisited area instead of cycling forever.
		return g.searchTasks(in), nil
	}
	if in.BatchSharpness <= g.cfg.LowQualitySharpness {
		// Blurry input: re-issue the same task to other participants
		// without counting an attempt. The offending worker joins the
		// bucket's exclusion set so "other" is enforceable downstream.
		if in.WorkerID != "" && !contains(g.blurred[key], in.WorkerID) {
			g.blurred[key] = append(g.blurred[key], in.WorkerID)
		}
		g.nextID++
		return StepOutput{
			Tasks: []Task{{
				ID:       g.nextID,
				Kind:     KindPhoto,
				Location: in.TaskLocation,
				Seed:     in.TaskSeed,
				Retry:    g.tried[key],
				Exclude:  append([]string(nil), g.blurred[key]...),
			}},
			RetriedForBlur: true,
		}, nil
	}
	g.tried[key]++
	if g.tried[key] > g.cfg.TT {
		// Sharp photos kept failing here: a featureless surface.
		g.tried[key] = 0
		g.escalations[key]++
		g.nextID++
		return StepOutput{
			Tasks: []Task{{
				ID:       g.nextID,
				Kind:     KindAnnotation,
				Location: in.TaskLocation,
				Seed:     in.TaskSeed,
			}},
			EscalatedToAnnotation: true,
		}, nil
	}
	g.nextID++
	return StepOutput{Tasks: []Task{{
		ID:       g.nextID,
		Kind:     KindPhoto,
		Location: in.TaskLocation,
		Seed:     in.TaskSeed,
		Retry:    g.tried[key],
	}}}, nil
}

// contains reports whether list holds s.
func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// searchTasks runs the unvisited-area search and converts surviving areas
// into photo tasks, skipping locations the generator has given up on. An
// empty result declares the venue covered.
func (g *Generator) searchTasks(in StepInput) StepOutput {
	// Search for a few extra areas so exhausted buckets can be skipped
	// without re-running the flood fill.
	areas := FindUnvisited(in.Obstacles, in.Visibility, in.Start, g.cfg, g.cfg.MaxTasks+8)
	var out StepOutput
	for _, a := range areas {
		loc := in.Obstacles.CenterOf(a.Center())
		seed := loc
		if len(a.Cells) > 0 {
			seed = in.Obstacles.CenterOf(a.Cells[0])
		}
		if g.escalations[retryKey(seed)] >= g.cfg.GiveUpAfter {
			continue // the system has given up on this gap
		}
		g.nextID++
		out.Tasks = append(out.Tasks, Task{
			ID:       g.nextID,
			Kind:     KindPhoto,
			Location: loc,
			Seed:     seed,
		})
		if len(out.Tasks) >= g.cfg.MaxTasks {
			break
		}
	}
	if len(out.Tasks) == 0 {
		out.VenueCovered = true
	}
	return out
}

// FindUnvisited implements Algorithm 4: starting from the initial position
// it breadth-first searches the non-obstacle space for cells covered by
// fewer than CoveredViewTolerance camera views, expands each seed into a
// region, and returns up to maxAreas regions of at least MinAreaSize.
func FindUnvisited(obstacles, visibility *grid.Map, start geom.Vec2, cfg Config, maxAreas int) []grid.Region {
	cfg = cfg.withDefaults()
	if maxAreas <= 0 {
		maxAreas = cfg.MaxTasks
	}
	minCells := int(cfg.MinAreaSize / obstacles.CellArea())
	if minCells < 1 {
		minCells = 1
	}

	free := func(c grid.Cell) bool { return obstacles.At(c) == 0 }
	unvisited := func(c grid.Cell) bool {
		return free(c) && visibility.At(c) < cfg.CoveredViewTolerance
	}

	var found []grid.Region
	expanded := make(map[grid.Cell]bool)
	startCell := obstacles.CellOf(start)
	if !obstacles.InBounds(startCell) || !free(startCell) {
		return nil
	}

	// BFS over traversable space; each unvisited cell encountered seeds a
	// region expansion (the expand() of Algorithm 4). The limit is a few
	// times MIN_AREA_SIZE: enough to absorb a typical pocket in one
	// region while keeping the centre near the discovery frontier.
	limit := 4 * minCells
	seen := map[grid.Cell]bool{startCell: true}
	queue := []grid.Cell{startCell}
	for len(queue) > 0 && len(found) < maxAreas {
		q := queue[0]
		queue = queue[1:]
		if unvisited(q) && !expanded[q] {
			region := grid.ExpandRegion(obstacles, q, limit, unvisited, expanded)
			if region.Size() >= minCells {
				found = append(found, region)
			}
		}
		for _, n := range q.Neighbors4() {
			if !obstacles.InBounds(n) || seen[n] || !free(n) {
				continue
			}
			seen[n] = true
			queue = append(queue, n)
		}
	}
	return found
}

// Snapshot is the Generator's serialisable state.
type Snapshot struct {
	Cfg             Config
	NextID          int
	TriedKeys       []grid.Cell
	TriedCounts     []int
	EscalationKeys  []grid.Cell
	EscalationCount []int
	BlurKeys        []grid.Cell
	BlurWorkers     [][]string
}

// Snapshot captures the generator state for persistence. Map-backed
// state is emitted in ascending cell order, so the same generator state
// always yields the same snapshot.
func (g *Generator) Snapshot() Snapshot {
	s := Snapshot{Cfg: g.cfg, NextID: g.nextID}
	for _, k := range sortedCells(g.tried) {
		s.TriedKeys = append(s.TriedKeys, k)
		s.TriedCounts = append(s.TriedCounts, g.tried[k])
	}
	for _, k := range sortedCells(g.escalations) {
		s.EscalationKeys = append(s.EscalationKeys, k)
		s.EscalationCount = append(s.EscalationCount, g.escalations[k])
	}
	for _, k := range sortedCells(g.blurred) {
		s.BlurKeys = append(s.BlurKeys, k)
		s.BlurWorkers = append(s.BlurWorkers, append([]string(nil), g.blurred[k]...))
	}
	return s
}

// sortedCells returns the keys of m in (I, J) order.
func sortedCells[V any](m map[grid.Cell]V) []grid.Cell {
	keys := make([]grid.Cell, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b grid.Cell) int {
		return cmp.Or(cmp.Compare(a.I, b.I), cmp.Compare(a.J, b.J))
	})
	return keys
}

// FromSnapshot reconstructs a generator from a snapshot.
func FromSnapshot(s Snapshot) (*Generator, error) {
	if len(s.TriedKeys) != len(s.TriedCounts) || len(s.EscalationKeys) != len(s.EscalationCount) ||
		len(s.BlurKeys) != len(s.BlurWorkers) {
		return nil, fmt.Errorf("taskgen: snapshot array mismatch")
	}
	g := NewGenerator(s.Cfg)
	g.nextID = s.NextID
	for i, k := range s.TriedKeys {
		g.tried[k] = s.TriedCounts[i]
	}
	for i, k := range s.EscalationKeys {
		g.escalations[k] = s.EscalationCount[i]
	}
	for i, k := range s.BlurKeys {
		g.blurred[k] = append([]string(nil), s.BlurWorkers[i]...)
	}
	return g, nil
}
