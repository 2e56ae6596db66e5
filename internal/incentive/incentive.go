// Package incentive implements the extension the paper's conclusion plans:
// incentive mechanisms and location-based participant selection. SnapTask
// computes WHERE to collect data; this package decides WHO collects it —
// selecting, for each generated task, the participant with the best
// expected quality-of-information per unit cost, under a campaign budget,
// in the spirit of the QoI-aware selection literature the paper builds on
// (Zhang et al., Song et al.).
package incentive

import (
	"fmt"
	"math"
	"sort"

	"snaptask/internal/geom"
	"snaptask/internal/taskgen"
)

// Participant is a registered crowd worker available for tasks.
type Participant struct {
	// ID is unique within the pool.
	ID int
	// Pos is the participant's current position.
	Pos geom.Vec2
	// BaseReward is the incentive demanded per completed task.
	BaseReward float64
	// PerMetre is the travel compensation per metre walked.
	PerMetre float64
	// Reliability is the probability the participant's capture is usable
	// (steady, on-location). Unreliable workers force the paper's retry
	// path, which costs additional tasks.
	Reliability float64
}

// Validate reports whether the participant's parameters are usable.
func (p Participant) Validate() error {
	if p.BaseReward < 0 || p.PerMetre < 0 {
		return fmt.Errorf("incentive: participant %d has negative costs", p.ID)
	}
	if p.Reliability <= 0 || p.Reliability > 1 {
		return fmt.Errorf("incentive: participant %d reliability %v outside (0,1]", p.ID, p.Reliability)
	}
	return nil
}

// Cost returns the expected payment for sending the participant to the
// task location.
func (p Participant) Cost(task geom.Vec2) float64 {
	return p.BaseReward + p.PerMetre*p.Pos.Dist(task)
}

// Score is the selection objective: expected usable captures per unit
// cost. Higher is better.
func (p Participant) Score(task geom.Vec2) float64 {
	c := p.Cost(task)
	if c <= 0 {
		c = 1e-9
	}
	return p.Reliability / c
}

// Assignment pairs a task with the participant selected for it.
type Assignment struct {
	TaskID        int
	ParticipantID int
	Cost          float64
	Score         float64
}

// SelectParticipant picks the best affordable participant for one task,
// excluding the busy set. ok is false when nobody affordable remains.
func SelectParticipant(task taskgen.Task, pool []Participant, busy map[int]bool, budget float64) (Assignment, bool) {
	best := Assignment{Score: -1}
	for _, p := range pool {
		if busy[p.ID] || p.Validate() != nil {
			continue
		}
		cost := p.Cost(task.Location)
		if cost > budget {
			continue
		}
		if s := p.Score(task.Location); s > best.Score {
			best = Assignment{
				TaskID:        task.ID,
				ParticipantID: p.ID,
				Cost:          cost,
				Score:         s,
			}
		}
	}
	return best, best.Score >= 0
}

// Campaign tracks spending over a mapping campaign.
type Campaign struct {
	// Budget is the total incentive budget.
	Budget float64
	spent  float64
	paid   map[int]float64
}

// NewCampaign returns a campaign with the given budget.
func NewCampaign(budget float64) (*Campaign, error) {
	if budget < 0 {
		return nil, fmt.Errorf("incentive: negative budget %v", budget)
	}
	return &Campaign{Budget: budget, paid: make(map[int]float64)}, nil
}

// Remaining returns the unspent budget.
func (c *Campaign) Remaining() float64 { return c.Budget - c.spent }

// Spent returns the total paid so far.
func (c *Campaign) Spent() float64 { return c.spent }

// PaidTo returns the total paid to one participant.
func (c *Campaign) PaidTo(participantID int) float64 { return c.paid[participantID] }

// Pay records a completed assignment. It fails when the campaign cannot
// afford it — callers must check affordability when selecting.
func (c *Campaign) Pay(a Assignment) error {
	if a.Cost > c.Remaining()+1e-9 {
		return fmt.Errorf("incentive: assignment costs %.2f but only %.2f remains", a.Cost, c.Remaining())
	}
	c.spent += a.Cost
	c.paid[a.ParticipantID] += a.Cost
	return nil
}

// UniformPool generates n participants spread over the venue bounds with
// the given cost and reliability ranges, deterministically from the seed —
// a convenience for experiments.
func UniformPool(n int, bounds geom.AABB, baseReward, perMetre float64, minReliability float64, seed int64) []Participant {
	pool := make([]Participant, 0, n)
	// A tiny deterministic LCG keeps the package free of math/rand
	// bookkeeping for this helper.
	state := uint64(seed)*6364136223846793005 + 1442695040888963407
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / float64(1<<53)
	}
	for i := 0; i < n; i++ {
		pool = append(pool, Participant{
			ID:          i + 1,
			Pos:         geom.V2(bounds.Min.X+next()*bounds.Width(), bounds.Min.Y+next()*bounds.Height()),
			BaseReward:  baseReward * (0.75 + 0.5*next()),
			PerMetre:    perMetre * (0.75 + 0.5*next()),
			Reliability: math.Min(1, minReliability+(1-minReliability)*next()),
		})
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i].ID < pool[j].ID })
	return pool
}
