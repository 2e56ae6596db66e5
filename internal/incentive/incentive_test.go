package incentive

import (
	"math/rand"
	"testing"

	"snaptask/internal/camera"
	"snaptask/internal/core"
	"snaptask/internal/geom"
	"snaptask/internal/taskgen"
	"snaptask/internal/venue"
)

func TestParticipantValidate(t *testing.T) {
	good := Participant{ID: 1, BaseReward: 2, PerMetre: 0.1, Reliability: 0.9}
	if err := good.Validate(); err != nil {
		t.Errorf("valid participant rejected: %v", err)
	}
	bad := []Participant{
		{ID: 2, BaseReward: -1, Reliability: 0.9},
		{ID: 3, PerMetre: -0.1, Reliability: 0.9},
		{ID: 4, Reliability: 0},
		{ID: 5, Reliability: 1.5},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("participant %d accepted", p.ID)
		}
	}
}

func TestCostAndScore(t *testing.T) {
	p := Participant{ID: 1, Pos: geom.V2(0, 0), BaseReward: 2, PerMetre: 0.5, Reliability: 0.8}
	task := geom.V2(3, 4) // 5 m away
	if got := p.Cost(task); got != 2+2.5 {
		t.Errorf("cost = %v, want 4.5", got)
	}
	if got := p.Score(task); got != 0.8/4.5 {
		t.Errorf("score = %v", got)
	}
	// A closer participant with the same terms scores higher.
	near := p
	near.Pos = geom.V2(3, 3.5)
	if near.Score(task) <= p.Score(task) {
		t.Error("closer participant should score higher")
	}
}

func TestSelectParticipant(t *testing.T) {
	task := taskgen.Task{ID: 1, Location: geom.V2(10, 10)}
	pool := []Participant{
		{ID: 1, Pos: geom.V2(0, 0), BaseReward: 1, PerMetre: 0.5, Reliability: 0.9},  // far
		{ID: 2, Pos: geom.V2(9, 10), BaseReward: 1, PerMetre: 0.5, Reliability: 0.9}, // near
		{ID: 3, Pos: geom.V2(10, 9), BaseReward: 1, PerMetre: 0.5, Reliability: 0.2}, // near, unreliable
	}
	a, ok := SelectParticipant(task, pool, nil, 100)
	if !ok || a.ParticipantID != 2 {
		t.Fatalf("selected %+v, want participant 2", a)
	}
	// Busy exclusion falls back to the next best.
	a, ok = SelectParticipant(task, pool, map[int]bool{2: true}, 100)
	if !ok || a.ParticipantID == 2 {
		t.Fatalf("busy participant selected: %+v", a)
	}
	// Budget gate: nobody affordable.
	if _, ok := SelectParticipant(task, pool, nil, 0.5); ok {
		t.Error("selection under impossible budget should fail")
	}
}

func TestCampaignAccounting(t *testing.T) {
	c, err := NewCampaign(10)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Pay(Assignment{ParticipantID: 1, Cost: 4}); err != nil {
		t.Fatal(err)
	}
	if err := c.Pay(Assignment{ParticipantID: 2, Cost: 5}); err != nil {
		t.Fatal(err)
	}
	if c.Spent() != 9 || c.Remaining() != 1 {
		t.Errorf("spent %v remaining %v", c.Spent(), c.Remaining())
	}
	if c.PaidTo(1) != 4 || c.PaidTo(2) != 5 || c.PaidTo(3) != 0 {
		t.Error("per-participant accounting wrong")
	}
	if err := c.Pay(Assignment{ParticipantID: 1, Cost: 2}); err == nil {
		t.Error("over-budget payment accepted")
	}
	if _, err := NewCampaign(-1); err == nil {
		t.Error("negative budget accepted")
	}
}

func TestUniformPool(t *testing.T) {
	bounds := geom.NewAABB(geom.V2(0, 0), geom.V2(10, 10))
	a := UniformPool(20, bounds, 2, 0.1, 0.6, 7)
	b := UniformPool(20, bounds, 2, 0.1, 0.6, 7)
	if len(a) != 20 {
		t.Fatalf("pool size = %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("pool generation not deterministic")
		}
		if err := a[i].Validate(); err != nil {
			t.Fatalf("generated participant invalid: %v", err)
		}
		if !bounds.Contains(a[i].Pos) {
			t.Fatalf("participant outside bounds: %v", a[i].Pos)
		}
		if a[i].Reliability < 0.6 {
			t.Fatalf("reliability %v below floor", a[i].Reliability)
		}
	}
}

func TestRunCampaignSmallRoom(t *testing.T) {
	v, err := venue.SmallRoom()
	if err != nil {
		t.Fatal(err)
	}
	world := camera.NewWorld(v, v.GenerateFeatures(rand.New(rand.NewSource(1))))
	sys, err := core.NewSystem(v, world, core.Config{Margin: 3})
	if err != nil {
		t.Fatal(err)
	}
	gt, err := v.GroundTruthAt(sys.Layout())
	if err != nil {
		t.Fatal(err)
	}
	campaign, err := NewCampaign(500)
	if err != nil {
		t.Fatal(err)
	}
	pool := UniformPool(5, v.Bounds(), 3, 0.2, 0.85, 11)
	res, err := RunCampaign(sys, pool, campaign, v.WalkMap(gt), 60, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Covered {
		t.Fatalf("campaign did not cover the room: %+v", res)
	}
	if res.Spent <= 0 || res.Spent > 500 {
		t.Errorf("spent %v outside budget", res.Spent)
	}
	total := 0
	for _, n := range res.PerParticipant {
		total += n
	}
	if total != res.PhotoTasks+res.AnnotationTasks {
		t.Error("per-participant counts inconsistent")
	}
	if campaign.Spent() != res.Spent {
		t.Error("campaign accounting mismatch")
	}
}

func TestRunCampaignBudgetExhaustion(t *testing.T) {
	v, err := venue.SmallRoom()
	if err != nil {
		t.Fatal(err)
	}
	world := camera.NewWorld(v, v.GenerateFeatures(rand.New(rand.NewSource(1))))
	sys, err := core.NewSystem(v, world, core.Config{Margin: 3})
	if err != nil {
		t.Fatal(err)
	}
	gt, err := v.GroundTruthAt(sys.Layout())
	if err != nil {
		t.Fatal(err)
	}
	// A budget that affords roughly one task.
	campaign, err := NewCampaign(5)
	if err != nil {
		t.Fatal(err)
	}
	pool := UniformPool(5, v.Bounds(), 3, 0.2, 0.85, 11)
	res, err := RunCampaign(sys, pool, campaign, v.WalkMap(gt), 60, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Covered {
		t.Error("tiny budget should not finish the venue")
	}
	if res.TasksDropped == 0 {
		t.Error("budget exhaustion not recorded")
	}
}

func TestRunCampaignValidation(t *testing.T) {
	if _, err := RunCampaign(nil, nil, nil, nil, 10, rand.New(rand.NewSource(1))); err == nil {
		t.Error("nil inputs accepted")
	}
}

func TestSelectParticipantSkipsInvalid(t *testing.T) {
	task := taskgen.Task{ID: 1, Location: geom.V2(5, 5)}
	pool := []Participant{
		{ID: 1, Pos: geom.V2(5, 4), BaseReward: -2, Reliability: 0.9}, // invalid
		{ID: 2, Pos: geom.V2(5, 9), BaseReward: 1, PerMetre: 0.2, Reliability: 0.7},
	}
	a, ok := SelectParticipant(task, pool, nil, 100)
	if !ok || a.ParticipantID != 2 {
		t.Fatalf("invalid participant not skipped: %+v", a)
	}
}

func TestRunCampaignInvalidPool(t *testing.T) {
	v, err := venue.SmallRoom()
	if err != nil {
		t.Fatal(err)
	}
	world := camera.NewWorld(v, nil)
	sys, err := core.NewSystem(v, world, core.Config{Margin: 3})
	if err != nil {
		t.Fatal(err)
	}
	gt, err := v.GroundTruthAt(sys.Layout())
	if err != nil {
		t.Fatal(err)
	}
	campaign, _ := NewCampaign(100)
	bad := []Participant{{ID: 1, Reliability: 2}}
	if _, err := RunCampaign(sys, bad, campaign, v.WalkMap(gt), 10, rand.New(rand.NewSource(1))); err == nil {
		t.Error("invalid pool accepted")
	}
	if _, err := RunCampaign(sys, nil, campaign, v.WalkMap(gt), 10, rand.New(rand.NewSource(1))); err == nil {
		t.Error("empty pool accepted")
	}
}
