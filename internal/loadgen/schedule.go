package loadgen

import (
	"math"
	"math/rand"
	"time"
)

// Arrivals produces the inter-arrival gaps of an open-loop schedule. The
// pacer sums the gaps into intended start times before the run begins
// (logically — implementation streams them), so gaps never depend on
// observed response times.
type Arrivals interface {
	// Next returns the gap to the next arrival. rng is owned by the pacer.
	Next(rng *rand.Rand) time.Duration
	// Rate returns the offered rate in operations/second.
	Rate() float64
}

// Constant emits arrivals on a fixed period — the classic fixed-QPS
// schedule, worst case for coordinated omission because every stall delays
// a maximal number of intended sends.
type Constant struct{ PerSec float64 }

func (c Constant) Next(*rand.Rand) time.Duration {
	return time.Duration(float64(time.Second) / c.PerSec)
}
func (c Constant) Rate() float64 { return c.PerSec }

// Poisson emits arrivals as a Poisson process (exponential gaps) — the
// standard model for a large independent client population.
type Poisson struct{ PerSec float64 }

func (p Poisson) Next(rng *rand.Rand) time.Duration {
	return time.Duration(rng.ExpFloat64() / p.PerSec * float64(time.Second))
}
func (p Poisson) Rate() float64 { return p.PerSec }

// ThinkTime is a heavy-tailed (lognormal) pause: most workers resume
// quickly, a few wander off for much longer — the shape crowdsourcing
// deployments report for human task gaps. Median is the lognormal median;
// Sigma is the log-domain spread (1.0 gives a ~7x p99/median ratio);
// Max caps the tail so a finite run cannot strand workers.
type ThinkTime struct {
	Median time.Duration
	Sigma  float64
	Max    time.Duration
}

// Sample draws one pause. A zero Median disables thinking entirely.
func (t ThinkTime) Sample(rng *rand.Rand) time.Duration {
	if t.Median <= 0 {
		return 0
	}
	d := time.Duration(float64(t.Median) * math.Exp(t.Sigma*rng.NormFloat64()))
	if t.Max > 0 && d > t.Max {
		d = t.Max
	}
	return d
}
