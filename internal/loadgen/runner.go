package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// OpSpec is one operation type in the traffic mix (upload, locate, claim,
// ...). Do performs a single operation; the harness classifies the result:
// transport errors and 5xx count as errors, 429 counts as shed, anything
// else (including expected 4xx like claim's 404 no-task) counts as ok.
type OpSpec struct {
	Name   string
	Weight float64
	Do     func(ctx context.Context, worker int, rng *rand.Rand) OpResult
}

// OpResult is the outcome of one operation.
type OpResult struct {
	Status int // HTTP status; 0 means transport error
	Err    error
}

// Churn makes simulated workers crash and rejoin: after finishing an
// operation a worker crashes with probability CrashProb and stays away for
// a heavy-tailed Outage draw — during which offered load keeps arriving
// (open loop), so the remaining fleet absorbs it and the latency histograms
// show the capacity dip honestly.
type Churn struct {
	CrashProb float64
	Outage    ThinkTime
}

// Config drives one open-loop run.
type Config struct {
	Workers  int           // simulated fleet size executing the schedule
	Arrivals Arrivals      // offered schedule (constant or poisson)
	Duration time.Duration // pacing window; draining may extend the run
	Ops      []OpSpec      // traffic mix, picked per-arrival by weight
	Think    ThinkTime     // per-operation heavy-tail pause (zero = none)
	Churn    Churn         // crash/rejoin behaviour (zero = none)
	Seed     int64
	// DrainTimeout bounds how long workers may keep serving queued
	// arrivals after the schedule ends (default 30s); arrivals still
	// queued at the deadline are abandoned and counted in Result.Unsent.
	DrainTimeout time.Duration
	// OnProgress, when set, is called roughly once per ProgressInterval
	// (default 1s) from a dedicated goroutine.
	OnProgress       func(Progress)
	ProgressInterval time.Duration
}

// EndpointStats aggregates one operation type. Corrected holds latencies
// measured from the intended start time (coordinated-omission corrected:
// includes harness queue wait); Service holds send-to-response time as a
// conventional closed-loop harness would report it.
type EndpointStats struct {
	Name      string
	Offered   atomic.Uint64 // arrivals scheduled for this endpoint
	Done      atomic.Uint64
	OK        atomic.Uint64
	Shed      atomic.Uint64 // 429 responses
	Errors    atomic.Uint64 // transport errors and 5xx
	Corrected Histogram
	Service   Histogram
}

// Progress is a point-in-time view for live rendering.
type Progress struct {
	Elapsed  time.Duration
	Offered  uint64
	Done     uint64
	OK       uint64
	Shed     uint64
	Errors   uint64
	Queued   int                      // arrivals waiting for a free worker
	Achieved float64                  // done/elapsed ops/sec
	P99      map[string]time.Duration // corrected p99 per endpoint so far
}

// Result is the final aggregate of a run.
type Result struct {
	Elapsed     time.Duration
	OfferedRate float64 // configured schedule rate, ops/sec
	Achieved    float64 // completed ops/sec over the whole run
	Offered     uint64  // arrivals the schedule produced
	Done        uint64
	Unsent      uint64 // arrivals abandoned at the drain deadline
	Endpoints   map[string]*EndpointStats
}

type ticket struct {
	intended time.Time
	op       *OpSpec
}

// Run executes one open-loop load run and blocks until the schedule has
// been fully served (or abandoned at the drain deadline) or ctx is
// cancelled.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Workers <= 0 {
		return nil, errors.New("loadgen: Workers must be > 0")
	}
	if cfg.Arrivals == nil || cfg.Arrivals.Rate() <= 0 {
		return nil, errors.New("loadgen: Arrivals with a positive rate required")
	}
	if cfg.Duration <= 0 {
		return nil, errors.New("loadgen: Duration must be > 0")
	}
	if len(cfg.Ops) == 0 {
		return nil, errors.New("loadgen: at least one OpSpec required")
	}
	total := 0.0
	for i := range cfg.Ops {
		if cfg.Ops[i].Weight < 0 || cfg.Ops[i].Do == nil {
			return nil, fmt.Errorf("loadgen: op %q needs a non-negative weight and a Do func", cfg.Ops[i].Name)
		}
		total += cfg.Ops[i].Weight
	}
	if total <= 0 {
		return nil, errors.New("loadgen: total op weight must be > 0")
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 30 * time.Second
	}
	if cfg.ProgressInterval <= 0 {
		cfg.ProgressInterval = time.Second
	}

	stats := make(map[string]*EndpointStats, len(cfg.Ops))
	for i := range cfg.Ops {
		stats[cfg.Ops[i].Name] = &EndpointStats{Name: cfg.Ops[i].Name}
	}

	// The ticket queue holds the whole schedule in the worst case (server
	// fully stalled), so the pacer never blocks and offered load is never
	// silently capped by the harness itself.
	capacity := int(cfg.Arrivals.Rate()*cfg.Duration.Seconds()*1.5) + 1024
	tickets := make(chan ticket, capacity)

	start := time.Now()
	var offered atomic.Uint64

	// Pacer: streams intended start times from the schedule and enqueues
	// tickets when due. Catch-up after a coarse sleep enqueues every ticket
	// whose intended time has passed without further sleeping, so the
	// schedule holds even when timer resolution is poor.
	pacerDone := make(chan struct{})
	go func() {
		defer close(pacerDone)
		defer close(tickets)
		rng := rand.New(rand.NewSource(cfg.Seed))
		intended := start
		deadline := start.Add(cfg.Duration)
		for {
			intended = intended.Add(cfg.Arrivals.Next(rng))
			if intended.After(deadline) {
				return
			}
			if d := time.Until(intended); d > 0 {
				if !sleepCtx(ctx, d) {
					return
				}
			}
			op := pickOp(cfg.Ops, total, rng)
			select {
			case tickets <- ticket{intended: intended, op: op}:
				offered.Add(1)
				stats[op.Name].Offered.Add(1)
			case <-ctx.Done():
				return
			}
		}
	}()

	// Workers: pull tickets, execute, record, think, maybe crash.
	workCtx, cancelWork := context.WithCancel(ctx)
	defer cancelWork()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + 1 + int64(worker)))
			for {
				select {
				case <-workCtx.Done():
					return
				case tk, ok := <-tickets:
					if !ok {
						return
					}
					st := stats[tk.op.Name]
					sent := time.Now()
					res := tk.op.Do(workCtx, worker, rng)
					now := time.Now()
					st.Corrected.Record(now.Sub(tk.intended))
					st.Service.Record(now.Sub(sent))
					st.Done.Add(1)
					switch {
					case res.Err != nil || res.Status == 0 || res.Status >= 500:
						st.Errors.Add(1)
					case res.Status == 429:
						st.Shed.Add(1)
					default:
						st.OK.Add(1)
					}
					if !sleepCtx(workCtx, cfg.Think.Sample(rng)) {
						return
					}
					if cfg.Churn.CrashProb > 0 && rng.Float64() < cfg.Churn.CrashProb {
						if !sleepCtx(workCtx, cfg.Churn.Outage.Sample(rng)) {
							return
						}
					}
				}
			}
		}(w)
	}

	// Progress reporter.
	progDone := make(chan struct{})
	go func() {
		defer close(progDone)
		if cfg.OnProgress == nil {
			return
		}
		tick := time.NewTicker(cfg.ProgressInterval)
		defer tick.Stop()
		for {
			select {
			case <-workCtx.Done():
				return
			case <-tick.C:
				cfg.OnProgress(snapshotProgress(start, stats, &offered, len(tickets)))
			}
		}
	}()

	// Wait for the schedule to end, then give workers DrainTimeout to
	// serve the backlog before abandoning it.
	workersDone := make(chan struct{})
	go func() { wg.Wait(); close(workersDone) }()
	<-pacerDone
	select {
	case <-workersDone:
	case <-time.After(cfg.DrainTimeout):
		cancelWork()
		<-workersDone
	case <-ctx.Done():
		<-workersDone
	}
	cancelWork()
	<-progDone

	var unsent uint64
	for range tickets {
		unsent++
	}

	elapsed := time.Since(start)
	res := &Result{
		Elapsed:     elapsed,
		OfferedRate: cfg.Arrivals.Rate(),
		Offered:     offered.Load(),
		Unsent:      unsent,
		Endpoints:   stats,
	}
	for _, st := range stats {
		res.Done += st.Done.Load()
	}
	if s := elapsed.Seconds(); s > 0 {
		res.Achieved = float64(res.Done) / s
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	return res, nil
}

func snapshotProgress(start time.Time, stats map[string]*EndpointStats, offered *atomic.Uint64, queued int) Progress {
	p := Progress{
		Elapsed: time.Since(start),
		Offered: offered.Load(),
		Queued:  queued,
		P99:     make(map[string]time.Duration, len(stats)),
	}
	for name, st := range stats {
		p.Done += st.Done.Load()
		p.OK += st.OK.Load()
		p.Shed += st.Shed.Load()
		p.Errors += st.Errors.Load()
		p.P99[name] = st.Corrected.Quantile(0.99)
	}
	if s := p.Elapsed.Seconds(); s > 0 {
		p.Achieved = float64(p.Done) / s
	}
	return p
}

func pickOp(ops []OpSpec, total float64, rng *rand.Rand) *OpSpec {
	r := rng.Float64() * total
	for i := range ops {
		r -= ops[i].Weight
		if r < 0 {
			return &ops[i]
		}
	}
	return &ops[len(ops)-1]
}

// sleepCtx sleeps for d unless ctx is cancelled first; it reports whether
// the full sleep completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
