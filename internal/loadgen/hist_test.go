package loadgen

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestBucketLayoutIsContiguous(t *testing.T) {
	// Every bucket's low bound must map back to its own index, and bounds
	// must be strictly increasing — otherwise quantiles drift.
	prev := int64(-1)
	for i := 0; i < numBuckets; i++ {
		lo := bucketLow(i)
		if lo <= prev {
			t.Fatalf("bucket %d low %d not > previous %d", i, lo, prev)
		}
		if got := bucketIndex(lo); got != i {
			t.Fatalf("bucketIndex(bucketLow(%d)=%d) = %d", i, lo, got)
		}
		prev = lo
	}
	if got := bucketIndex(math.MaxInt64); got >= numBuckets {
		t.Fatalf("MaxInt64 index %d out of range %d", got, numBuckets)
	}
}

func TestQuantileAccuracy(t *testing.T) {
	// Against an exact sorted reference, every reported quantile must be
	// within the histogram's designed ~3% relative error.
	rng := rand.New(rand.NewSource(42))
	var h Histogram
	vals := make([]time.Duration, 20000)
	for i := range vals {
		// Lognormal-ish spread across several decades.
		v := time.Duration(math.Exp(rng.NormFloat64()*2+13)) * time.Nanosecond
		vals[i] = v
		h.Record(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		idx := int(math.Ceil(q*float64(len(vals)))) - 1
		exact := float64(vals[idx])
		got := float64(h.Quantile(q))
		if rel := math.Abs(got-exact) / exact; rel > 2.0/subBuckets {
			t.Errorf("q=%v: got %v exact %v rel err %.4f > %.4f",
				q, time.Duration(got), time.Duration(exact), rel, 2.0/subBuckets)
		}
	}
	if h.Count() != uint64(len(vals)) {
		t.Fatalf("count %d != %d", h.Count(), len(vals))
	}
	if h.Quantile(1) != vals[len(vals)-1] {
		t.Fatalf("q=1 %v != max %v", h.Quantile(1), vals[len(vals)-1])
	}
}

func TestMergeMatchesCombinedRecording(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var a, b, both Histogram
	for i := 0; i < 5000; i++ {
		v := time.Duration(rng.Int63n(int64(10 * time.Second)))
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
		both.Record(v)
	}
	var merged Histogram
	merged.Merge(&a)
	merged.Merge(&b)
	if merged.Count() != both.Count() {
		t.Fatalf("merged count %d != %d", merged.Count(), both.Count())
	}
	if merged.Max() != both.Max() {
		t.Fatalf("merged max %v != %v", merged.Max(), both.Max())
	}
	for _, q := range []float64{0.5, 0.95, 0.99, 0.999} {
		if merged.Quantile(q) != both.Quantile(q) {
			t.Fatalf("q=%v merged %v != combined %v", q, merged.Quantile(q), both.Quantile(q))
		}
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	var h Histogram
	const goroutines, per = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Record(time.Duration(rng.Int63n(int64(time.Second))))
			}
		}(int64(g))
	}
	wg.Wait()
	if h.Count() != goroutines*per {
		t.Fatalf("count %d != %d", h.Count(), goroutines*per)
	}
}

func TestEmptyHistogram(t *testing.T) {
	var h Histogram
	if h.Quantile(0.99) != 0 || h.Mean() != 0 || h.Max() != 0 || h.Count() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	s := h.Summary()
	if s.Count != 0 || s.P99 != 0 {
		t.Fatalf("empty summary %+v", s)
	}
}

func TestSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := Constant{PerSec: 200}
	if got := c.Next(rng); got != 5*time.Millisecond {
		t.Fatalf("constant gap %v", got)
	}
	p := Poisson{PerSec: 200}
	var sum time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		sum += p.Next(rng)
	}
	mean := sum / n
	if mean < 4*time.Millisecond || mean > 6*time.Millisecond {
		t.Fatalf("poisson mean gap %v, want ~5ms", mean)
	}
}

func TestThinkTimeHeavyTail(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tt := ThinkTime{Median: 10 * time.Millisecond, Sigma: 1.0, Max: time.Second}
	var h Histogram
	for i := 0; i < 20000; i++ {
		d := tt.Sample(rng)
		if d > time.Second {
			t.Fatalf("sample %v above cap", d)
		}
		h.Record(d)
	}
	med, p99 := h.Quantile(0.5), h.Quantile(0.99)
	if med < 8*time.Millisecond || med > 12*time.Millisecond {
		t.Fatalf("median %v, want ~10ms", med)
	}
	// Lognormal sigma=1: p99/median = exp(2.326) ~ 10x.
	if p99 < 5*med {
		t.Fatalf("p99 %v not heavy-tailed vs median %v", p99, med)
	}
	if (ThinkTime{}).Sample(rng) != 0 {
		t.Fatal("zero ThinkTime must not pause")
	}
}
