package main

import (
	"math"
	"sort"
	"time"
)

// metric is one reported number. Samples and Percentile make records
// comparable across runs: a tail reports the percentile it actually used.
type metric struct {
	Value      float64 `json:"value"`
	Unit       string  `json:"unit"`
	Samples    int     `json:"samples,omitempty"`
	Percentile float64 `json:"percentile,omitempty"`
}

// minBeyond is how many samples must lie beyond a reported tail
// percentile; with fewer samples the tail falls back to the highest
// percentile that still has them.
const minBeyond = 10

// usedPercentile returns the percentile a tail of n samples can support:
// want, or lower when fewer than minBeyond samples lie beyond it (never
// below the median).
func usedPercentile(n int, want float64) float64 {
	if n == 0 {
		return want
	}
	if float64(n)*(1-want/100) >= minBeyond {
		return want
	}
	p := 100 * (1 - float64(minBeyond)/float64(n))
	return math.Max(50, math.Floor(p))
}

// quantileMS returns the nearest-rank p-th percentile of durations in ms.
func quantileMS(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(math.Ceil(p/100*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return float64(s[idx]) / float64(time.Millisecond)
}

// latencyMetric reports the want-th percentile of ds (or the highest
// percentile with minBeyond samples beyond it) in milliseconds.
func latencyMetric(ds []time.Duration, want float64) metric {
	p := usedPercentile(len(ds), want)
	return metric{Value: quantileMS(ds, p), Unit: "ms", Samples: len(ds), Percentile: p}
}

// medianWindows is how many consecutive windows a median is taken over.
const medianWindows = 5

// windowedMedian splits the samples, in the order they were due, into
// medianWindows runs of equal count and returns the median of the runs'
// medians, in milliseconds. The host this runs on slows down for seconds
// at a time; a stall confined to one or two windows does not move this
// median, where it would shift the pooled one. Fewer than
// medianWindows*medianWindows samples give the pooled median.
func windowedMedian(ss []sample) metric {
	m := metric{Unit: "ms", Samples: len(ss), Percentile: 50}
	if len(ss) < medianWindows*medianWindows {
		ds := make([]time.Duration, len(ss))
		for i, s := range ss {
			ds[i] = s.lat
		}
		m.Value = quantileMS(ds, 50)
		return m
	}
	sort.Slice(ss, func(i, j int) bool { return ss[i].at.Before(ss[j].at) })
	meds := make([]float64, medianWindows)
	for w := range meds {
		win := ss[w*len(ss)/medianWindows : (w+1)*len(ss)/medianWindows]
		ds := make([]time.Duration, len(win))
		for i, s := range win {
			ds[i] = s.lat
		}
		meds[w] = quantileMS(ds, 50)
	}
	m.Value = medianFloat(meds)
	return m
}

// medianSeconds returns the median of durations in seconds.
func medianSeconds(ds []time.Duration) metric {
	return metric{Value: quantileMS(ds, 50) / 1000, Unit: "s", Samples: len(ds), Percentile: 50}
}

// medianFloat returns the median of xs.
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
