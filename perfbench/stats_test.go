package main

import (
	"testing"
	"time"
)

func TestUsedPercentile(t *testing.T) {
	for _, tc := range []struct {
		n          int
		want, used float64
	}{
		{1000, 99, 99}, // ten samples beyond p99
		{999, 99, 98},
		{100, 90, 90},
		{68, 99, 85},
		{15, 99, 50}, // never below the median
		{0, 99, 99},
	} {
		if got := usedPercentile(tc.n, tc.want); got != tc.used {
			t.Errorf("usedPercentile(%d, %g) = %g, want %g", tc.n, tc.want, got, tc.used)
		}
	}
}

func TestQuantileMS(t *testing.T) {
	var ds []time.Duration
	for i := 100; i >= 1; i-- {
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 100: 100, 1: 1} {
		if got := quantileMS(ds, p); got != want {
			t.Errorf("quantileMS(p%g) = %g, want %g", p, got, want)
		}
	}
	if ds[0] != 100*time.Millisecond {
		t.Error("quantileMS reordered its input")
	}
}

func TestPromSumsAcrossCampaigns(t *testing.T) {
	m := parseProm([]byte(`# HELP x
snaptask_ingest_stage_duration_seconds_sum{campaign="a",stage="sor"} 1.5
snaptask_ingest_stage_duration_seconds_sum{stage="sor",campaign="b"} 0.5
snaptask_ingest_stage_duration_seconds_sum{campaign="a",stage="sor.knn"} 0.25
snaptask_http_request_duration_seconds_count{route="POST /v1/photos",campaign="a"} 3
snaptask_snapshot_publishes_total 7
`))
	if got := m.sum("snaptask_ingest_stage_duration_seconds_sum", `stage="sor"`); got != 2 {
		t.Errorf("sor stage sum = %g, want 2 (both campaigns, not sor.knn)", got)
	}
	if got := m.sum("snaptask_http_request_duration_seconds_count", `route="POST /v1/photos"`); got != 3 {
		t.Errorf("route count = %g, want 3", got)
	}
	if got := m.sum("snaptask_snapshot_publishes_total"); got != 7 {
		t.Errorf("unlabelled counter = %g, want 7", got)
	}
}

func TestWindowedMedianIgnoresOneStalledWindow(t *testing.T) {
	start := time.Now()
	var ss []sample
	for i := 0; i < 100; i++ {
		lat := 2 * time.Millisecond
		if i >= 60 && i < 80 { // the fourth window runs during a stall
			lat = 20 * time.Millisecond
		}
		ss = append(ss, sample{at: start.Add(time.Duration(i) * time.Millisecond), lat: lat})
	}
	if got := windowedMedian(ss).Value; got != 2 {
		t.Errorf("windowed median = %g ms, want 2", got)
	}
}
