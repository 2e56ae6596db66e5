package main

import (
	"testing"

	"snaptask/internal/loadgen"
)

func TestCheckLoadGate(t *testing.T) {
	row := func(endpoint string, p99 float64) loadEndpointRow {
		return loadEndpointRow{Endpoint: endpoint, Corrected: loadgen.Quantiles{P99: p99}}
	}
	shard := func(name string) loadMultiRow {
		return loadMultiRow{Campaign: name, OfferedQPS: 62.5, AchievedQPS: 62.5,
			Endpoints: []loadEndpointRow{row("locate", 12)}}
	}
	// report returns a fresh report that passes the gate against itself,
	// rewritten by edit.
	report := func(edit func(r *loadReport)) *loadReport {
		r := &loadReport{
			Campaigns: []loadCampaignRow{
				{Name: "steady", OfferedQPS: 250, AchievedQPS: 248},
				{Name: "overload", Overload: true, OfferedQPS: 1000, AchievedQPS: 750, Shed: 4000},
			},
			Endpoints:   []loadEndpointRow{row("upload", 100), row("locate", 10), row("claim", 5)},
			Calibration: []loadEndpointRow{{Endpoint: "locate", ServerP99MS: 5, ServerAgree: true}},
			SLOOverload: []loadSLORow{{Endpoint: "locate"}, {Endpoint: "upload", Burning: true}},
			MultiCampaign: &loadMultiReport{
				Campaigns: 4,
				Baseline: loadMultiRow{Campaign: "single", OfferedQPS: 250, AchievedQPS: 250,
					Endpoints: []loadEndpointRow{row("locate", 10)}},
				Rows: []loadMultiRow{shard("c0"), shard("c1"), shard("c2"), shard("c3")},
			},
		}
		edit(r)
		return r
	}
	committed := report(func(*loadReport) {})
	tests := []struct {
		name  string
		gate  *loadReport
		fresh *loadReport
		pass  bool
	}{
		{"unchanged", committed, report(func(*loadReport) {}), true},
		{"no committed baseline", nil, report(func(*loadReport) {}), true},
		{"steady at 0.9", committed, report(func(r *loadReport) { r.Campaigns[0].AchievedQPS = 225 }), true},
		{"steady below 0.9", committed, report(func(r *loadReport) { r.Campaigns[0].AchievedQPS = 224 }), false},
		{"overload shed nothing", committed, report(func(r *loadReport) { r.Campaigns[1].Shed = 0 }), false},
		{"no slo burn", committed, report(func(r *loadReport) { r.SLOOverload[1].Burning = false }), false},
		{"calibration disagrees", committed, report(func(r *loadReport) { r.Calibration[0].ServerAgree = false }), false},
		{"calibration without server histogram", committed, report(func(r *loadReport) {
			r.Calibration[0] = loadEndpointRow{Endpoint: "locate"}
		}), true},
		{"multi-campaign phase missing", committed, report(func(r *loadReport) { r.MultiCampaign = nil }), false},
		{"multi-campaign phase missing without baseline", nil, report(func(r *loadReport) { r.MultiCampaign = nil }), true},
		{"multi-campaign 3 rows", committed, report(func(r *loadReport) { r.MultiCampaign.Rows = r.MultiCampaign.Rows[:3] }), false},
		{"multi-campaign baseline below 0.9", committed, report(func(r *loadReport) { r.MultiCampaign.Baseline.AchievedQPS = 224 }), false},
		{"multi-campaign shard below 0.9", committed, report(func(r *loadReport) { r.MultiCampaign.Rows[2].AchievedQPS = 56 }), false},
		// The shard bound is 1.25 × the in-phase single-campaign p99
		// (10 ms) + 50 ms = 62.5 ms.
		{"multi-campaign shard at bound", committed, report(func(r *loadReport) {
			r.MultiCampaign.Rows[3].Endpoints[0].Corrected.P99 = 62.5
		}), true},
		{"multi-campaign shard above bound", committed, report(func(r *loadReport) {
			r.MultiCampaign.Rows[3].Endpoints[0].Corrected.P99 = 62.6
		}), false},
		{"upload p99 at 2x", committed, report(func(r *loadReport) { r.Endpoints[0].Corrected.P99 = 200 }), true},
		{"upload p99 above 2x", committed, report(func(r *loadReport) { r.Endpoints[0].Corrected.P99 = 201 }), false},
		{"locate p99 above 2x", committed, report(func(r *loadReport) { r.Endpoints[1].Corrected.P99 = 20.1 }), false},
		// Only upload and locate are bounded against the committed file.
		{"claim p99 above 2x", committed, report(func(r *loadReport) { r.Endpoints[2].Corrected.P99 = 50 }), true},
		{"p99 above 2x without baseline", nil, report(func(r *loadReport) { r.Endpoints[0].Corrected.P99 = 500 }), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := checkLoadGate(tt.gate, tt.fresh)
			if tt.pass && err != nil {
				t.Errorf("gate failed: %v", err)
			}
			if !tt.pass && err == nil {
				t.Error("gate passed, want failure")
			}
		})
	}
}
