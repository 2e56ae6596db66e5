package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"snaptask/internal/experiments"
)

func TestSampleCurve(t *testing.T) {
	curve := []experiments.CurvePoint{
		{Photos: 100, CoveragePct: 10},
		{Photos: 300, CoveragePct: 30},
		{Photos: 700, CoveragePct: 70},
	}
	cov := func(p experiments.CurvePoint) float64 { return p.CoveragePct }
	tests := []struct {
		n    int
		want float64
	}{
		{50, -1},  // series not started
		{100, 10}, // exact hit
		{200, 10}, // last point at or below
		{500, 30},
		{900, 70},
	}
	for _, tt := range tests {
		if got := sampleCurve(curve, tt.n, cov); got != tt.want {
			t.Errorf("sampleCurve(%d) = %v, want %v", tt.n, got, tt.want)
		}
	}
}

func TestFmtPct(t *testing.T) {
	if got := fmtPct(-1); got != "-" {
		t.Errorf("fmtPct(-1) = %q", got)
	}
	if got := fmtPct(63.672); got != "63.7%" {
		t.Errorf("fmtPct = %q", got)
	}
}

func TestShrink(t *testing.T) {
	in := "##..\n....\n__..\n....\n"
	out := shrink(in, 2)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("rows = %d, want 2", len(lines))
	}
	// Block (0,0) contains '#' → '#'; block (1,0) contains '.' → '.'.
	if lines[0] != "#." {
		t.Errorf("row 0 = %q, want \"#.\"", lines[0])
	}
	// Block with '_' and '.' prefers '.'.
	if lines[1][0] != '.' {
		t.Errorf("row 1 = %q", lines[1])
	}
	// Shrink factor 1 is identity.
	if got := shrink(in, 1); got != in {
		t.Errorf("shrink(1) changed the input:\n%q\n%q", in, got)
	}
}

func TestCheckIngestGate(t *testing.T) {
	committed := ingestReport{
		Venue:      "aalto-library",
		GoMaxProcs: 1,
		Sizes: []ingestRow{
			{Views: 120, FullMS: 300, IncrementalMS: 70, Identical: true},
			{Views: 1000, FullMS: 880, IncrementalMS: 100, Identical: true},
		},
	}
	// fresh returns a copy of the committed report with the largest-size
	// row rewritten by edit.
	fresh := func(edit func(r *ingestReport, last *ingestRow)) *ingestReport {
		r := committed
		r.Sizes = append([]ingestRow(nil), committed.Sizes...)
		edit(&r, &r.Sizes[len(r.Sizes)-1])
		return &r
	}
	tests := []struct {
		name  string
		fresh *ingestReport
		pass  bool
	}{
		{"unchanged", fresh(func(*ingestReport, *ingestRow) {}), true},
		{"faster", fresh(func(_ *ingestReport, l *ingestRow) { l.IncrementalMS = 40 }), true},
		{"within 2x", fresh(func(_ *ingestReport, l *ingestRow) { l.IncrementalMS = 199 }), true},
		{"at 2x", fresh(func(_ *ingestReport, l *ingestRow) { l.IncrementalMS = 200 }), true},
		{"over 2x", fresh(func(_ *ingestReport, l *ingestRow) { l.IncrementalMS = 201 }), false},
		// Losing the delta path makes every upload pay the full recompute.
		{"delta path lost", fresh(func(_ *ingestReport, l *ingestRow) { l.IncrementalMS = l.FullMS }), false},
		{"identical flips", fresh(func(_ *ingestReport, l *ingestRow) { l.Identical = false }), false},
		{"venue mismatch", fresh(func(r *ingestReport, _ *ingestRow) { r.Venue = "small" }), false},
		{"quick mismatch", fresh(func(r *ingestReport, _ *ingestRow) { r.Quick = true }), false},
		{"gomaxprocs mismatch", fresh(func(r *ingestReport, _ *ingestRow) { r.GoMaxProcs = 4 }), false},
		{"empty fresh", &ingestReport{Venue: committed.Venue, GoMaxProcs: committed.GoMaxProcs}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := checkIngestGate(&committed, tt.fresh)
			if tt.pass && err != nil {
				t.Errorf("gate failed: %v", err)
			}
			if !tt.pass && err == nil {
				t.Error("gate passed, want failure")
			}
		})
	}
	if err := checkIngestGate(&ingestReport{}, &committed); err == nil {
		t.Error("gate passed against an empty committed report")
	}
}

func TestCheckRestartGate(t *testing.T) {
	committed := restartReport{
		GoMaxProcs: 1,
		Rows: []restartRow{
			{Mult: 1, CheckpointMS: 20, FullReplayMS: 40},
			{Mult: 100, CheckpointMS: 14, FullReplayMS: 2700},
		},
		Ratio: 0.7,
	}
	// fresh returns a copy of the committed report rewritten by edit.
	fresh := func(edit func(r *restartReport)) *restartReport {
		r := committed
		r.Rows = append([]restartRow(nil), committed.Rows...)
		edit(&r)
		return &r
	}
	tests := []struct {
		name  string
		fresh *restartReport
		pass  bool
	}{
		{"unchanged", fresh(func(*restartReport) {}), true},
		{"within 2.0", fresh(func(r *restartReport) { r.Ratio = 1.9 }), true},
		{"at 2.0", fresh(func(r *restartReport) { r.Ratio = 2.0 }), true},
		{"above 2.0", fresh(func(r *restartReport) { r.Ratio = 2.1 }), false},
		{"quick mismatch", fresh(func(r *restartReport) { r.Quick = true }), false},
		{"gomaxprocs mismatch", fresh(func(r *restartReport) { r.GoMaxProcs = 4 }), false},
		{"empty rows", fresh(func(r *restartReport) { r.Rows = nil }), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := checkRestartGate(&committed, tt.fresh)
			if tt.pass && err != nil {
				t.Errorf("gate failed: %v", err)
			}
			if !tt.pass && err == nil {
				t.Error("gate passed, want failure")
			}
		})
	}
	if err := checkRestartGate(&restartReport{GoMaxProcs: 1}, &committed); err == nil {
		t.Error("gate passed against an empty committed report")
	}
}

func TestCheckOverheadGate(t *testing.T) {
	const budget = 0.02 // the CI -overhead-gate value
	tests := []struct {
		name      string
		ratios    []float64 // paired per-batch instrumented/bare ratios
		overPoint bool      // point estimate above the budget
		pass      bool
		wantErr   bool // no estimate at all
	}{
		{"all ratios 1", []float64{1, 1, 1, 1}, false, true, false},
		{"constant 5%", []float64{1.05, 1.05, 1.05, 1.05}, true, false, false},
		// Mean log-ratio ~+3.9% is over the budget, but two widely split
		// pairs put the 95% lower bound near -8%: noise, not overhead.
		{"mean above budget, lower bound under", []float64{0.9, 1.2}, true, true, false},
		{"no ratios", nil, false, false, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var logs []float64
			for _, r := range tt.ratios {
				logs = append(logs, math.Log(r))
			}
			point, lower, err := overheadEstimate(logs)
			if tt.wantErr {
				if err == nil {
					t.Fatalf("estimate over %v: no error", tt.ratios)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if lower > point {
				t.Errorf("lower bound %v above point estimate %v", lower, point)
			}
			if over := point > budget; over != tt.overPoint {
				t.Errorf("point estimate %.4f over budget = %v, want %v", point, over, tt.overPoint)
			}
			err = checkOverheadGate(point, lower, budget)
			if pass := err == nil; pass != tt.pass {
				t.Errorf("point %.4f lower %.4f: gate pass=%v, want %v (err %v)", point, lower, pass, tt.pass, err)
			}
		})
	}
}

// TestReportFlagsRejected checks that -out and -gate on an experiment
// without a report fail before the venue setup runs, and so before any
// file is written.
func TestReportFlagsRejected(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.json")
	tests := [][]string{
		{"-exp", "fig8", "-out", out},
		{"-exp", "all", "-out", out},
		{"-exp", "table1", "-gate", out},
		{"-exp", "overhead", "-gate", out},
		{"-exp", "bogus", "-out", out},
	}
	for _, args := range tests {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			start := time.Now()
			err := run(args)
			if err == nil || !strings.Contains(err.Error(), "-out/-gate do not apply") {
				t.Fatalf("run(%q) = %v, want the -out/-gate error", args, err)
			}
			if d := time.Since(start); d > 2*time.Second {
				t.Errorf("rejection took %v: the venue setup ran first", d)
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Errorf("%s exists after a rejected run (stat err %v)", out, err)
			}
		})
	}
}
