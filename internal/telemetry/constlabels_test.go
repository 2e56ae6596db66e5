package telemetry

import (
	"strings"
	"testing"
)

// Two const-label views of one registry must share families while keeping
// their series apart via the constant label.
func TestConstLabelViewsPartitionSeries(t *testing.T) {
	reg := NewRegistry()
	a := reg.WithConstLabels("campaign", "alpha")
	b := reg.WithConstLabels("campaign", "beta")

	a.Counter("test_uploads_total", "uploads").Add(3)
	b.Counter("test_uploads_total", "uploads").Add(7)

	a.CounterVec("test_requests_total", "requests", "method").With("GET").Inc()
	b.CounterVec("test_requests_total", "requests", "method").With("GET").Add(2)

	out := reg.Expose()
	for _, want := range []string{
		`test_uploads_total{campaign="alpha"} 3`,
		`test_uploads_total{campaign="beta"} 7`,
		`test_requests_total{campaign="alpha",method="GET"} 1`,
		`test_requests_total{campaign="beta",method="GET"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// The view renders the whole root exposition, not a filtered slice.
	if got := a.Expose(); got != out {
		t.Error("view Expose differs from root Expose")
	}
}

// Per-view GaugeFunc callbacks must land as distinct labelled series on
// one family (the snapshot-age gauge is registered once per campaign).
func TestConstLabelViewGaugeFuncPerSeries(t *testing.T) {
	reg := NewRegistry()
	reg.WithConstLabels("campaign", "alpha").GaugeFunc("test_age_seconds", "age", func() float64 { return 1.5 })
	reg.WithConstLabels("campaign", "beta").GaugeFunc("test_age_seconds", "age", func() float64 { return 4 })
	// A root-level callback on another family keeps the legacy unlabelled
	// single-line form.
	reg.GaugeFunc("test_root_value", "root", func() float64 { return 9 })
	// Nil callbacks register the family without emitting a series.
	reg.GaugeFunc("test_catalogue_only", "doc", nil)

	out := reg.Expose()
	for _, want := range []string{
		`test_age_seconds{campaign="alpha"} 1.5`,
		`test_age_seconds{campaign="beta"} 4`,
		"\ntest_root_value 9\n",
		"# TYPE test_catalogue_only gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	if strings.Contains(out, "\ntest_catalogue_only") {
		t.Errorf("nil GaugeFunc emitted a series:\n%s", out)
	}
}

// Histograms through a view must carry the constant label on every
// _bucket/_sum/_count row, and Families must report the merged label set.
func TestConstLabelViewHistogramAndFamilies(t *testing.T) {
	reg := NewRegistry()
	v := reg.WithConstLabels("campaign", "alpha")
	v.Histogram("test_latency_seconds", "latency", []float64{0.1, 1}).Observe(0.5)
	v.HistogramVec("test_stage_seconds", "stage latency", []float64{1}, "stage").With("match").Observe(2)

	out := reg.Expose()
	for _, want := range []string{
		`test_latency_seconds_bucket{campaign="alpha",le="0.1"} 0`,
		`test_latency_seconds_bucket{campaign="alpha",le="+Inf"} 1`,
		`test_latency_seconds_count{campaign="alpha"} 1`,
		`test_stage_seconds_bucket{campaign="alpha",stage="match",le="+Inf"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}

	var found bool
	for _, fi := range v.Families() {
		if fi.Name == "test_stage_seconds" {
			found = true
			if len(fi.Labels) != 2 || fi.Labels[0] != "campaign" || fi.Labels[1] != "stage" {
				t.Errorf("merged labels = %v, want [campaign stage]", fi.Labels)
			}
		}
	}
	if !found {
		t.Error("view Families missing test_stage_seconds")
	}
}

// Views of a nil registry stay nil-safe no-ops, and composing views stacks
// the constant labels.
func TestConstLabelViewNilAndNesting(t *testing.T) {
	var nilReg *Registry
	v := nilReg.WithConstLabels("campaign", "x")
	if v != nil {
		t.Fatal("view of nil registry should be nil")
	}
	v.Counter("test_noop", "noop").Inc() // must not panic

	reg := NewRegistry()
	nested := reg.WithConstLabels("campaign", "alpha").WithConstLabels("shard", "0")
	nested.Counter("test_nested_total", "nested").Inc()
	if want := `test_nested_total{campaign="alpha",shard="0"} 1`; !strings.Contains(reg.Expose(), want) {
		t.Errorf("exposition missing %q\n%s", want, reg.Expose())
	}
}

// A view whose constant values are empty must still key its labelled
// series apart from the per-call values: the constant label renders empty
// and the per-call label keeps its value.
func TestConstLabelViewEmptyValue(t *testing.T) {
	reg := NewRegistry()
	reg.WithConstLabels("campaign", "alpha").CounterVec("test_shed_total", "shed", "cause").With("queue_full").Inc()
	reg.WithConstLabels("campaign", "").CounterVec("test_shed_total", "shed", "cause").With("body_limit").Add(2)
	out := reg.Expose()
	for _, want := range []string{
		`test_shed_total{campaign="alpha",cause="queue_full"} 1`,
		`test_shed_total{campaign="",cause="body_limit"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}
