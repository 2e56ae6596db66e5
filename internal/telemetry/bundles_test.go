package telemetry

import (
	"reflect"
	"testing"
)

// Every instrument bundle built over a nil registry must be a set of
// nil-safe instruments, so code wired without telemetry records into it
// unguarded. The walk is by reflection: a future bundle field of another
// type fails here before any caller can trip over it.
func TestNilRegistryBundlesAreNoOps(t *testing.T) {
	for _, b := range []any{
		NewIngestMetrics(nil),
		NewDispatchMetrics(nil),
		NewSnapshotMetrics(nil),
		NewHTTPMetrics(nil),
		NewCampaignMetrics(nil),
		NewAdmissionMetrics(nil),
		NewLocateMetrics(nil),
		NewEventMetrics(nil),
	} {
		v := reflect.ValueOf(b).Elem()
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				continue
			}
			name := v.Type().Name() + "." + f.Name
			switch inst := v.Field(i).Interface().(type) {
			case *Counter:
				exerciseCounter(t, name, inst)
			case *Gauge:
				exerciseGauge(t, name, inst)
			case *Histogram:
				exerciseHistogram(t, name, inst)
			case *CounterVec:
				exerciseCounter(t, name, inst.With("a", "b", "c"))
			case *GaugeVec:
				exerciseGauge(t, name, inst.With("a"))
			case *HistogramVec:
				exerciseHistogram(t, name, inst.With("a"))
			default:
				t.Errorf("%s: %s is not a nil-safe instrument type", name, f.Type)
			}
		}
	}
	NewSnapshotMetrics(nil).Published()
}

func exerciseCounter(t *testing.T, name string, c *Counter) {
	c.Inc()
	c.Add(2)
	if c.Value() != 0 {
		t.Errorf("%s: counter over a nil registry reads %d", name, c.Value())
	}
}

func exerciseGauge(t *testing.T, name string, g *Gauge) {
	g.Set(3)
	g.Add(1)
	g.Inc()
	g.Dec()
	if g.Value() != 0 {
		t.Errorf("%s: gauge over a nil registry reads %v", name, g.Value())
	}
}

func exerciseHistogram(t *testing.T, name string, h *Histogram) {
	h.Observe(0.5)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Errorf("%s: histogram over a nil registry holds %d obs", name, h.Count())
	}
}

// Resolve fills a missing logger with a discarding one and leaves the
// nil-safe registry and tracer as they are.
func TestResolve(t *testing.T) {
	var none *Telemetry
	r := none.Resolve()
	if r.Logger == nil || r.Registry != nil || r.Tracer != nil {
		t.Fatalf("nil bundle resolved to %+v", r)
	}
	r.Logger.Info("dropped")

	full := New(nil, 4)
	r = full.Resolve()
	if r.Registry != full.Registry || r.Tracer != full.Tracer || r.Logger == nil {
		t.Fatalf("bundle resolved to %+v", r)
	}
	if full.Logger != nil {
		t.Error("Resolve wrote into the caller's bundle")
	}
}
