// Metrics: a hand-rolled, stdlib-only registry of counters, gauges and
// fixed-bucket histograms rendered in the Prometheus text exposition
// format. The hot path — Inc/Add/Set/Observe and vec lookups — is
// lock-free: instruments are atomics and vec series live in a sync.Map,
// so concurrent request handlers never contend on a registry mutex.
// Registration and rendering are cold paths and take a mutex.
//
// Every constructor is nil-receiver safe: a nil *Registry hands out nil
// instruments, and every instrument method on a nil receiver is a no-op,
// so library code can be instrumented unconditionally and pays (almost)
// nothing when no registry is configured.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (callers pass non-negative deltas; counters only go up).
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float-valued metric that can go up and down. The value is
// stored as float64 bits and swapped atomically.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta with a CAS loop.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed cumulative buckets.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; an implicit +Inf follows
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

// DurationBuckets is the default bucket layout for stage and request
// durations in seconds: half a millisecond to ten seconds.
func DurationBuckets() []float64 {
	return []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
		0.1, 0.25, 0.5, 1, 2.5, 5, 10}
}

func newHistogram(bounds []float64) *Histogram {
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	sort.Float64s(h.bounds)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// metricKind is the Prometheus TYPE of a family.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// family is one metric name: its metadata plus the series keyed by joined
// label values ("" for the unlabelled singleton).
type family struct {
	name       string
	help       string
	kind       metricKind
	labelNames []string
	bounds     []float64 // histograms only

	series sync.Map // joined label values -> instrument (hot-path lookups)
	fns    sync.Map // joined const-label values -> func() float64 (GaugeFunc)
}

const labelSep = "\x00"

// newSeries creates the family's instrument type.
func (f *family) newSeries() any {
	switch f.kind {
	case kindCounter:
		return &Counter{}
	case kindGauge:
		return &Gauge{}
	default:
		return newHistogram(f.bounds)
	}
}

// lookup returns the instrument for the joined key, creating it on first
// use. The fast path is a lock-free sync.Map load.
func (f *family) lookup(key string) any {
	if v, ok := f.series.Load(key); ok {
		return v
	}
	v, _ := f.series.LoadOrStore(key, f.newSeries())
	return v
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. The zero registry is not usable; a nil *Registry is a
// valid no-op source of nil instruments.
//
// A Registry obtained from WithConstLabels is a *view*: it owns no
// families of its own but registers into its root with the constant label
// names prepended, and every instrument it hands out is pinned to the
// constant values. Views let N copies of the same instrument bundle (one
// per campaign, say) share one family, partitioned by the constant label.
type Registry struct {
	mu      sync.Mutex
	ordered []*family
	byName  map[string]*family

	// View state (nil/empty on a root registry).
	root       *Registry
	constNames []string
	constVals  []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// WithConstLabels returns a view of the registry that injects the given
// constant label pairs (name, value, name, value, ...) into every family
// registered through it: the family's label set gains the constant names
// (leading), and every series the view mints carries the constant values.
// Rendering and introspection on a view cover the whole root registry.
// Nil-safe; calling it on a view composes the pairs.
func (r *Registry) WithConstLabels(pairs ...string) *Registry {
	if r == nil {
		return nil
	}
	if len(pairs)%2 != 0 {
		panic("telemetry: WithConstLabels requires name/value pairs")
	}
	root := r
	if r.root != nil {
		root = r.root
	}
	names := append([]string(nil), r.constNames...)
	vals := append([]string(nil), r.constVals...)
	for i := 0; i < len(pairs); i += 2 {
		names = append(names, pairs[i])
		vals = append(vals, pairs[i+1])
	}
	return &Registry{root: root, constNames: names, constVals: vals}
}

// constKey is the joined constant label values ("" on a root registry).
func (r *Registry) constKey() string {
	return strings.Join(r.constVals, labelSep)
}

// vecPrefix is the series-key prefix a labelled family minted through r
// carries: the constant label values and a trailing separator on a view,
// "" on a root registry. The separator is what keeps a view whose
// constant values are all empty apart from the root.
func (r *Registry) vecPrefix() string {
	if len(r.constNames) == 0 {
		return ""
	}
	return r.constKey() + labelSep
}

// seriesKey joins a view's key prefix with per-call label values into one
// family series key.
func seriesKey(prefix string, values []string) string {
	return prefix + strings.Join(values, labelSep)
}

// register returns the family for name, creating it with the given shape.
// Re-registering an existing name returns the existing family when the
// shape matches and panics otherwise — two call sites disagreeing on a
// metric's type is a programming error worth failing loudly on.
func (r *Registry) register(name, help string, kind metricKind, labels []string, bounds []float64) *family {
	if r.root != nil {
		merged := append(append([]string(nil), r.constNames...), labels...)
		return r.root.register(name, help, kind, merged, bounds)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != kind || !equalStrings(f.labelNames, labels) {
			panic(fmt.Sprintf("telemetry: metric %q re-registered with a different shape", name))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind,
		labelNames: append([]string(nil), labels...),
		bounds:     append([]float64(nil), bounds...)}
	r.byName[name] = f
	r.ordered = append(r.ordered, f)
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter registers (or finds) an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindCounter, nil, nil).lookup(r.constKey()).(*Counter)
}

// Gauge registers (or finds) an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindGauge, nil, nil).lookup(r.constKey()).(*Gauge)
}

// GaugeFunc registers a gauge whose value is computed by fn at render
// time (render is a cold path, so the callback may do real work). On a
// const-label view each view contributes its own labelled series, so N
// campaigns can each bind their own callback to one family. A nil fn
// registers the family (for catalogue purposes) without a series.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	f := r.register(name, help, kindGauge, nil, nil)
	if fn != nil {
		f.fns.Store(r.constKey(), fn)
	}
}

// Histogram registers (or finds) an unlabelled histogram with the given
// upper bucket bounds (an implicit +Inf bucket is appended).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindHistogram, nil, bounds).lookup(r.constKey()).(*Histogram)
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct {
	f      *family
	prefix string // vecPrefix of the registry that minted it
}

// CounterVec registers a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.register(name, help, kindCounter, labels, nil), prefix: r.vecPrefix()}
}

// With returns the series for the given label values (order matches the
// registered label names).
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.lookup(seriesKey(v.prefix, values)).(*Counter)
}

// GaugeVec is a gauge family partitioned by label values.
type GaugeVec struct {
	f      *family
	prefix string
}

// GaugeVec registers a labelled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.register(name, help, kindGauge, labels, nil), prefix: r.vecPrefix()}
}

// With returns the series for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.lookup(seriesKey(v.prefix, values)).(*Gauge)
}

// HistogramVec is a histogram family partitioned by label values.
type HistogramVec struct {
	f      *family
	prefix string
}

// HistogramVec registers a labelled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{f: r.register(name, help, kindHistogram, labels, bounds), prefix: r.vecPrefix()}
}

// With returns the series for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.lookup(seriesKey(v.prefix, values)).(*Histogram)
}

// Render writes every registered family in the Prometheus text exposition
// format: families in registration order, series within a family sorted by
// label values, histograms expanded to _bucket/_sum/_count.
func (r *Registry) Render(w io.Writer) {
	if r == nil {
		return
	}
	if r.root != nil {
		r.root.Render(w)
		return
	}
	r.mu.Lock()
	families := append([]*family(nil), r.ordered...)
	r.mu.Unlock()

	for _, f := range families {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
		type row struct {
			key  string
			inst any
		}
		var rows []row
		f.fns.Range(func(k, v any) bool {
			rows = append(rows, row{k.(string), v})
			return true
		})
		f.series.Range(func(k, v any) bool {
			// A callback series shadows a stored series on the same key.
			if _, dup := f.fns.Load(k); dup {
				return true
			}
			rows = append(rows, row{k.(string), v})
			return true
		})
		sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key })
		for _, rw := range rows {
			labels := labelPairs(f.labelNames, rw.key)
			switch inst := rw.inst.(type) {
			case func() float64:
				fmt.Fprintf(w, "%s%s %s\n", f.name, renderLabels(labels), formatValue(inst()))
			case *Counter:
				fmt.Fprintf(w, "%s%s %d\n", f.name, renderLabels(labels), inst.Value())
			case *Gauge:
				fmt.Fprintf(w, "%s%s %s\n", f.name, renderLabels(labels), formatValue(inst.Value()))
			case *Histogram:
				cum := uint64(0)
				for i, bound := range inst.bounds {
					cum += inst.counts[i].Load()
					le := append(append([][2]string(nil), labels...), [2]string{"le", formatValue(bound)})
					fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, renderLabels(le), cum)
				}
				cum += inst.counts[len(inst.bounds)].Load()
				le := append(append([][2]string(nil), labels...), [2]string{"le", "+Inf"})
				fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, renderLabels(le), cum)
				fmt.Fprintf(w, "%s_sum%s %s\n", f.name, renderLabels(labels), formatValue(inst.Sum()))
				fmt.Fprintf(w, "%s_count%s %d\n", f.name, renderLabels(labels), inst.Count())
			}
		}
	}
}

// FamilyInfo describes one registered metric family — the introspection
// surface behind the generated docs/METRICS.md catalogue.
type FamilyInfo struct {
	Name   string
	Help   string
	Kind   string // counter, gauge, histogram
	Labels []string
}

// Families returns metadata for every registered family in registration
// order.
func (r *Registry) Families() []FamilyInfo {
	if r == nil {
		return nil
	}
	if r.root != nil {
		return r.root.Families()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]FamilyInfo, 0, len(r.ordered))
	for _, f := range r.ordered {
		out = append(out, FamilyInfo{
			Name:   f.name,
			Help:   f.help,
			Kind:   string(f.kind),
			Labels: append([]string(nil), f.labelNames...),
		})
	}
	return out
}

// Expose returns the full exposition as a string.
func (r *Registry) Expose() string {
	var b strings.Builder
	r.Render(&b)
	return b.String()
}

// Handler serves the exposition at GET level (any method; scrape tools use
// GET) with the text-format content type.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte(r.Expose()))
	})
}

// labelPairs splits a joined series key back into (name, value) pairs.
func labelPairs(names []string, key string) [][2]string {
	if len(names) == 0 {
		return nil
	}
	values := strings.Split(key, labelSep)
	pairs := make([][2]string, 0, len(names))
	for i, n := range names {
		v := ""
		if i < len(values) {
			v = values[i]
		}
		pairs = append(pairs, [2]string{n, v})
	}
	return pairs
}

// renderLabels renders {a="x",b="y"}, or "" when empty.
func renderLabels(pairs [][2]string) string {
	if len(pairs) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p[0])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p[1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the text format: backslash, quote
// and newline.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// escapeHelp escapes a HELP string: backslash and newline.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatValue renders a float the way Prometheus expects: shortest
// round-trip representation, +Inf/-Inf/NaN spelled out.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
