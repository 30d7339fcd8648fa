// Package metrics is a zero-dependency Prometheus exposition-format
// exporter for the serving layer: counters, gauges and fixed-bucket
// histograms whose hot-path updates are single atomic operations, a
// registry that renders them in the text format Prometheus scrapes
// (https://prometheus.io/docs/instrumenting/exposition_formats/), and
// an http.Handler for GET /metrics.
//
// The package exists so the server can be instrumented without pulling
// client_golang (the container bakes no new dependencies): the subset
// implemented here — counter, gauge, histogram, const labels via the
// *Vec families, callback collectors for values owned by another
// structure — is exactly what the tcserver dashboards and the CI SLO
// gates consume.
//
// Hot-path cost: Counter.Inc and Gauge.Inc are one atomic add;
// Histogram.Observe is a branch-free bucket walk plus two atomic adds
// and one CAS loop for the float sum. Vec lookups take a read lock on
// the family's child map; instrument sites that run per-request should
// resolve their child once (With) and reuse it when the label values
// are static.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// metricType is the TYPE line vocabulary of the exposition format.
type metricType string

const (
	typeCounter   metricType = "counter"
	typeGauge     metricType = "gauge"
	typeHistogram metricType = "histogram"
)

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are a programming error; counters only
// go up — use a Gauge for values that fall).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down. It stores float64 bits
// atomically so Set can carry non-integral values (ratios, seconds).
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (atomically, via CAS).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution. Buckets are cumulative in
// the exposition output (le="x" counts observations <= x), but stored
// per-bucket so Observe touches exactly one bucket counter.
type Histogram struct {
	bounds []float64       // ascending upper bounds, +Inf implicit
	counts []atomic.Uint64 // len(bounds)+1; last = +Inf overflow
	count  atomic.Uint64
	sum    Gauge // float64 CAS accumulator
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// DefBuckets is the default latency bucket layout in seconds: 100µs to
// 10s, roughly logarithmic — wide enough for a cache-hit point query
// and a cross-fragment epoch rebuild on the same axis.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// family is one registered metric name: TYPE, HELP, the label schema,
// and the children keyed by their label values.
type family struct {
	name   string
	help   string
	typ    metricType
	labels []string

	mu       sync.RWMutex
	children map[string]*child

	// fn, when set, makes the family a callback collector: its single
	// unlabeled sample is read at scrape time from a value owned
	// elsewhere (a cache's counters, a dataset's epoch).
	fn func() float64

	buckets []float64 // histogram families only
}

// child is one labeled instance of a family.
type child struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	hist        *Histogram
}

// Registry holds the registered families and renders them.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// register adds a family, panicking on a duplicate or invalid name —
// metric registration is init-time wiring, where a loud failure beats
// a silently shadowed series.
func (r *Registry) register(name, help string, typ metricType, labels []string, buckets []float64, fn func() float64) *family {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) {
			panic(fmt.Sprintf("metrics: invalid label name %q on %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("metrics: duplicate registration of %q", name))
	}
	f := &family{
		name:     name,
		help:     help,
		typ:      typ,
		labels:   labels,
		children: make(map[string]*child),
		buckets:  buckets,
		fn:       fn,
	}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

// validName reports whether s matches the Prometheus metric/label name
// charset [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		letter := (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':'
		if !letter && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// Counter registers and returns an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, typeCounter, nil, nil, nil)
	return f.getOrCreate(nil).counter
}

// Gauge registers and returns an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, typeGauge, nil, nil, nil)
	return f.getOrCreate(nil).gauge
}

// Histogram registers and returns an unlabeled histogram over the
// given ascending bucket upper bounds (nil = DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.register(name, help, typeHistogram, nil, checkBuckets(name, buckets), nil)
	return f.getOrCreate(nil).hist
}

// CounterFunc registers a counter whose value is read from fn at
// scrape time — for monotonic values owned by another structure.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, help, typeCounter, nil, nil, fn)
}

// GaugeFunc registers a gauge whose value is read from fn at scrape
// time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, typeGauge, nil, nil, fn)
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("metrics: CounterVec %q needs labels", name))
	}
	return &CounterVec{f: r.register(name, help, typeCounter, labels, nil, nil)}
}

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("metrics: GaugeVec %q needs labels", name))
	}
	return &GaugeVec{f: r.register(name, help, typeGauge, labels, nil, nil)}
}

// HistogramVec registers a labeled histogram family (nil buckets =
// DefBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("metrics: HistogramVec %q needs labels", name))
	}
	return &HistogramVec{f: r.register(name, help, typeHistogram, labels, checkBuckets(name, buckets), nil)}
}

// checkBuckets validates ascending bounds, defaulting nil.
func checkBuckets(name string, buckets []float64) []float64 {
	if buckets == nil {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q buckets not strictly ascending at %d", name, i))
		}
	}
	return buckets
}

// CounterVec is a counter family addressed by label values.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (created on
// first use). The value count must match the registered label names.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.f.getOrCreate(labelValues).counter
}

// GaugeVec is a gauge family addressed by label values.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return v.f.getOrCreate(labelValues).gauge
}

// HistogramVec is a histogram family addressed by label values.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.f.getOrCreate(labelValues).hist
}

// getOrCreate resolves one labeled child, creating it under the write
// lock on first use. The fast path is a read-locked map hit that
// allocates nothing: the key — the label values joined by "\x00" — is
// built in a stack buffer, and indexing a map with string(key) copies
// nothing.
func (f *family) getOrCreate(labelValues []string) *child {
	if len(labelValues) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %q wants %d label values, got %d", f.name, len(f.labels), len(labelValues)))
	}
	var buf [128]byte
	key := buf[:0]
	for i, v := range labelValues {
		if i > 0 {
			key = append(key, 0)
		}
		key = append(key, v...)
	}
	f.mu.RLock()
	c, ok := f.children[string(key)]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok = f.children[string(key)]; ok {
		return c
	}
	c = &child{labelValues: append([]string(nil), labelValues...)}
	switch f.typ {
	case typeCounter:
		c.counter = &Counter{}
	case typeGauge:
		c.gauge = &Gauge{}
	case typeHistogram:
		c.hist = &Histogram{
			bounds: f.buckets,
			counts: make([]atomic.Uint64, len(f.buckets)+1),
		}
	}
	f.children[string(key)] = c
	return c
}

// WritePrometheus renders every registered family in exposition text
// format, families in registration order, children sorted by label
// values for deterministic output.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	families := append([]*family(nil), r.families...)
	r.mu.Unlock()
	for _, f := range families {
		if err := f.write(w); err != nil {
			return err
		}
	}
	return nil
}

// write renders one family.
func (f *family) write(w io.Writer) error {
	if f.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
		return err
	}
	if f.fn != nil {
		_, err := fmt.Fprintf(w, "%s %s\n", f.name, formatValue(f.fn()))
		return err
	}
	f.mu.RLock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	children := make([]*child, len(keys))
	for i, k := range keys {
		children[i] = f.children[k]
	}
	f.mu.RUnlock()
	for _, c := range children {
		if err := f.writeChild(w, c); err != nil {
			return err
		}
	}
	return nil
}

// writeChild renders one labeled instance.
func (f *family) writeChild(w io.Writer, c *child) error {
	base := labelString(f.labels, c.labelValues, "", "")
	switch f.typ {
	case typeCounter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, base, c.counter.Value())
		return err
	case typeGauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, base, formatValue(c.gauge.Value()))
		return err
	case typeHistogram:
		h := c.hist
		var cum uint64
		for i, bound := range h.bounds {
			cum += h.counts[i].Load()
			le := labelString(f.labels, c.labelValues, "le", formatValue(bound))
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, le, cum); err != nil {
				return err
			}
		}
		cum += h.counts[len(h.bounds)].Load()
		le := labelString(f.labels, c.labelValues, "le", "+Inf")
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, le, cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, base, formatValue(h.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, base, h.Count())
		return err
	}
	return nil
}

// labelString renders {k="v",...}, optionally appending one extra
// label (the histogram's le), or "" with no labels at all.
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", n, escapeLabel(values[i]))
	}
	if extraName != "" {
		if len(names) > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", extraName, extraValue)
	}
	sb.WriteByte('}')
	return sb.String()
}

// formatValue renders a float sample the way Prometheus expects:
// integral values without an exponent, +Inf/-Inf/NaN spelled out.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// escapeHelp escapes a HELP string per the format (backslash and
// newline).
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value (backslash, quote, newline).
// %q in labelString adds the quotes and escapes " and \, so only the
// newline needs mapping to the format's \n.
func escapeLabel(s string) string {
	return strings.ReplaceAll(s, "\n", "\\n")
}

// Snapshot flattens every current sample into a name{labels} -> value
// map: the /stats embedding and the machine-readable half of the
// tcload SLO report. Histograms contribute their _sum and _count plus
// per-quantile estimates under synthetic {q="..."} series.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	r.mu.Lock()
	families := append([]*family(nil), r.families...)
	r.mu.Unlock()
	for _, f := range families {
		if f.fn != nil {
			out[f.name] = f.fn()
			continue
		}
		f.mu.RLock()
		for _, c := range f.children {
			base := f.name + labelString(f.labels, c.labelValues, "", "")
			switch f.typ {
			case typeCounter:
				out[base] = float64(c.counter.Value())
			case typeGauge:
				out[base] = c.gauge.Value()
			case typeHistogram:
				out[f.name+"_sum"+labelString(f.labels, c.labelValues, "", "")] = c.hist.Sum()
				out[f.name+"_count"+labelString(f.labels, c.labelValues, "", "")] = float64(c.hist.Count())
			}
		}
		f.mu.RUnlock()
	}
	return out
}

// Handler serves the registry as GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
