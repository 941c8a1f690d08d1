// Package obs is the library's zero-dependency observability layer: a
// metrics registry exposed in Prometheus text format and a ring-buffered
// per-job trace recorder. It exists so every layer of the stack — the
// sweep engine, the execution tiers, the serve node, and the cluster
// coordinator — can report what it is doing through one seam without
// pulling a third-party client library into a stdlib-only module.
//
// Two rules shape the API. First, instrument handles are resolved once
// and then updated with a single atomic operation: Registry.Counter and
// friends are called at construction time, the returned *Counter /
// *Gauge / *Histogram is cached by the instrumented component, and the
// hot path never touches a map or a lock. Second, everything is nil-safe:
// calling Inc/Set/Observe on a nil instrument, or Event on a nil Trace,
// is a no-op — so library code can thread optional observation through
// without guarding every call site, and benchmarks with observation
// disabled pay only a nil check.
//
// Values that are cheap to read but expensive to push (queue depths,
// cache occupancy) are sampled at scrape time instead: register a
// gather hook with Registry.OnGather and set gauges there, or expose a
// read-only source directly with CounterFunc/GaugeFunc.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// maxSeries bounds the number of label combinations one family will
// track. The registry is meant for bounded label sets (stack depths, states,
// tenants under quota); past the cap every new combination collapses
// into a single overflow series so a label-cardinality bug cannot grow
// memory without bound.
const maxSeries = 1024

// overflowLabel is the label value the overflow series carries.
const overflowLabel = "overflow"

// Counter is a monotonically increasing metric. The zero value is ready
// to use; a nil *Counter ignores updates.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n; negative n is ignored (counters only go up).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. A nil *Gauge ignores
// updates.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adjusts the gauge by d (which may be negative).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the gauge's current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// DefBuckets is the default latency histogram layout: 100µs to 5
// minutes, the span between a verdict-store hit and a large checkpointed
// sweep. Bounds are in seconds, matching the *_seconds naming
// convention.
var DefBuckets = []float64{
	0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 15, 60, 300,
}

// Histogram is a fixed-bucket distribution. Buckets are cumulative in
// the exposition, per-bucket internally; Observe is lock-free (one
// atomic add per observation plus a CAS loop for the sum). A nil
// *Histogram ignores observations.
type Histogram struct {
	bounds []float64      // sorted upper bounds, +Inf implicit
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Uint64  // float64 bits
	count  atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations recorded.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// snapshot returns cumulative bucket counts, the sum, and the count,
// consistent enough for exposition (individual atomics may lag one
// in-flight observation).
func (h *Histogram) snapshot() (cum []int64, sum float64, count int64) {
	cum = make([]int64, len(h.counts))
	var run int64
	for i := range h.counts {
		run += h.counts[i].Load()
		cum[i] = run
	}
	return cum, math.Float64frombits(h.sum.Load()), h.count.Load()
}

// family is one named metric with zero or more labeled series.
type family struct {
	name    string
	help    string
	typ     string // "counter", "gauge", "histogram"
	labels  []string
	buckets []float64 // histogram families only

	mu     sync.Mutex
	series map[string]any // label key → *Counter | *Gauge | *Histogram
	order  []string
	lsets  map[string][]string // label key → label values

	fn func() float64 // CounterFunc/GaugeFunc families
}

// Registry holds a set of metric families and renders them in
// Prometheus text exposition format. The zero value is not usable; call
// New. A nil *Registry returns nil instruments from every constructor,
// so a component written against an optional registry degrades to
// no-ops throughout.
type Registry struct {
	mu       sync.Mutex
	byName   map[string]*family
	order    []*family
	gatherMu sync.Mutex
	hooks    []func()
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{byName: map[string]*family{}}
}

// OnGather registers fn to run at the start of every exposition, before
// any family is rendered — the seam for sampling values that are read
// on demand rather than pushed (queue depths, cache occupancy, stats
// snapshots).
func (r *Registry) OnGather(fn func()) {
	if r == nil || fn == nil {
		return
	}
	r.gatherMu.Lock()
	r.hooks = append(r.hooks, fn)
	r.gatherMu.Unlock()
}

// register resolves (or creates) the family for name, enforcing that a
// name keeps one type and label set for the registry's lifetime.
func (r *Registry) register(name, help, typ string, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s with %d labels (was %s with %d)",
				name, typ, len(labels), f.typ, len(f.labels)))
		}
		return f
	}
	f := &family{
		name:    name,
		help:    help,
		typ:     typ,
		labels:  append([]string(nil), labels...),
		buckets: append([]float64(nil), buckets...),
		series:  map[string]any{},
		lsets:   map[string][]string{},
	}
	r.byName[name] = f
	r.order = append(r.order, f)
	return f
}

// with resolves the series for the given label values, creating it with
// mk on first use and collapsing into the overflow series past
// maxSeries.
func (f *family) with(values []string, mk func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	if len(f.order) >= maxSeries {
		of := make([]string, len(f.labels))
		for i := range of {
			of[i] = overflowLabel
		}
		key = strings.Join(of, "\xff")
		if s, ok := f.series[key]; ok {
			return s
		}
		values = of
	}
	s := mk()
	f.series[key] = s
	f.order = append(f.order, key)
	f.lsets[key] = append([]string(nil), values...)
	return s
}

// Counter returns the counter named name, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	f := r.register(name, help, "counter", nil, nil)
	return f.with(nil, func() any { return &Counter{} }).(*Counter)
}

// Gauge returns the gauge named name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	f := r.register(name, help, "gauge", nil, nil)
	return f.with(nil, func() any { return &Gauge{} }).(*Gauge)
}

// Histogram returns the histogram named name with the given bucket
// upper bounds (DefBuckets when nil), creating it on first use.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	f := r.register(name, help, "histogram", nil, buckets)
	return f.with(nil, func() any { return newHistogram(f.buckets) }).(*Histogram)
}

// CounterVec declares a labeled counter family; use With to resolve a
// series. A nil registry returns a nil vec whose With returns nil.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.register(name, help, "counter", labels, nil)}
}

// GaugeVec declares a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.register(name, help, "gauge", labels, nil)}
}

// HistogramVec declares a labeled histogram family (DefBuckets when
// buckets is nil).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramVec{f: r.register(name, help, "histogram", labels, buckets)}
}

// CounterFunc exposes a counter whose value is read from fn at every
// exposition — for sources that already keep their own monotone count.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	f := r.register(name, help, "counter", nil, nil)
	f.fn = fn
}

// GaugeFunc exposes a gauge whose value is read from fn at every
// exposition.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	f := r.register(name, help, "gauge", nil, nil)
	f.fn = fn
}

// CounterVec resolves labeled counters. Series handles should be cached
// by the caller when the label set is known up front.
type CounterVec struct{ f *family }

// With returns the series for the given label values.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.with(values, func() any { return &Counter{} }).(*Counter)
}

// GaugeVec resolves labeled gauges.
type GaugeVec struct{ f *family }

// With returns the series for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.with(values, func() any { return &Gauge{} }).(*Gauge)
}

// HistogramVec resolves labeled histograms.
type HistogramVec struct{ f *family }

// With returns the series for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	f := v.f
	return f.with(values, func() any { return newHistogram(f.buckets) }).(*Histogram)
}
