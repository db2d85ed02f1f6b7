// Package obs is a stdlib-only observability substrate for the serving
// system: counters, gauges, and fixed-bucket latency histograms collected
// in a Registry, exposed in Prometheus text format, bridged to expvar, and
// mounted alongside net/http/pprof on an ops mux.
//
// The primitives are lock-free on the write path (atomic adds and a CAS
// loop for histogram sums), so the selection hot loops in internal/regress
// and internal/core can record stage timings without contending on a
// registry mutex: metric handles are resolved once and then written to
// with atomics only.
package obs

import (
	"fmt"
	"maps"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative; negative deltas are ignored).
func (c *Counter) Add(n int) {
	if n > 0 {
		c.v.Add(uint64(n))
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increments the gauge by delta via a CAS loop.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram in the Prometheus cumulative
// style: bounds are inclusive upper limits, with an implicit +Inf bucket.
type Histogram struct {
	bounds  []float64       // ascending upper bounds
	counts  []atomic.Uint64 // len(bounds)+1 per-bucket (non-cumulative) counts
	sumBits atomic.Uint64   // Σ observed values, as float64 bits
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Start returns a stop function that observes the elapsed time when
// called: defer h.Start()() times a whole function body.
func (h *Histogram) Start() func() {
	t := time.Now()
	return func() { h.ObserveDuration(time.Since(t)) }
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var total uint64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	return total
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// snapshot returns cumulative bucket counts (per Prometheus exposition),
// the total count, and the sum, reading each bucket once.
func (h *Histogram) snapshot() (cumulative []uint64, count uint64, sum float64) {
	cumulative = make([]uint64, len(h.counts))
	var running uint64
	for i := range h.counts {
		running += h.counts[i].Load()
		cumulative[i] = running
	}
	return cumulative, running, h.Sum()
}

// DurationBuckets are the default latency buckets, spanning microsecond
// solver stages through multi-second exact-solver budgets.
var DurationBuckets = []float64{
	1e-6, 5e-6, 25e-6, 1e-4, 5e-4, 2.5e-3, 1e-2, 5e-2, 0.25, 1, 5, 30, 60,
}

// Labels attaches dimension values to a metric series.
type Labels map[string]string

// renderLabels produces the canonical `{k="v",...}` form with keys sorted,
// or "" for an empty label set. Used both as the series key and verbatim
// in the exposition.
func renderLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// metricKind discriminates the series types of a family.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled instance of a metric family.
type series struct {
	labels string // rendered label string ("" when unlabeled)
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups all series sharing a metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	bounds []float64 // histogram families only
	series []*series // insertion order; sorted at exposition time
	index  map[string]*series
}

// Registry is a set of named metric families. All methods are safe for
// concurrent use; metric handles returned by Counter/Gauge/Histogram are
// stable and should be cached by hot paths.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	names    []string // insertion order for stable iteration
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// lookup returns the family and series for (name, labels), creating either
// as needed. It panics when the name is reused with a different kind —
// that is a programming error the exposition format cannot represent.
func (r *Registry) lookup(name, help string, kind metricKind, bounds []float64, labels Labels) *series {
	key := renderLabels(labels)
	r.mu.RLock()
	if f, ok := r.families[name]; ok {
		s, ok := f.index[key]
		if ok && f.kind == kind {
			r.mu.RUnlock()
			return s
		}
	}
	r.mu.RUnlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, bounds: bounds, index: map[string]*series{}}
		r.families[name] = f
		r.names = append(r.names, name)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %v (was %v)", name, kind, f.kind))
	}
	s, ok := f.index[key]
	if !ok {
		s = &series{labels: key}
		switch kind {
		case kindCounter:
			s.c = &Counter{}
		case kindGauge:
			s.g = &Gauge{}
		case kindHistogram:
			h := &Histogram{bounds: f.bounds}
			h.counts = make([]atomic.Uint64, len(f.bounds)+1)
			s.h = h
		}
		f.index[key] = s
		f.series = append(f.series, s)
	}
	return s
}

// Counter returns (creating on first use) the counter series for
// (name, labels).
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	return r.lookup(name, help, kindCounter, nil, labels).c
}

// Gauge returns (creating on first use) the gauge series for (name, labels).
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	return r.lookup(name, help, kindGauge, nil, labels).g
}

// Histogram returns (creating on first use) the histogram series for
// (name, labels). buckets defaults to DurationBuckets when nil; the first
// registration of a name fixes the bucket layout for the whole family.
func (r *Registry) Histogram(name, help string, buckets []float64, labels Labels) *Histogram {
	if buckets == nil {
		buckets = DurationBuckets
	}
	return r.lookup(name, help, kindHistogram, buckets, labels).h
}

// CounterSet memoizes the counter series of one family over a small key
// set (a route, a backend and outcome, a status code), for hot paths that
// would otherwise render labels and take the registry lock on every event.
// A series is still created at its key's first use — exactly when an
// uncached Counter call would have created it — so the exposition is
// unchanged; later uses cost one atomic load and a map read.
type CounterSet[K comparable] struct {
	reg    *Registry
	name   string
	help   string
	labels func(K) Labels

	mu sync.Mutex                     // serializes first uses
	m  atomic.Pointer[map[K]*Counter] // copy-on-write; never mutated once stored
}

// NewCounterSet returns a set over the family (name, help) whose series for
// key k carries labels(k).
func NewCounterSet[K comparable](reg *Registry, name, help string, labels func(K) Labels) *CounterSet[K] {
	return &CounterSet[K]{reg: reg, name: name, help: help, labels: labels}
}

// With returns the counter for key k, resolving it on first use.
func (s *CounterSet[K]) With(k K) *Counter {
	if m := s.m.Load(); m != nil {
		if c, ok := (*m)[k]; ok {
			return c
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.m.Load()
	if old != nil {
		if c, ok := (*old)[k]; ok {
			return c
		}
	}
	c := s.reg.Counter(s.name, s.help, s.labels(k))
	next := map[K]*Counter{}
	if old != nil {
		next = maps.Clone(*old)
	}
	next[k] = c
	s.m.Store(&next)
	return c
}
