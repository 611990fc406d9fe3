// Package metrics is the platform's metric registry: named counters, gauges,
// and fixed-bucket log2 histograms, each optionally carrying the canonical
// label triple (virtual function, queue, operation). One registry absorbs the
// controller's scattered Stats fields, the AER-style MMIO counters, and the
// span-derived stage latencies behind a single exportable surface
// (Prometheus text format and JSON snapshots).
//
// Design constraints, in order:
//
//   - Virtual-time neutrality: recording a sample never touches the
//     simulation engine. Metrics are pure bookkeeping on the host side of
//     the simulator, so enabling them cannot perturb an experiment.
//   - Zero allocation on the hot path: instrument handles are resolved once
//     (GetOrCreate-style lookup keyed by a comparable struct) and then
//     updated with plain field arithmetic. A nil instrument is a valid
//     no-op receiver, so disabled telemetry costs one predictable branch.
//   - Bounded cardinality: each family caps its series count; overflowing
//     series collapse into a single "other" series and are counted, never
//     silently dropped.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Labels is the canonical label triple. The zero value means "no labels"
// (a scalar series). VF and Q use -1 for "not applicable" so that VF 0 (the
// PF) stays representable.
type Labels struct {
	VF int    // function index (0 = PF), -1 = unlabelled
	Q  int    // queue-pair index, -1 = unlabelled
	Op string // operation ("read", "write", "verify", ...), "" = unlabelled
}

// NoLabels is the explicit unlabelled triple.
var NoLabels = Labels{VF: -1, Q: -1}

// VFLabel labels a series by function index only.
func VFLabel(vf int) Labels { return Labels{VF: vf, Q: -1} }

// VFQOp labels a series with the full triple.
func VFQOp(vf, q int, op string) Labels { return Labels{VF: vf, Q: q, Op: op} }

// MaxSeriesPerFamily is the per-family label-cardinality cap. Distinct label
// sets beyond
// the cap aggregate into shared per-op overflow series — the per-VF identity
// is lost above the cap, the per-op totals are not — and every aggregated
// set is counted (Dropped, nesc_metrics_series_dropped_total).
const MaxSeriesPerFamily = 256

// kind discriminates families for exporters.
type kind uint8

const (
	kindCounter kind = iota
	kindGaugeFunc
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// family is one named metric with its labelled series.
type family struct {
	name string
	help string
	kind kind
	// series is the GetOrCreate cache; order preserves first-registration
	// sequence for deterministic export.
	series  map[Labels]*series
	order   []*series
	dropped int64 // label sets refused by the cardinality cap
}

// series is one (family, labels) instrument. Exactly one of the value
// fields is live, per the family kind.
type series struct {
	labels Labels
	c      Counter
	fn     func() float64
	h      Histogram
}

// Registry holds metric families. A nil *Registry is a valid disabled
// registry: every constructor returns nil, and nil instruments no-op.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []*family
}

// New returns an empty, enabled registry.
func New() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Enabled reports whether the registry records anything.
func (r *Registry) Enabled() bool { return r != nil }

// lookup finds or creates the (name, labels) series, enforcing the family
// kind and the cardinality cap. Returns nil on a disabled registry.
func (r *Registry) lookup(name, help string, k kind, l Labels) *series {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: k, series: make(map[Labels]*series)}
		r.families[name] = f
		r.order = append(r.order, f)
	}
	if f.kind != k {
		panic(fmt.Sprintf("metrics: family %q registered as %v, requested as %v", name, f.kind, k))
	}
	if s, ok := f.series[l]; ok {
		return s
	}
	if len(f.order) >= MaxSeriesPerFamily {
		f.dropped++
		// Aggregate into a shared overflow series rather than dropping the
		// observation. The op dimension survives aggregation (one overflow
		// series per op), so a 1024-VF run still separates read from write
		// latency above the cap; only the per-VF identity collapses.
		over := Labels{VF: -1, Q: -1, Op: "overflow"}
		if l.Op != "" {
			over.Op = l.Op + "_overflow"
		}
		if s, ok := f.series[over]; ok {
			return s
		}
		l = over
	}
	s := &series{labels: l}
	f.series[l] = s
	f.order = append(f.order, s)
	return s
}

// Counter returns the named counter series, creating it on first use.
func (r *Registry) Counter(name, help string, l Labels) *Counter {
	s := r.lookup(name, help, kindCounter, l)
	if s == nil {
		return nil
	}
	return &s.c
}

// GaugeFunc registers fn as the live value of the named series; the function
// is sampled at export time. Re-registering the same series replaces the
// function (an experiment harness rebuilds platforms; the freshest platform
// wins).
func (r *Registry) GaugeFunc(name, help string, l Labels, fn func() float64) {
	s := r.lookup(name, help, kindGaugeFunc, l)
	if s == nil {
		return
	}
	r.mu.Lock()
	s.fn = fn
	r.mu.Unlock()
}

// Histogram returns the named histogram series, creating it on first use.
func (r *Registry) Histogram(name, help string, l Labels) *Histogram {
	s := r.lookup(name, help, kindHistogram, l)
	if s == nil {
		return nil
	}
	return &s.h
}

// Dropped reports how many label sets the named family refused under the
// cardinality cap.
func (r *Registry) Dropped(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		return f.dropped
	}
	return 0
}

// DroppedTotal sums the label sets every family refused (aggregated into
// overflow series) under the cardinality cap.
func (r *Registry) DroppedTotal() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var n int64
	for _, f := range r.order {
		n += f.dropped
	}
	return n
}

// Counter is a monotonically increasing count. Nil receivers no-op.
type Counter struct{ v int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v += n
	}
}

// Value reports the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// HistogramBuckets is the fixed bucket count: bucket i counts observations
// in (2^(i-1), 2^i] for i >= 1, bucket 0 counts (-inf, 1]; the implicit
// overflow bucket counts everything above 2^(HistogramBuckets-1). With 40
// buckets the top finite bound is 2^39 ns ≈ 9.2 virtual minutes — far beyond
// any request latency the simulator produces.
const HistogramBuckets = 40

// Histogram is a fixed-bucket log2 latency histogram over non-negative
// values (nanoseconds by convention; the metric name carries the unit).
// Observation is two integer increments and a float add — no allocation,
// no engine interaction. Nil receivers no-op.
type Histogram struct {
	buckets  [HistogramBuckets]int64
	overflow int64
	count    int64
	sum      float64
}

// bucketIndex maps a value to its bucket: the smallest i with v <= 2^i.
func bucketIndex(v int64) int {
	if v <= 1 {
		return 0
	}
	// bits.Len-style scan without importing math/bits at every call site;
	// the compiler lowers this loop, but clarity wins here: find the
	// position of the highest set bit of v-1.
	i := 0
	for x := v - 1; x > 0; x >>= 1 {
		i++
	}
	return i
}

// Observe records one value. Negative values clamp to the first bucket.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count++
	h.sum += float64(v)
	i := bucketIndex(v)
	if i >= HistogramBuckets {
		h.overflow++
		return
	}
	h.buckets[i]++
}

// Count reports the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum reports the observation total (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Mean reports the arithmetic mean (0 when empty or nil).
func (h *Histogram) Mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Overflow reports the count above the last finite bucket bound.
func (h *Histogram) Overflow() int64 {
	if h == nil {
		return 0
	}
	return h.overflow
}

// UpperBound reports bucket i's inclusive upper bound (2^i, with bucket 0
// bounded at 1).
func UpperBound(i int) int64 { return int64(1) << uint(i) }

// Quantile estimates the q-th quantile (0 <= q <= 1) from the buckets,
// using the geometric interior of the winning bucket. Returns 0 when empty.
// The estimate is bounded by one bucket width — a factor of 2 — which is
// the deal log2 histograms offer in exchange for fixed memory.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.count)
	var cum float64
	for i := 0; i < HistogramBuckets; i++ {
		cum += float64(h.buckets[i])
		if cum >= rank && h.buckets[i] > 0 {
			if i == 0 {
				return 1
			}
			lo, hi := float64(UpperBound(i-1)), float64(UpperBound(i))
			return math.Sqrt(lo * hi) // geometric midpoint
		}
	}
	// Rank falls in the overflow bucket: report the last finite bound as a
	// floor (the honest answer is "at least this").
	return float64(UpperBound(HistogramBuckets - 1))
}

// snapshot is the exporter-facing frozen view of one family.
type snapshot struct {
	name    string
	help    string
	kind    kind
	series  []seriesSnapshot
	dropped int64
}

type seriesSnapshot struct {
	labels   Labels
	value    float64 // counter / gauge value
	hist     *Histogram
	histCopy Histogram
}

// snapshots freezes the registry in deterministic order: families sorted by
// name, series by (VF, Q, Op).
func (r *Registry) snapshots() []snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]snapshot, 0, len(r.order))
	for _, f := range r.order {
		sn := snapshot{name: f.name, help: f.help, kind: f.kind, dropped: f.dropped}
		for _, s := range f.order {
			ss := seriesSnapshot{labels: s.labels}
			switch f.kind {
			case kindCounter:
				ss.value = float64(s.c.Value())
			case kindGaugeFunc:
				if s.fn != nil {
					ss.value = s.fn()
				}
			case kindHistogram:
				ss.histCopy = s.h
				ss.hist = &ss.histCopy
			}
			sn.series = append(sn.series, ss)
		}
		sort.Slice(sn.series, func(i, j int) bool {
			a, b := sn.series[i].labels, sn.series[j].labels
			if a.VF != b.VF {
				return a.VF < b.VF
			}
			if a.Q != b.Q {
				return a.Q < b.Q
			}
			return a.Op < b.Op
		})
		out = append(out, sn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
