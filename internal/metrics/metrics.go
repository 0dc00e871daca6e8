// Package metrics is the deterministic, allocation-conscious telemetry
// registry behind the observability plane. It is a leaf package (std-lib
// only, like sim): the data plane (vmm, netsim, core) and the control
// plane both feed it, and a run's end-of-run snapshot is its output.
//
// Determinism is the design constraint (the op-log digests are the repo's
// regression oracle, and metrics snapshots join them): there is no wall
// clock anywhere, no map-order iteration — families snapshot in
// registration order, labeled children in first-use order — and histogram
// buckets are fixed at construction. Two runs with the same seed render
// byte-identical snapshots.
//
// The hot-path surface allocates nothing: Counter.Inc/Add are plain field
// updates, Histogram.Observe is a linear bucket scan over a fixed bound
// slice, and Vec.With interns its child on first use so steady-state
// lookups are one map read. Gauges are functions evaluated at snapshot
// time, so live state exports without a write on every change.
package metrics

import (
	"fmt"
	"sort"
	"strings"
)

// Kind discriminates metric families.
type Kind int

// Metric family kinds.
const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "?"
	}
}

// family is one registered metric family. Scalar families have exactly one
// child with an empty label value; labeled families (vecs) intern children
// in first-use order.
type family struct {
	name  string
	help  string
	kind  Kind
	label string // label key for vecs; "" for scalars

	children []*child
	byLabel  map[string]*child

	// mergeSamples, when set, renders this family's samples instead of
	// walking children: by merging per-shard cells (sharded.go), or from a
	// function over live state (NewGaugeSetFunc). Its output is sorted by
	// label value — a partition-independent order — rather than first-use
	// order, which would vary with the shard count.
	mergeSamples func() []Sample
}

// child is one sample series of a family: a scalar counter value, a
// deferred gauge function, or a histogram's bucket state.
type child struct {
	labelValue string

	counter uint64
	gaugeFn func() float64

	// Histogram state: bounds are the fixed inclusive upper bounds (the
	// implicit +Inf bucket is counts[len(bounds)]); sum accumulates observed
	// values (int64 — observations are sim durations or counts, never wall
	// time).
	bounds []int64
	counts []uint64
	sum    int64
	count  uint64
}

// Registry holds metric families in registration order.
type Registry struct {
	families []*family
	byName   map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func (r *Registry) register(name, help string, kind Kind, label string) *family {
	if name == "" {
		panic("metrics: empty metric name")
	}
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("metrics: duplicate metric %q", name))
	}
	f := &family{name: name, help: help, kind: kind, label: label}
	if label != "" {
		f.byLabel = make(map[string]*child)
	}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

func (f *family) scalarChild() *child {
	if len(f.children) == 0 {
		f.children = append(f.children, &child{})
	}
	return f.children[0]
}

// with interns the child for a label value, in first-use order. First-use
// order is deterministic per seed: the simulation drives every metric
// mutation, so the same run touches labels in the same order.
func (f *family) with(labelValue string) *child {
	if c, ok := f.byLabel[labelValue]; ok {
		return c
	}
	c := &child{labelValue: labelValue}
	f.byLabel[labelValue] = c
	f.children = append(f.children, c)
	return c
}

// Counter is a monotonically increasing uint64.
type Counter struct{ c *child }

// Inc adds one.
func (c Counter) Inc() { c.c.counter++ }

// Add adds n.
func (c Counter) Add(n uint64) { c.c.counter += n }

// Value reads the current count.
func (c Counter) Value() uint64 { return c.c.counter }

// Histogram is a fixed-bucket distribution: Observe(v) increments the
// first bucket whose upper bound is >= v (or the implicit +Inf bucket).
type Histogram struct{ c *child }

// Observe records one value.
func (h Histogram) Observe(v int64) {
	c := h.c
	// Linear scan: bucket counts are small (tens) and the scan beats the
	// branch-misses of a binary search at that size.
	i := 0
	for i < len(c.bounds) && v > c.bounds[i] {
		i++
	}
	c.counts[i]++
	c.sum += v
	c.count++
}

// Count reports total observations.
func (h Histogram) Count() uint64 { return h.c.count }

// Sum reports the sum of observed values.
func (h Histogram) Sum() int64 { return h.c.sum }

// CounterVec is a counter family keyed by one label.
type CounterVec struct{ f *family }

// With returns the child counter for the label value, interning it on
// first use.
func (v CounterVec) With(labelValue string) Counter { return Counter{v.f.with(labelValue)} }

// HistogramVec is a histogram family keyed by one label; every child
// shares the family's fixed bounds.
type HistogramVec struct {
	f      *family
	bounds []int64
}

// With returns the child histogram for the label value.
func (v HistogramVec) With(labelValue string) Histogram {
	c := v.f.with(labelValue)
	if c.counts == nil {
		c.bounds = v.bounds
		c.counts = make([]uint64, len(v.bounds)+1)
	}
	return Histogram{c}
}

// NewCounter registers a scalar counter.
func (r *Registry) NewCounter(name, help string) Counter {
	return Counter{r.register(name, help, KindCounter, "").scalarChild()}
}

// NewGaugeFunc registers a gauge evaluated at snapshot time — how live
// state (a disk backlog, an occupancy count) exports without a write on
// every change. fn runs on the snapshotting goroutine: keep it a pure read.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, KindGauge, "").scalarChild().gaugeFn = fn
}

// NewHistogram registers a scalar histogram over fixed inclusive upper
// bounds, which must be strictly increasing.
func (r *Registry) NewHistogram(name, help string, bounds []int64) Histogram {
	c := r.register(name, help, KindHistogram, "").scalarChild()
	c.bounds = validateBounds(name, bounds)
	c.counts = make([]uint64, len(c.bounds)+1)
	return Histogram{c}
}

// NewCounterVec registers a counter family keyed by one label.
func (r *Registry) NewCounterVec(name, help, label string) CounterVec {
	return CounterVec{r.register(name, help, KindCounter, nonEmptyLabel(name, label))}
}

// NewGaugeFuncVec registers a gauge family whose children are deferred
// functions; add children with Add.
type GaugeFuncVec struct{ f *family }

// NewGaugeFuncVec registers a deferred-gauge family keyed by one label.
func (r *Registry) NewGaugeFuncVec(name, help, label string) GaugeFuncVec {
	return GaugeFuncVec{r.register(name, help, KindGauge, nonEmptyLabel(name, label))}
}

// Add registers the child gauge function for a label value.
func (v GaugeFuncVec) Add(labelValue string, fn func() float64) {
	v.f.with(labelValue).gaugeFn = fn
}

// NewGaugeSetFunc registers a gauge family keyed by one label whose whole
// sample set is computed at snapshot time: fn emits one value per label
// value that exists right now, so the family follows a population that
// comes and goes (resident guests) instead of accumulating a child for
// everything it ever saw. Samples render sorted by label value.
func (r *Registry) NewGaugeSetFunc(name, help, label string, fn func(emit func(labelValue string, v float64))) {
	f := r.register(name, help, KindGauge, nonEmptyLabel(name, label))
	f.mergeSamples = func() []Sample {
		var out []Sample
		fn(func(labelValue string, v float64) {
			out = append(out, Sample{LabelValue: labelValue, Gauge: v})
		})
		sort.Slice(out, func(i, j int) bool { return out[i].LabelValue < out[j].LabelValue })
		return out
	}
}

// NewHistogramVec registers a histogram family keyed by one label, every
// child sharing the fixed bounds.
func (r *Registry) NewHistogramVec(name, help, label string, bounds []int64) HistogramVec {
	f := r.register(name, help, KindHistogram, nonEmptyLabel(name, label))
	return HistogramVec{f: f, bounds: validateBounds(name, bounds)}
}

func nonEmptyLabel(name, label string) string {
	if label == "" {
		panic(fmt.Sprintf("metrics: vec %q needs a label key", name))
	}
	return label
}

func validateBounds(name string, bounds []int64) []int64 {
	if len(bounds) == 0 {
		panic(fmt.Sprintf("metrics: histogram %q needs at least one bucket bound", name))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q bounds not strictly increasing at %d", name, i))
		}
	}
	return append([]int64(nil), bounds...)
}

// ExpBuckets returns n strictly increasing bounds starting at start,
// multiplying by factor (> 1) — the usual latency ladder.
func ExpBuckets(start int64, factor float64, n int) []int64 {
	if start <= 0 || factor <= 1 || n <= 0 {
		panic(fmt.Sprintf("metrics: ExpBuckets(%d, %v, %d)", start, factor, n))
	}
	out := make([]int64, n)
	v := float64(start)
	for i := range out {
		b := int64(v)
		if i > 0 && b <= out[i-1] {
			b = out[i-1] + 1
		}
		out[i] = b
		v *= factor
	}
	return out
}

// Sample is one rendered series of a snapshot.
type Sample struct {
	// LabelValue is empty for scalar families.
	LabelValue string `json:"label,omitempty"`
	// Counter/gauge value (Kind decides which field is meaningful).
	Counter uint64  `json:"counter,omitempty"`
	Gauge   float64 `json:"gauge,omitempty"`
	// Histogram state.
	Bounds []int64  `json:"bounds,omitempty"`
	Counts []uint64 `json:"counts,omitempty"`
	Sum    int64    `json:"sum,omitempty"`
	Count  uint64   `json:"count,omitempty"`
}

// Family is one rendered metric family of a snapshot, in registration
// order.
type Family struct {
	Name    string   `json:"name"`
	Help    string   `json:"help,omitempty"`
	Kind    string   `json:"kind"`
	Label   string   `json:"labelKey,omitempty"`
	Samples []Sample `json:"samples"`
}

// Snapshot renders every family in registration order, children in
// first-use order, evaluating gauge functions. The result aliases nothing
// mutable — it is safe to hand to another goroutine.
func (r *Registry) Snapshot() []Family {
	out := make([]Family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f.snapshot())
	}
	return out
}

// snapshot renders one family, evaluating gauge functions.
func (f *family) snapshot() Family {
	fam := Family{Name: f.name, Help: f.help, Kind: f.kind.String(), Label: f.label}
	if f.mergeSamples != nil {
		fam.Samples = f.mergeSamples()
		return fam
	}
	for _, c := range f.children {
		s := Sample{LabelValue: c.labelValue}
		switch f.kind {
		case KindCounter:
			s.Counter = c.counter
		case KindGauge:
			s.Gauge = c.gaugeFn()
		case KindHistogram:
			s.Bounds = c.bounds
			s.Counts = append([]uint64(nil), c.counts...)
			s.Sum = c.sum
			s.Count = c.count
		}
		fam.Samples = append(fam.Samples, s)
	}
	return fam
}

// WriteProm renders the registry in the Prometheus text exposition format,
// deterministically (registration order, first-use child order).
func (r *Registry) WriteProm(b *strings.Builder) {
	for _, fam := range r.Snapshot() {
		if fam.Help != "" {
			fmt.Fprintf(b, "# HELP %s %s\n", fam.Name, fam.Help)
		}
		fmt.Fprintf(b, "# TYPE %s %s\n", fam.Name, fam.Kind)
		for _, s := range fam.Samples {
			switch fam.Kind {
			case "counter":
				fmt.Fprintf(b, "%s%s %d\n", fam.Name, promLabels(fam.Label, s.LabelValue), s.Counter)
			case "gauge":
				fmt.Fprintf(b, "%s%s %g\n", fam.Name, promLabels(fam.Label, s.LabelValue), s.Gauge)
			case "histogram":
				cum := uint64(0)
				for i, n := range s.Counts {
					cum += n
					le := "+Inf"
					if i < len(s.Bounds) {
						le = fmt.Sprintf("%d", s.Bounds[i])
					}
					fmt.Fprintf(b, "%s_bucket%s %d\n", fam.Name, promLabelsLe(fam.Label, s.LabelValue, le), cum)
				}
				fmt.Fprintf(b, "%s_sum%s %d\n", fam.Name, promLabels(fam.Label, s.LabelValue), s.Sum)
				fmt.Fprintf(b, "%s_count%s %d\n", fam.Name, promLabels(fam.Label, s.LabelValue), s.Count)
			}
		}
	}
}

// Prom renders the registry as a Prometheus text page.
func (r *Registry) Prom() string {
	var b strings.Builder
	r.WriteProm(&b)
	return b.String()
}

func promLabels(key, value string) string {
	if key == "" {
		return ""
	}
	return `{` + key + `="` + value + `"}`
}

func promLabelsLe(key, value, le string) string {
	if key == "" {
		return `{le="` + le + `"}`
	}
	return `{` + key + `="` + value + `",le="` + le + `"}`
}

// WriteJSON renders the registry as canonical JSON: one object per family
// in registration order, children in first-use order, fields in a fixed
// order, no floating-point formatting surprises (%g like Prometheus). Two
// identical runs render byte-identical documents — the goldens of
// scenarios/churn.yaml's three seeds (internal/scenario/testdata, what
// `stopwatch-sim run -metrics-out` writes) pin exactly this form.
func (r *Registry) WriteJSON(b *strings.Builder) {
	b.WriteString("{\n  \"families\": [\n")
	fams := r.Snapshot()
	for i, fam := range fams {
		fmt.Fprintf(b, "    {\"name\": %q, \"kind\": %q", fam.Name, fam.Kind)
		if fam.Label != "" {
			fmt.Fprintf(b, ", \"labelKey\": %q", fam.Label)
		}
		b.WriteString(", \"samples\": [")
		for j, s := range fam.Samples {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString("{")
			if s.LabelValue != "" {
				fmt.Fprintf(b, "\"label\": %q, ", s.LabelValue)
			}
			switch fam.Kind {
			case "counter":
				fmt.Fprintf(b, "\"value\": %d", s.Counter)
			case "gauge":
				fmt.Fprintf(b, "\"value\": %g", s.Gauge)
			case "histogram":
				b.WriteString("\"buckets\": [")
				for k, n := range s.Counts {
					if k > 0 {
						b.WriteString(", ")
					}
					fmt.Fprintf(b, "%d", n)
				}
				fmt.Fprintf(b, "], \"sum\": %d, \"count\": %d", s.Sum, s.Count)
			}
			b.WriteString("}")
		}
		b.WriteString("]}")
		if i < len(fams)-1 {
			b.WriteString(",")
		}
		b.WriteString("\n")
	}
	b.WriteString("  ]\n}\n")
}

// JSON renders the registry as a canonical JSON document.
func (r *Registry) JSON() string {
	var b strings.Builder
	r.WriteJSON(&b)
	return b.String()
}

// Lookup returns the family's samples by metric name (tests, admission
// reporting). The boolean reports whether the family exists.
func (r *Registry) Lookup(name string) ([]Sample, bool) {
	f, ok := r.byName[name]
	if !ok {
		return nil, false
	}
	return f.snapshot().Samples, true
}
