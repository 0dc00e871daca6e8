// Package metrics is the deterministic telemetry registry behind the
// observability plane. It is a leaf package (std-lib only, like sim).
//
// The registry keeps no counter of its own: every family is a function,
// evaluated at snapshot time, over state its owner already keeps — the
// fabric's per-kind packet counts, a host's proposal-latency buckets, the
// control plane's operations log. So a registry attached late reads the
// same totals as one attached at construction, and an uninstrumented run
// does exactly the work of an instrumented one.
//
// Determinism is the design constraint (the op-log digests are the repo's
// regression oracle, and metrics snapshots join them): there is no wall
// clock anywhere, no map-order iteration — families snapshot in
// registration order, labeled samples sorted by label value — and
// histogram buckets are fixed. Two runs with the same seed render
// byte-identical snapshots. Histogram is the one value type an owner
// keeps: Observe is a linear bucket scan that allocates nothing.
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

// family is one registered metric family. Its samples are read at
// snapshot time from state its owner already keeps; the registry holds no
// value of its own.
type family struct {
	name  string
	help  string
	kind  Kind
	label string // label key for sets; "" for scalars

	samples func() []Sample
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

func (r *Registry) register(name, help string, kind Kind, label string, samples func() []Sample) {
	if name == "" {
		panic("metrics: empty metric name")
	}
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("metrics: duplicate metric %q", name))
	}
	f := &family{name: name, help: help, kind: kind, label: label, samples: samples}
	r.families = append(r.families, f)
	r.byName[name] = f
}

// registerSet registers a labeled family whose sample set each emits at
// snapshot time, one sample per label value that exists right now, sorted
// by label value.
func (r *Registry) registerSet(name, help string, kind Kind, label string, each func(emit func(Sample))) {
	if label == "" {
		panic(fmt.Sprintf("metrics: set %q needs a label key", name))
	}
	r.register(name, help, kind, label, func() []Sample {
		var out []Sample
		each(func(s Sample) { out = append(out, s) })
		sort.Slice(out, func(i, j int) bool { return out[i].LabelValue < out[j].LabelValue })
		return out
	})
}

// NewCounterFunc registers a counter read at snapshot time: fn returns a
// total its owner already keeps. fn runs on the snapshotting goroutine:
// keep it a pure read. So do the other Func registrations.
func (r *Registry) NewCounterFunc(name, help string, fn func() uint64) {
	r.register(name, help, KindCounter, "", func() []Sample { return []Sample{{Counter: fn()}} })
}

// NewGaugeFunc registers a gauge evaluated at snapshot time — how live
// state (a disk backlog, an occupancy count) exports without a write on
// every change.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, KindGauge, "", func() []Sample { return []Sample{{Gauge: fn()}} })
}

// NewHistogramFunc registers a histogram read at snapshot time.
func (r *Registry) NewHistogramFunc(name, help string, fn func() Histogram) {
	r.register(name, help, KindHistogram, "", func() []Sample { return []Sample{fn().sample("")} })
}

// NewCounterSetFunc registers a counter family keyed by one label: fn
// emits one total per label value.
func (r *Registry) NewCounterSetFunc(name, help, label string, fn func(emit func(labelValue string, v uint64))) {
	r.registerSet(name, help, KindCounter, label, func(emit func(Sample)) {
		fn(func(l string, v uint64) { emit(Sample{LabelValue: l, Counter: v}) })
	})
}

// NewGaugeSetFunc registers a gauge family keyed by one label: fn emits
// one value per label value that exists right now, so the family follows a
// population that comes and goes (resident guests) instead of accumulating
// a sample for everything it ever saw.
func (r *Registry) NewGaugeSetFunc(name, help, label string, fn func(emit func(labelValue string, v float64))) {
	r.registerSet(name, help, KindGauge, label, func(emit func(Sample)) {
		fn(func(l string, v float64) { emit(Sample{LabelValue: l, Gauge: v}) })
	})
}

// NewHistogramSetFunc registers a histogram family keyed by one label: fn
// emits one histogram per label value.
func (r *Registry) NewHistogramSetFunc(name, help, label string, fn func(emit func(labelValue string, h Histogram))) {
	r.registerSet(name, help, KindHistogram, label, func(emit func(Sample)) {
		fn(func(l string, h Histogram) { emit(h.sample(l)) })
	})
}

// Histogram is a fixed-bucket distribution: the value an owner keeps and
// a histogram family reads. Observe(v) counts v in the first bucket whose
// inclusive upper bound is >= v, or in the implicit +Inf bucket. Make one
// with NewHistogram; the zero value has no buckets.
type Histogram struct {
	bounds []int64
	counts []uint64
	sum    int64 // observations are sim durations or counts, never wall time
	count  uint64
}

// NewHistogram returns an empty histogram over fixed inclusive upper
// bounds, which must be strictly increasing. The bounds are shared, not
// copied: pass a package-level ladder and never change it.
func NewHistogram(bounds []int64) Histogram {
	if len(bounds) == 0 {
		panic("metrics: a histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram bounds not strictly increasing at %d", i))
		}
	}
	return Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe records one value. It allocates nothing.
func (h *Histogram) Observe(v int64) {
	// Linear scan: bucket counts are small (tens) and the scan beats the
	// branch-misses of a binary search at that size.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.count++
}

// Merge adds o's observations to h; both must share one ladder.
func (h *Histogram) Merge(o Histogram) {
	for i, n := range o.counts {
		h.counts[i] += n
	}
	h.sum += o.sum
	h.count += o.count
}

// sample renders h, its counts copied so the sample aliases nothing
// mutable.
func (h Histogram) sample(labelValue string) Sample {
	return Sample{LabelValue: labelValue, Bounds: h.bounds, Counts: append([]uint64(nil), h.counts...), Sum: h.sum, Count: h.count}
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

// Snapshot renders every family in registration order, labeled samples
// sorted by label value, reading each family's source. The result aliases
// nothing mutable — it is safe to hand to another goroutine.
func (r *Registry) Snapshot() []Family {
	out := make([]Family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, Family{Name: f.name, Help: f.help, Kind: f.kind.String(), Label: f.label, Samples: f.samples()})
	}
	return out
}

// WriteProm renders the registry in the Prometheus text exposition format,
// deterministically (registration order, samples sorted by label).
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
// in registration order, samples sorted by label, fields in a fixed
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
	return f.samples(), true
}
