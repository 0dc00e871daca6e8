package metrics

import (
	"strings"
	"testing"
)

// TestCounterBasics: a counter family reads its owner's total at snapshot
// time, so it shows what the owner counted before and after registration.
func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	ops := uint64(4)
	r.NewCounterFunc("ops_total", "ops", func() uint64 { return ops })
	ops++
	s, ok := r.Lookup("ops_total")
	if !ok || len(s) != 1 || s[0].Counter != 5 {
		t.Fatalf("counter samples = %+v (ok=%v), want one sample of 5", s, ok)
	}
}

func TestGaugeFuncEvaluatedAtSnapshot(t *testing.T) {
	r := NewRegistry()
	live := 0
	r.NewGaugeFunc("live", "live things", func() float64 { return float64(live) })
	live = 7
	fams := r.Snapshot()
	if got := fams[0].Samples[0].Gauge; got != 7 {
		t.Fatalf("gauge func snapshot = %v, want 7", got)
	}
	live = 9
	if got := r.Snapshot()[0].Samples[0].Gauge; got != 9 {
		t.Fatalf("gauge func re-snapshot = %v, want 9", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := NewHistogram([]int64{10, 100, 1000})
	r.NewHistogramFunc("lat", "latency", func() Histogram { return h })
	for _, v := range []int64{1, 5, 10, 11, 99, 100, 500, 5000} {
		h.Observe(v)
	}
	s := r.Snapshot()[0].Samples[0]
	if s.Count != 8 {
		t.Fatalf("count = %d, want 8", s.Count)
	}
	if s.Sum != 1+5+10+11+99+100+500+5000 {
		t.Fatalf("sum = %d", s.Sum)
	}
	// Bounds inclusive: <=10 catches {1,5,10}; <=100 {11,99,100}; <=1000 {500}; +Inf {5000}.
	want := []uint64{3, 3, 1, 1}
	for i, n := range want {
		if s.Counts[i] != n {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, s.Counts[i], n, s.Counts)
		}
	}
	// The snapshot copied the counts: a later observation does not reach it.
	h.Observe(1)
	if s.Counts[0] != 3 {
		t.Fatalf("snapshot aliases the live buckets: %v", s.Counts)
	}
}

// TestSetSamplesSortByLabel: a labeled family renders its samples sorted
// by label value, whatever order its source emits them in.
func TestSetSamplesSortByLabel(t *testing.T) {
	r := NewRegistry()
	r.NewCounterSetFunc("pkts_total", "packets", "kind", func(emit func(string, uint64)) {
		emit("b", 2)
		emit("a", 1)
	})
	s, ok := r.Lookup("pkts_total")
	if !ok || len(s) != 2 {
		t.Fatalf("lookup: ok=%v samples=%v", ok, s)
	}
	if s[0].LabelValue != "a" || s[0].Counter != 1 || s[1].LabelValue != "b" || s[1].Counter != 2 {
		t.Fatalf("samples = %+v, want a=1 then b=2", s)
	}
}

func TestSnapshotRegistrationOrderAndDeterminism(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.NewCounterFunc("z_first", "registered first", func() uint64 { return 0 })
		r.NewHistogramSetFunc("h", "hist", "phase", func(emit func(string, Histogram)) {
			q, p := NewHistogram([]int64{1, 2}), NewHistogram([]int64{1, 2})
			q.Observe(1)
			p.Observe(3)
			emit("quiesce", q)
			emit("pause", p)
		})
		r.NewGaugeSetFunc("g", "gauge", "host", func(emit func(string, float64)) {
			emit("host1", 1)
			emit("host0", 2)
		})
		return r
	}
	a, b := build(), build()
	if a.Prom() != b.Prom() {
		t.Fatalf("prom render not deterministic:\n%s\nvs\n%s", a.Prom(), b.Prom())
	}
	if a.JSON() != b.JSON() {
		t.Fatalf("json render not deterministic")
	}
	prom := a.Prom()
	// Registration order: z_first (despite sorting last alphabetically)
	// renders before h and g.
	zi, hi, gi := strings.Index(prom, "z_first"), strings.Index(prom, "# TYPE h "), strings.Index(prom, "# TYPE g ")
	if !(zi < hi && hi < gi) {
		t.Fatalf("families not in registration order: z@%d h@%d g@%d\n%s", zi, hi, gi, prom)
	}
	// Samples sort by label, not by emission order.
	if q, p := strings.Index(prom, `phase="quiesce"`), strings.Index(prom, `phase="pause"`); p > q {
		t.Fatalf("samples not sorted by label:\n%s", prom)
	}
}

func TestPromHistogramCumulativeBuckets(t *testing.T) {
	r := NewRegistry()
	h := NewHistogram([]int64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(500)
	r.NewHistogramFunc("lat", "", func() Histogram { return h })
	prom := r.Prom()
	for _, want := range []string{
		`lat_bucket{le="10"} 1`,
		`lat_bucket{le="100"} 2`,
		`lat_bucket{le="+Inf"} 3`,
		"lat_sum 555",
		"lat_count 3",
	} {
		if !strings.Contains(prom, want) {
			t.Fatalf("prom page missing %q:\n%s", want, prom)
		}
	}
}

func TestJSONShape(t *testing.T) {
	r := NewRegistry()
	r.NewCounterFunc("c", "counts", func() uint64 { return 3 })
	r.NewGaugeSetFunc("g", "", "host", func(emit func(string, float64)) { emit("h0", 1.5) })
	doc := r.JSON()
	for _, want := range []string{
		`"name": "c", "kind": "counter"`,
		`"value": 3`,
		`"labelKey": "host"`,
		`"label": "h0", "value": 1.5`,
	} {
		if !strings.Contains(doc, want) {
			t.Fatalf("json missing %q:\n%s", want, doc)
		}
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r := NewRegistry()
	r.NewGaugeFunc("dup", "", func() float64 { return 0 })
	r.NewGaugeFunc("dup", "", func() float64 { return 0 })
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(100, 2, 5)
	want := []int64{100, 200, 400, 800, 1600}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", b, want)
		}
	}
	// A factor close to 1 must still produce strictly increasing bounds.
	b = ExpBuckets(1, 1.01, 10)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not strictly increasing: %v", b)
		}
	}
}

// TestHistogramSetSharedBounds: histograms on one ladder merge bucket by
// bucket — how an owner sums per-host buckets into one family — and
// every sample of a set carries the shared bounds.
func TestHistogramSetSharedBounds(t *testing.T) {
	bounds := []int64{10}
	a, b := NewHistogram(bounds), NewHistogram(bounds)
	a.Observe(5)
	b.Observe(50)
	sum := NewHistogram(bounds)
	sum.Merge(a)
	sum.Merge(b)
	r := NewRegistry()
	r.NewHistogramSetFunc("h", "", "k", func(emit func(string, Histogram)) {
		emit("a", a)
		emit("sum", sum)
	})
	s, _ := r.Lookup("h")
	if len(s) != 2 || s[1].Counts[0] != 1 || s[1].Counts[1] != 1 || s[1].Sum != 55 || s[1].Count != 2 {
		t.Fatalf("samples = %+v, want a merged 1+1 of sum 55", s)
	}
	if &s[0].Bounds[0] != &bounds[0] || &s[1].Bounds[0] != &bounds[0] {
		t.Fatal("set samples do not share the ladder")
	}
}

func TestHistogramNeedsIncreasingBounds(t *testing.T) {
	for _, bounds := range [][]int64{nil, {2, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}
