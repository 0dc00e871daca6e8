package metrics

import (
	"strings"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("ops_total", "ops")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
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
	h := r.NewHistogram("lat", "latency", []int64{10, 100, 1000})
	for _, v := range []int64{1, 5, 10, 11, 99, 100, 500, 5000} {
		h.Observe(v)
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d, want 8", h.Count())
	}
	if h.Sum() != 1+5+10+11+99+100+500+5000 {
		t.Fatalf("sum = %d", h.Sum())
	}
	s := r.Snapshot()[0].Samples[0]
	// Bounds inclusive: <=10 catches {1,5,10}; <=100 {11,99,100}; <=1000 {500}; +Inf {5000}.
	want := []uint64{3, 3, 1, 1}
	for i, n := range want {
		if s.Counts[i] != n {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, s.Counts[i], n, s.Counts)
		}
	}
}

func TestVecChildrenInFirstUseOrder(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("pkts_total", "packets", "kind")
	v.With("b").Inc()
	v.With("a").Add(2)
	v.With("b").Inc()
	s, ok := r.Lookup("pkts_total")
	if !ok || len(s) != 2 {
		t.Fatalf("lookup: ok=%v samples=%v", ok, s)
	}
	if s[0].LabelValue != "b" || s[0].Counter != 2 {
		t.Fatalf("first child = %+v, want b=2 (first-use order)", s[0])
	}
	if s[1].LabelValue != "a" || s[1].Counter != 2 {
		t.Fatalf("second child = %+v, want a=2", s[1])
	}
}

func TestSnapshotRegistrationOrderAndDeterminism(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.NewCounter("z_first", "registered first")
		hv := r.NewHistogramVec("h", "hist", "phase", []int64{1, 2})
		hv.With("quiesce").Observe(1)
		hv.With("pause").Observe(3)
		gv := r.NewGaugeFuncVec("g", "gauge", "host")
		gv.Add("host1", func() float64 { return 1 })
		gv.Add("host0", func() float64 { return 2 })
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
	// Child order is first-use, not sorted.
	if q, p := strings.Index(prom, `phase="quiesce"`), strings.Index(prom, `phase="pause"`); q > p {
		t.Fatalf("vec children not in first-use order:\n%s", prom)
	}
}

func TestPromHistogramCumulativeBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("lat", "", []int64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(500)
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
	r.NewCounter("c", "counts").Add(3)
	g := r.NewGaugeFuncVec("g", "", "host")
	g.Add("h0", func() float64 { return 1.5 })
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
	r.NewCounter("dup", "")
	r.NewCounter("dup", "")
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

func TestHistogramVecSharedBounds(t *testing.T) {
	r := NewRegistry()
	v := r.NewHistogramVec("h", "", "k", []int64{10})
	v.With("a").Observe(5)
	v.With("a").Observe(50)
	if c := v.With("a").Count(); c != 2 {
		t.Fatalf("count = %d, want 2", c)
	}
	s, _ := r.Lookup("h")
	if s[0].Counts[0] != 1 || s[0].Counts[1] != 1 {
		t.Fatalf("counts = %v", s[0].Counts)
	}
}
