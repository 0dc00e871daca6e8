package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func uniSrc(seed int64) func() float64 {
	r := rand.New(rand.NewSource(seed))
	return r.Float64
}

func TestExponentialCDF(t *testing.T) {
	e := Exponential{Rate: 2}
	if e.CDF(-1) != 0 || e.CDF(0) != 0 {
		t.Fatal("CDF should be 0 for x<=0")
	}
	if math.Abs(e.CDF(1)-(1-math.Exp(-2))) > 1e-12 {
		t.Fatal("CDF(1) wrong")
	}
	if e.Mean() != 0.5 {
		t.Fatal("mean wrong")
	}
}

func TestExponentialSampleMatchesCDF(t *testing.T) {
	e := Exponential{Rate: 1.5}
	u := uniSrc(42)
	var below float64
	const n = 100000
	x := 0.7
	for i := 0; i < n; i++ {
		if e.Sample(u) <= x {
			below++
		}
	}
	if math.Abs(below/n-e.CDF(x)) > 0.01 {
		t.Fatalf("sample fraction %v vs CDF %v", below/n, e.CDF(x))
	}
}

func TestUniformCDFAndMean(t *testing.T) {
	d := Uniform{Lo: 1, Hi: 3}
	if d.CDF(0) != 0 || d.CDF(4) != 1 {
		t.Fatal("tails wrong")
	}
	if d.CDF(2) != 0.5 {
		t.Fatal("midpoint wrong")
	}
	if d.Mean() != 2 {
		t.Fatal("mean wrong")
	}
	u := uniSrc(7)
	for i := 0; i < 1000; i++ {
		v := d.Sample(u)
		if v < 1 || v > 3 {
			t.Fatalf("sample %v out of support", v)
		}
	}
}

func TestFuncDistMeanAndSample(t *testing.T) {
	// Wrap Exp(2): mean must come out 0.5 and samples must follow the CDF.
	fd := &FuncDist{F: Exponential{Rate: 2}.CDF}
	if m := fd.Mean(); math.Abs(m-0.5) > 1e-3 {
		t.Fatalf("FuncDist mean %v, want 0.5", m)
	}
	u := uniSrc(13)
	var below float64
	const n = 40000
	for i := 0; i < n; i++ {
		if fd.Sample(u) <= 0.3 {
			below++
		}
	}
	want := Exponential{Rate: 2}.CDF(0.3)
	if math.Abs(below/n-want) > 0.015 {
		t.Fatalf("FuncDist sample fraction %v, want %v", below/n, want)
	}
}

// Property: all CDFs are monotone and bounded in [0,1].
func TestCDFMonotoneProperty(t *testing.T) {
	dists := []Dist{
		Exponential{Rate: 0.5},
		Exponential{Rate: 3},
		Uniform{Lo: -1, Hi: 4},
	}
	f := func(a, b float64) bool {
		a = math.Mod(math.Abs(a), 50)
		b = math.Mod(math.Abs(b), 50)
		if a > b {
			a, b = b, a
		}
		for _, d := range dists {
			ca, cb := d.CDF(a), d.CDF(b)
			if ca < 0 || cb > 1 || ca > cb+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
