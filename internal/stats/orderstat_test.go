package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMedianOf3IIDClosedForm(t *testing.T) {
	// For iid F: F_{2:3} = 3F² − 2F³.
	f := Exponential{Rate: 1}.CDF
	med := MedianOf3CDF(f, f, f)
	for _, x := range []float64{0.1, 0.5, 1, 2, 5} {
		v := f(x)
		want := 3*v*v - 2*v*v*v
		if math.Abs(med(x)-want) > 1e-12 {
			t.Errorf("median CDF(%v) = %v, want %v", x, med(x), want)
		}
	}
}

func TestOrderStatCDFMatchesMedianOf3(t *testing.T) {
	f1 := Exponential{Rate: 1}.CDF
	f2 := Exponential{Rate: 2}.CDF
	f3 := Uniform{Lo: 0, Hi: 3}.CDF
	viaFormula := MedianOf3CDF(f1, f2, f3)
	viaOrder, err := OrderStatCDF(2, []func(float64) float64{f1, f2, f3})
	if err != nil {
		t.Fatal(err)
	}
	for x := 0.0; x <= 6; x += 0.25 {
		if math.Abs(viaFormula(x)-viaOrder(x)) > 1e-12 {
			t.Fatalf("mismatch at %v: %v vs %v", x, viaFormula(x), viaOrder(x))
		}
	}
}

func TestOrderStatExtremes(t *testing.T) {
	// r=1 is the minimum: F_{1:m} = 1 − Π(1−F_i);
	// r=m is the maximum: F_{m:m} = ΠF_i.
	cdfs := []func(float64) float64{
		Exponential{Rate: 1}.CDF,
		Exponential{Rate: 0.5}.CDF,
		Uniform{Lo: 0, Hi: 2}.CDF,
	}
	minC, err := OrderStatCDF(1, cdfs)
	if err != nil {
		t.Fatal(err)
	}
	maxC, err := OrderStatCDF(3, cdfs)
	if err != nil {
		t.Fatal(err)
	}
	for x := 0.0; x <= 5; x += 0.5 {
		prodSurv, prod := 1.0, 1.0
		for _, f := range cdfs {
			prodSurv *= 1 - f(x)
			prod *= f(x)
		}
		if math.Abs(minC(x)-(1-prodSurv)) > 1e-12 {
			t.Fatalf("min CDF wrong at %v", x)
		}
		if math.Abs(maxC(x)-prod) > 1e-12 {
			t.Fatalf("max CDF wrong at %v", x)
		}
	}
}

func TestOrderStatMonteCarlo(t *testing.T) {
	// Median-of-3 CDF must match simulation.
	d1 := Exponential{Rate: 1}
	d2 := Exponential{Rate: 0.5}
	d3 := Uniform{Lo: 0, Hi: 4}
	med := MedianOf3CDF(d1.CDF, d2.CDF, d3.CDF)
	u := uniSrc(31)
	const n = 200000
	xs := []float64{0.5, 1, 2, 3}
	counts := make([]int, len(xs))
	for i := 0; i < n; i++ {
		m := MedianSample3(d1.Sample(u), d2.Sample(u), d3.Sample(u))
		for j, x := range xs {
			if m <= x {
				counts[j]++
			}
		}
	}
	for j, x := range xs {
		emp := float64(counts[j]) / n
		if math.Abs(emp-med(x)) > 0.006 {
			t.Errorf("at %v: MC %v vs analytic %v", x, emp, med(x))
		}
	}
}

func TestMedianSample3(t *testing.T) {
	cases := []struct{ a, b, c, want float64 }{
		{1, 2, 3, 2}, {3, 2, 1, 2}, {2, 1, 3, 2},
		{1, 1, 5, 1}, {5, 5, 1, 5}, {2, 2, 2, 2},
	}
	for _, tc := range cases {
		if got := MedianSample3(tc.a, tc.b, tc.c); got != tc.want {
			t.Errorf("median(%v,%v,%v) = %v, want %v", tc.a, tc.b, tc.c, got, tc.want)
		}
	}
}

func TestOrderStatBadParams(t *testing.T) {
	f := Exponential{Rate: 1}.CDF
	if _, err := OrderStatCDF(0, []func(float64) float64{f}); !errors.Is(err, ErrBadParam) {
		t.Fatal("r=0 should fail")
	}
	if _, err := OrderStatCDF(2, []func(float64) float64{f}); !errors.Is(err, ErrBadParam) {
		t.Fatal("r>m should fail")
	}
	if _, err := OrderStatCDF(1, nil); !errors.Is(err, ErrBadParam) {
		t.Fatal("m=0 should fail")
	}
}

// Property (Theorem 3): for overlapping F2,F3, the KS distance between the
// two median distributions is strictly smaller than between the originals:
// D(F_{2:3}, F′_{2:3}) < D(F1, F′1).
func TestTheorem3KSContraction(t *testing.T) {
	f := func(seedRaw int64) bool {
		r := rand.New(rand.NewSource(seedRaw))
		l1 := 0.2 + 3*r.Float64()
		l1p := 0.2 + 3*r.Float64()
		if math.Abs(l1-l1p) < 0.05 {
			l1p = l1 + 0.3
		}
		l2 := 0.2 + 3*r.Float64()
		l3 := 0.2 + 3*r.Float64()
		f1 := Exponential{Rate: l1}.CDF
		f1p := Exponential{Rate: l1p}.CDF
		f2 := Exponential{Rate: l2}.CDF
		f3 := Exponential{Rate: l3}.CDF
		base := MedianOf3CDF(f1, f2, f3)
		vict := MedianOf3CDF(f1p, f2, f3)
		dMed := KSDistanceFunc(base, vict, 0, 40, 8000)
		dOrig := KSDistanceFunc(f1, f1p, 0, 40, 8000)
		return dMed < dOrig
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Theorem 4: if X2, X3 are identically distributed,
// D(F_{2:3}, F′_{2:3}) <= D(F1, F′1)/2.
func TestTheorem4HalfContraction(t *testing.T) {
	f := func(seedRaw int64) bool {
		r := rand.New(rand.NewSource(seedRaw))
		l1 := 0.2 + 3*r.Float64()
		l1p := 0.2 + 3*r.Float64()
		l23 := 0.2 + 3*r.Float64()
		f1 := Exponential{Rate: l1}.CDF
		f1p := Exponential{Rate: l1p}.CDF
		f23 := Exponential{Rate: l23}.CDF
		base := MedianOf3CDF(f1, f23, f23)
		vict := MedianOf3CDF(f1p, f23, f23)
		dMed := KSDistanceFunc(base, vict, 0, 40, 8000)
		dOrig := KSDistanceFunc(f1, f1p, 0, 40, 8000)
		return dMed <= dOrig/2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestKSDistanceFunc(t *testing.T) {
	f := Uniform{Lo: 0, Hi: 1}.CDF
	g := Uniform{Lo: 0.5, Hi: 1.5}.CDF
	d := KSDistanceFunc(f, g, -1, 2, 4000)
	if math.Abs(d-0.5) > 1e-3 {
		t.Fatalf("KS distance = %v, want 0.5", d)
	}
	if KSDistanceFunc(f, f, 0, 1, 2) != 0 {
		t.Fatal("KS(f,f) should be 0")
	}
}

func TestElementarySymmetric(t *testing.T) {
	v := []float64{1, 2, 3}
	if e := elementarySymmetric(v, 1); e != 6 {
		t.Fatalf("e1 = %v, want 6", e)
	}
	if e := elementarySymmetric(v, 2); e != 11 {
		t.Fatalf("e2 = %v, want 11", e)
	}
	if e := elementarySymmetric(v, 3); e != 6 {
		t.Fatalf("e3 = %v, want 6", e)
	}
	if e := elementarySymmetric(v, 4); e != 0 {
		t.Fatalf("e4 = %v, want 0", e)
	}
}

func TestBinom(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{{5, 2, 10}, {5, 0, 1}, {5, 5, 1}, {5, 6, 0}, {5, -1, 0}, {10, 3, 120}}
	for _, c := range cases {
		if got := binom(c.n, c.k); got != c.want {
			t.Errorf("binom(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
}
