package stats

import (
	"errors"
	"math"
	"testing"
)

func TestKLDivergenceExponentials(t *testing.T) {
	// KL(Exp(a)‖Exp(b)) = ln(a/b) + b/a − 1.
	cases := []struct{ a, b float64 }{{0.5, 1}, {1, 0.5}, {2, 3}, {10.0 / 11, 1}}
	for _, c := range cases {
		got, err := KLDivergence(ExpPDF(c.a), ExpPDF(c.b), 0, 200, 400000)
		if err != nil {
			t.Fatal(err)
		}
		want := math.Log(c.a/c.b) + c.b/c.a - 1
		if math.Abs(got-want) > 1e-4 {
			t.Errorf("KL(Exp(%v)‖Exp(%v)) = %v, want %v", c.a, c.b, got, want)
		}
	}
}

func TestKLDivergenceSelfZero(t *testing.T) {
	got, err := KLDivergence(ExpPDF(1), ExpPDF(1), 0, 100, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("KL(p‖p) = %v, want 0", got)
	}
}

func TestKLDivergenceDisjointSupport(t *testing.T) {
	q := func(x float64) float64 {
		if x >= 0 && x < 1 {
			return 1
		}
		return 0
	}
	p := func(x float64) float64 {
		if x >= 2 && x < 3 {
			return 1
		}
		return 0
	}
	got, err := KLDivergence(q, p, 0, 4, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got, 1) {
		t.Fatalf("disjoint KL = %v, want +Inf", got)
	}
}

func TestKLDivergenceBadParams(t *testing.T) {
	if _, err := KLDivergence(ExpPDF(1), ExpPDF(1), 0, 10, 5); !errors.Is(err, ErrBadParam) {
		t.Fatal("tiny grid should fail")
	}
	if _, err := KLDivergence(ExpPDF(1), ExpPDF(1), 5, 1, 100); !errors.Is(err, ErrBadParam) {
		t.Fatal("inverted bounds should fail")
	}
}

func TestObservationsToDetectLRT(t *testing.T) {
	n, err := ObservationsToDetectLRT(0.30685, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	// χ²₁(0.95) = 3.841; N = 3.841/(2·0.30685) ≈ 6.26.
	if math.Abs(n-6.26) > 0.05 {
		t.Fatalf("N = %v, want ~6.26", n)
	}
	if v, err := ObservationsToDetectLRT(0, 0.95); err != nil || !math.IsInf(v, 1) {
		t.Fatalf("KL=0 should give +Inf, got %v, %v", v, err)
	}
	if _, err := ObservationsToDetectLRT(-1, 0.95); !errors.Is(err, ErrBadParam) {
		t.Fatal("negative KL should fail")
	}
	// Floor at 1 observation.
	if v, _ := ObservationsToDetectLRT(1000, 0.95); v != 1 {
		t.Fatalf("floor = %v, want 1", v)
	}
}

func TestMedianOf3PDFIntegratesToCDF(t *testing.T) {
	fB := Exponential{Rate: 1}.CDF
	fV := Exponential{Rate: 0.5}.CDF
	pdf := MedianOf3PDF(fV, fB, fB, ExpPDF(0.5), ExpPDF(1), ExpPDF(1))
	cdf := MedianOf3CDF(fV, fB, fB)
	// ∫0^x pdf must equal cdf(x).
	for _, x := range []float64{0.5, 1, 2, 4} {
		var acc float64
		n := 20000
		step := x / float64(n)
		for i := 0; i < n; i++ {
			acc += pdf((float64(i)+0.5)*step) * step
		}
		if math.Abs(acc-cdf(x)) > 1e-5 {
			t.Errorf("∫pdf to %v = %v, cdf = %v", x, acc, cdf(x))
		}
	}
}

// The LRT estimator reproduces the paper's Fig-1(b) magnitudes:
// w/ StopWatch ~70 observations at confidence 0.99 (paper shows ~70-80),
// and a ~6x gap over the no-StopWatch case at equal confidence.
func TestLRTFig1Magnitudes(t *testing.T) {
	fB := Exponential{Rate: 1}.CDF
	fV := Exponential{Rate: 0.5}.CDF
	klRaw, err := KLDivergence(ExpPDF(0.5), ExpPDF(1), 0, 200, 200000)
	if err != nil {
		t.Fatal(err)
	}
	pdfBase := MedianOf3PDF(fB, fB, fB, ExpPDF(1), ExpPDF(1), ExpPDF(1))
	pdfVict := MedianOf3PDF(fV, fB, fB, ExpPDF(0.5), ExpPDF(1), ExpPDF(1))
	klMed, err := KLDivergence(pdfVict, pdfBase, 0, 200, 200000)
	if err != nil {
		t.Fatal(err)
	}
	nRaw, err := ObservationsToDetectLRT(klRaw, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	nMed, err := ObservationsToDetectLRT(klMed, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if nMed < 50 || nMed > 100 {
		t.Errorf("Nmed(0.99) = %v, want ~70 (paper's Fig 1b magnitude)", nMed)
	}
	if nMed < 4*nRaw {
		t.Errorf("gap too small: raw %v med %v", nRaw, nMed)
	}
}
