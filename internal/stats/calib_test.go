package stats

import (
	"errors"
	"math"
	"testing"
)

func TestAbsDiffExpTailMonteCarlo(t *testing.T) {
	lambda, lambdaP := 1.0, 0.5
	u := uniSrc(23)
	x := Exponential{Rate: lambda}
	y := Exponential{Rate: lambdaP}
	const n = 300000
	for _, d := range []float64{0.5, 1, 2, 4} {
		cnt := 0
		// Reseed per threshold for independence of checks.
		for i := 0; i < n; i++ {
			if math.Abs(x.Sample(u)-y.Sample(u)) > d {
				cnt++
			}
		}
		want, err := AbsDiffExpTail(lambda, lambdaP, d)
		if err != nil {
			t.Fatal(err)
		}
		got := float64(cnt) / n
		if math.Abs(got-want) > 0.005 {
			t.Errorf("tail(%v): MC %v vs analytic %v", d, got, want)
		}
	}
}

func TestAbsDiffExpTailEdges(t *testing.T) {
	v, err := AbsDiffExpTail(1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("tail at 0 should be 1, got %v", v)
	}
	if _, err := AbsDiffExpTail(0, 1, 1); !errors.Is(err, ErrBadParam) {
		t.Fatal("λ=0 should fail")
	}
	if _, err := AbsDiffExpTail(1, 1, -1); !errors.Is(err, ErrBadParam) {
		t.Fatal("d<0 should fail")
	}
}

func TestDeltaNForCoverage(t *testing.T) {
	// The paper's choice: P[|X1−X′1| <= Δn] >= 0.9999.
	d, err := DeltaNForCoverage(1, 0.5, 0.9999)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := AbsDiffExpTail(1, 0.5, d)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tail-1e-4) > 1e-6 {
		t.Fatalf("coverage at Δn=%v gives tail %v, want 1e-4", d, tail)
	}
	// Must be increasing in coverage.
	d2, err := DeltaNForCoverage(1, 0.5, 0.999)
	if err != nil {
		t.Fatal(err)
	}
	if d2 >= d {
		t.Fatalf("Δn not monotone in coverage: %v vs %v", d2, d)
	}
	if _, err := DeltaNForCoverage(1, 0.5, 1.5); !errors.Is(err, ErrBadParam) {
		t.Fatal("bad coverage should fail")
	}
}

func TestExpPlusUniformCDFAgainstMonteCarlo(t *testing.T) {
	lambda, b := 1.0, 4.0
	f := ExpPlusUniformCDF(lambda, b)
	u := uniSrc(77)
	x := Exponential{Rate: lambda}
	noise := Uniform{Lo: 0, Hi: b}
	const n = 200000
	for _, probe := range []float64{0.5, 1, 2, 4, 6, 10} {
		cnt := 0
		for i := 0; i < n; i++ {
			if x.Sample(u)+noise.Sample(u) <= probe {
				cnt++
			}
		}
		got := float64(cnt) / n
		if math.Abs(got-f(probe)) > 0.005 {
			t.Errorf("CDF(%v): MC %v vs analytic %v", probe, got, f(probe))
		}
	}
	// Degenerate b: falls back to the bare exponential.
	f0 := ExpPlusUniformCDF(2, 0)
	if math.Abs(f0(1)-Exponential{Rate: 2}.CDF(1)) > 1e-12 {
		t.Fatal("b=0 should reduce to Exp CDF")
	}
}
