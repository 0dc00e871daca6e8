package stats

import (
	"fmt"
	"math"
)

// Likelihood-ratio-test power estimate, the second formalization of
// "observations needed". Under the alternative Q, the expected log
// likelihood ratio per observation is KL(Q‖P); Wilks' theorem puts the
// rejection threshold for the LRT at confidence c at χ²₁(c)/2, so
//
//	N(c) ≈ χ²₁(c) / (2·KL(Q‖P))
//
// This estimator is less conservative than the binned Pearson one and lands
// close to the paper's displayed Fig-1 magnitudes.

// KLDivergence computes KL(Q‖P) = ∫ q·ln(q/p) over [lo,hi] by midpoint
// integration of the given densities.
func KLDivergence(q, p func(float64) float64, lo, hi float64, n int) (float64, error) {
	if n < 10 || hi <= lo {
		return 0, fmt.Errorf("%w: KLDivergence grid", ErrBadParam)
	}
	step := (hi - lo) / float64(n)
	var acc, orphan float64
	for i := 0; i < n; i++ {
		x := lo + (float64(i)+0.5)*step
		qv, pv := q(x), p(x)
		if qv <= 1e-300 {
			continue
		}
		if pv <= 1e-300 {
			// Q puts mass where P has none. Far-tail float underflow lands
			// here too, so only call the divergence infinite if the orphaned
			// mass is non-negligible.
			orphan += qv * step
			continue
		}
		acc += qv * math.Log(qv/pv) * step
	}
	if orphan > 1e-6 {
		return math.Inf(1), nil
	}
	if acc < 0 {
		acc = 0 // numeric noise on nearly-identical densities
	}
	return acc, nil
}

// ObservationsToDetectLRT returns the LRT-based sample-size estimate at the
// given confidence for KL divergence kl.
func ObservationsToDetectLRT(kl, confidence float64) (float64, error) {
	if kl < 0 {
		return 0, fmt.Errorf("%w: negative KL", ErrBadParam)
	}
	if kl == 0 {
		return math.Inf(1), nil
	}
	q, err := ChiSquareQuantile(1, confidence)
	if err != nil {
		return 0, err
	}
	n := q / (2 * kl)
	if n < 1 {
		n = 1
	}
	return n, nil
}

// MedianOf3PDF returns the density of the median of three independent
// variables with the given CDFs and densities:
//
//	f_{2:3} = f1(F2+F3−2F2F3) + f2(F1+F3−2F1F3) + f3(F1+F2−2F1F2)
func MedianOf3PDF(f1, f2, f3, d1, d2, d3 func(float64) float64) func(float64) float64 {
	return func(x float64) float64 {
		F1, F2, F3 := f1(x), f2(x), f3(x)
		return d1(x)*(F2+F3-2*F2*F3) + d2(x)*(F1+F3-2*F1*F3) + d3(x)*(F1+F2-2*F1*F2)
	}
}

// ExpPDF returns the density of Exp(rate).
func ExpPDF(rate float64) func(float64) float64 {
	return func(x float64) float64 {
		if x < 0 {
			return 0
		}
		return rate * math.Exp(-rate*x)
	}
}
