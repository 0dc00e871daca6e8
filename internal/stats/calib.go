package stats

import (
	"fmt"
	"math"
)

// Δn calibration (Sec. VII-A and the appendix's Fig. 8 setup).
//
// StopWatch picks the network-interrupt offset Δn large enough that the
// probability of a desynchronization — a replica's virtual time overtaking
// the chosen median before delivery — is tiny. The appendix formalizes this
// as choosing Δn with P[|X1 − X′1| <= Δn] >= coverage (0.9999 there), where
// X1 ~ Exp(λ) is the baseline proposal-offset distribution and X′1 ~ Exp(λ′)
// is the victim-influenced one.

// AbsDiffExpTail returns P(|X − Y| > d) for independent X~Exp(λ), Y~Exp(λ′):
//
//	P(|X−Y| > d) = (λ′·e^{−λd} + λ·e^{−λ′d}) / (λ + λ′)
func AbsDiffExpTail(lambda, lambdaP, d float64) (float64, error) {
	if lambda <= 0 || lambdaP <= 0 || d < 0 {
		return 0, fmt.Errorf("%w: AbsDiffExpTail(λ=%v, λ′=%v, d=%v)", ErrBadParam, lambda, lambdaP, d)
	}
	return (lambdaP*math.Exp(-lambda*d) + lambda*math.Exp(-lambdaP*d)) / (lambda + lambdaP), nil
}

// DeltaNForCoverage returns the smallest Δn with
// P[|X − X′| <= Δn] >= coverage for X~Exp(λ), X′~Exp(λ′).
func DeltaNForCoverage(lambda, lambdaP, coverage float64) (float64, error) {
	if coverage <= 0 || coverage >= 1 {
		return 0, fmt.Errorf("%w: coverage=%v", ErrBadParam, coverage)
	}
	tail := 1 - coverage
	hi := 1.0
	for {
		v, err := AbsDiffExpTail(lambda, lambdaP, hi)
		if err != nil {
			return 0, err
		}
		if v <= tail || hi > 1e12 {
			break
		}
		hi *= 2
	}
	f := func(d float64) float64 {
		v, _ := AbsDiffExpTail(lambda, lambdaP, d)
		return v - tail
	}
	return Bisect(f, 0, hi, 200)
}

// ExpPlusUniformCDF returns the exact CDF of X + U(0,b) for X ~ Exp(rate):
//
//	F(t) = (A(t) − A(t−b)) / b,  A(x) = ∫₀^x (1 − e^{−λs}) ds
//	                                 = x − (1 − e^{−λx})/λ  for x ≥ 0.
func ExpPlusUniformCDF(rate, b float64) func(float64) float64 {
	a := func(x float64) float64 {
		if x <= 0 {
			return 0
		}
		return x + math.Expm1(-rate*x)/rate
	}
	return func(t float64) float64 {
		if b <= 0 {
			return Exponential{Rate: rate}.CDF(t)
		}
		return clamp01((a(t) - a(t-b)) / b)
	}
}
