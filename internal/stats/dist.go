// Package stats provides the statistical machinery behind the StopWatch
// analysis: continuous distributions, empirical CDFs, order statistics
// (the median-of-3 microaggregation of the paper's appendix), χ²
// goodness-of-fit power calculations ("observations needed to detect a
// victim", Figs. 1 and 4), Kolmogorov–Smirnov distances (Theorems 3–4),
// and the closed-form Exp + U(0,b) CDF for the additive-noise comparison
// (Fig. 8).
//
// Everything is deterministic and stdlib-only.
package stats

import (
	"errors"
	"math"
)

// ErrBadParam reports an invalid distribution or test parameter.
var ErrBadParam = errors.New("stats: invalid parameter")

// Dist is a real-valued probability distribution.
type Dist interface {
	// CDF returns P(X <= x).
	CDF(x float64) float64
	// Mean returns E[X].
	Mean() float64
	// Sample draws using the provided uniform source.
	Sample(u func() float64) float64
}

// Exponential is the Exp(rate) distribution with mean 1/rate. The paper
// models inter-event timings as exponential (baseline rate λ, victim rate
// λ′ < λ).
type Exponential struct {
	Rate float64
}

var _ Dist = Exponential{}

// CDF returns 1 - exp(-rate·x) for x >= 0.
func (e Exponential) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return -math.Expm1(-e.Rate * x)
}

// Mean returns 1/rate.
func (e Exponential) Mean() float64 { return 1 / e.Rate }

// Sample draws by inversion.
func (e Exponential) Sample(u func() float64) float64 {
	v := u()
	if v >= 1 {
		v = math.Nextafter(1, 0)
	}
	return -math.Log1p(-v) / e.Rate
}

// Uniform is the U(Lo,Hi) distribution — the additive-noise alternative the
// appendix compares against (XN ~ U(0,b)).
type Uniform struct {
	Lo, Hi float64
}

var _ Dist = Uniform{}

// CDF of the uniform distribution.
func (d Uniform) CDF(x float64) float64 {
	switch {
	case x <= d.Lo:
		return 0
	case x >= d.Hi:
		return 1
	default:
		return (x - d.Lo) / (d.Hi - d.Lo)
	}
}

// Mean returns (Lo+Hi)/2.
func (d Uniform) Mean() float64 { return (d.Lo + d.Hi) / 2 }

// Sample draws uniformly.
func (d Uniform) Sample(u func() float64) float64 {
	return d.Lo + (d.Hi-d.Lo)*u()
}

// FuncDist adapts a plain CDF function into a Dist. Mean is computed by
// numeric integration of the survival function on [0, Hi] (suitable for
// nonnegative variables), and sampling by inversion via bisection.
type FuncDist struct {
	F  func(float64) float64
	Hi float64 // integration/sampling upper bound; default found by doubling
}

var _ Dist = &FuncDist{}

// CDF evaluates the wrapped function, clamped to [0,1].
func (f *FuncDist) CDF(x float64) float64 { return clamp01(f.F(x)) }

// Mean integrates 1-F over [0, hi] with the trapezoid rule.
func (f *FuncDist) Mean() float64 {
	hi := f.hi()
	const n = 200000
	step := hi / n
	var acc float64
	prev := 1 - f.CDF(0)
	for i := 1; i <= n; i++ {
		cur := 1 - f.CDF(float64(i)*step)
		acc += (prev + cur) / 2 * step
		prev = cur
	}
	return acc
}

// Sample inverts the CDF by bisection.
func (f *FuncDist) Sample(u func() float64) float64 {
	target := u()
	lo, hi := 0.0, f.hi()
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if f.CDF(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

func (f *FuncDist) hi() float64 {
	if f.Hi > 0 {
		return f.Hi
	}
	hi := 1.0
	for f.CDF(hi) < 1-1e-9 && hi < 1e12 {
		hi *= 2
	}
	return hi
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
