package stats

import "fmt"

// Order statistics of independent (not necessarily identically distributed)
// random variables, per Güngör et al. as cited in the paper's appendix:
//
//	F_{r:m}(x) = Σ_{ℓ=r}^{m} (-1)^{ℓ-r} C(ℓ-1, r-1) Σ_{|I|=ℓ} Π_{i∈I} F_i(x)
//
// StopWatch uses r=2, m=3 (the median of three replicas' timings).

// OrderStatCDF returns the CDF of the r-th smallest of m independent draws,
// one from each of the given CDFs. len(cdfs) must equal m and 1 <= r <= m.
func OrderStatCDF(r int, cdfs []func(float64) float64) (func(float64) float64, error) {
	m := len(cdfs)
	if m == 0 || r < 1 || r > m {
		return nil, fmt.Errorf("%w: OrderStatCDF r=%d m=%d", ErrBadParam, r, m)
	}
	// Precompute binomials C(ℓ-1, r-1) for ℓ=r..m.
	return func(x float64) float64 {
		f := make([]float64, m)
		for i, c := range cdfs {
			f[i] = c(x)
		}
		var total float64
		for l := r; l <= m; l++ {
			esym := elementarySymmetric(f, l)
			sign := 1.0
			if (l-r)%2 == 1 {
				sign = -1
			}
			total += sign * binom(l-1, r-1) * esym
		}
		return clamp01(total)
	}, nil
}

// elementarySymmetric returns e_k(v), the sum over all k-subsets of the
// product of elements, via the Newton triangle in O(n·k).
func elementarySymmetric(v []float64, k int) float64 {
	n := len(v)
	if k > n {
		return 0
	}
	e := make([]float64, k+1)
	e[0] = 1
	for i := 0; i < n; i++ {
		hi := i + 1
		if hi > k {
			hi = k
		}
		for j := hi; j >= 1; j-- {
			e[j] += v[i] * e[j-1]
		}
	}
	return e[k]
}

func binom(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	r := 1.0
	for i := 0; i < k; i++ {
		r = r * float64(n-i) / float64(i+1)
	}
	return r
}

// MedianOf3CDF returns F_{2:3} for three independent variables with the
// given CDFs. This is the microaggregation function at the heart of
// StopWatch: per the appendix,
//
//	F_{2:3} = F1·F2 + F1·F3 + F2·F3 − 2·F1·F2·F3
func MedianOf3CDF(f1, f2, f3 func(float64) float64) func(float64) float64 {
	return func(x float64) float64 {
		a, b, c := f1(x), f2(x), f3(x)
		return clamp01(a*b + a*c + b*c - 2*a*b*c)
	}
}

// MedianOf3Dist wraps MedianOf3CDF into a Dist with numerically-derived
// mean and inversion sampling (upper bound found automatically).
func MedianOf3Dist(d1, d2, d3 Dist) Dist {
	f := MedianOf3CDF(d1.CDF, d2.CDF, d3.CDF)
	return &FuncDist{F: f}
}

// KSDistanceFunc returns the Kolmogorov–Smirnov distance
// max_x |F(x) − G(x)| evaluated on a uniform grid over [lo,hi] with n
// points. The appendix's Theorems 3–4 are stated in terms of this metric.
func KSDistanceFunc(f, g func(float64) float64, lo, hi float64, n int) float64 {
	if n < 2 {
		n = 2
	}
	var d float64
	step := (hi - lo) / float64(n-1)
	for i := 0; i < n; i++ {
		x := lo + float64(i)*step
		if v := abs(f(x) - g(x)); v > d {
			d = v
		}
	}
	return d
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// MedianSample3 returns the median of three sampled values.
func MedianSample3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}
