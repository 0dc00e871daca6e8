package experiment

import (
	"fmt"
	"math/rand"
	"strings"

	"stopwatch/internal/stats"
)

// Fig8Config parameterizes the StopWatch-vs-uniform-noise comparison
// (appendix, Fig. 8). The comparison follows the paper's procedure
// literally: run the attacker's χ² test (Monte Carlo) to find the
// observations StopWatch forces at each confidence, then find the minimum
// uniform-noise bound that denies the attacker that confidence after the
// same number of observations. The panel (λ, λ′, coverage, cell count,
// search bounds, confidences and the Monte Carlo's seed) is fixed; a run
// sets only its trial count.
type Fig8Config struct {
	// Trials per Monte-Carlo power estimate.
	Trials int
}

// Fig. 8's fixed panel: λ = 1 (the shared lambda), λ′ = 1/2, Δn set by
// P[|X1−X′1| <= Δn] >= fig8Coverage (paper: 0.9999), the Monte Carlo's
// fixed seed, the bounds of the observation and noise searches, and the
// confidences evaluated (as in the paper's panel).
const (
	fig8LambdaPrime = 0.5
	fig8Coverage    = 0.9999
	fig8Seed        = 8
	fig8MaxN        = 200000
	fig8MaxNoise    = 1e6
)

var fig8Confidences = []float64{0.7, 0.8, 0.9, 0.99}

// DefaultFig8Config returns the paper's λ=1, λ′=1/2 panel.
func DefaultFig8Config() Fig8Config {
	return Fig8Config{Trials: 200}
}

// Fig8Point is one confidence level's delay comparison.
type Fig8Point struct {
	Confidence float64
	// ObsNeeded is the attacker effort StopWatch forces at this confidence;
	// the noise scheme is calibrated to force the same effort.
	ObsNeeded float64
	// NoiseBound is the matched uniform noise bound b (XN ~ U(0,b)).
	NoiseBound float64
	// Expected delays of the four curves in the paper's panel.
	EDelayStopWatch       float64 // E[X2:3 + Δn]
	EDelayStopWatchVictim float64 // E[X′2:3 + Δn]
	EDelayNoise           float64 // E[X1 + XN]
	EDelayNoiseVictim     float64 // E[X′1 + XN]
}

// Fig8Result carries the delay-vs-confidence comparison.
type Fig8Result struct {
	Config Fig8Config
	DeltaN float64
	Points []Fig8Point
}

// RunFig8 computes the comparison: for each confidence, the attacker's
// empirical χ² test determines the observations StopWatch forces; the
// minimal uniform-noise bound denying the attacker that confidence after
// the same number of observations is then found, and the expected delays
// of both schemes are reported.
func RunFig8(cfg Fig8Config) (*Fig8Result, error) {
	if cfg.Trials <= 0 {
		return nil, fmt.Errorf("%w: fig8 config %+v", stats.ErrBadParam, cfg)
	}
	base := stats.Exponential{Rate: lambda}
	vict := stats.Exponential{Rate: fig8LambdaPrime}

	deltaN, err := stats.DeltaNForCoverage(lambda, fig8LambdaPrime, fig8Coverage)
	if err != nil {
		return nil, err
	}

	med3 := stats.MedianOf3Dist(base, base, base)
	med21 := stats.MedianOf3Dist(vict, base, base)

	// StopWatch detection difficulty: the attacker tests median-of-3
	// observations against the no-victim median distribution.
	bn, err := stats.EqualProbBins(med3, chiBins)
	if err != nil {
		return nil, err
	}
	nullProbs := bn.CellProbs(med3.CDF)
	altSampler := stats.MedianOf3Sampler(vict, base, base)

	eMed3 := med3.Mean()
	eMed21 := med21.Mean()

	rng := rand.New(rand.NewSource(fig8Seed))
	res := &Fig8Result{Config: cfg, DeltaN: deltaN}
	for _, conf := range fig8Confidences {
		n, err := stats.EmpiricalObsToDetect(bn, nullProbs, altSampler, conf, cfg.Trials, fig8MaxN, rng)
		if err != nil {
			return nil, err
		}
		b, err := stats.MinNoiseToSuppress(lambda, fig8LambdaPrime, chiBins, n, cfg.Trials, conf, rng, fig8MaxNoise)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, Fig8Point{
			Confidence:            conf,
			ObsNeeded:             float64(n),
			NoiseBound:            b,
			EDelayStopWatch:       eMed3 + deltaN,
			EDelayStopWatchVictim: eMed21 + deltaN,
			EDelayNoise:           base.Mean() + b/2,
			EDelayNoiseVictim:     vict.Mean() + b/2,
		})
	}
	return res, nil
}

// Render prints the delay comparison.
func (r *Fig8Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 8: expected delay, StopWatch vs uniform noise (λ=%.3g, λ'=%.3g, Δn=%.2f)\n",
		lambda, fig8LambdaPrime, r.DeltaN)
	fmt.Fprintf(&b, "%10s %10s %10s %12s %14s %12s %14s\n",
		"confidence", "obs", "noise b", "E[X2:3+Δn]", "E[X'2:3+Δn]", "E[X1+XN]", "E[X'1+XN]")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%10.2f %10.1f %10.2f %12.3f %14.3f %12.3f %14.3f\n",
			p.Confidence, p.ObsNeeded, p.NoiseBound,
			p.EDelayStopWatch, p.EDelayStopWatchVictim, p.EDelayNoise, p.EDelayNoiseVictim)
	}
	return b.String()
}
