// Package experiment regenerates every table and figure of the paper's
// evaluation: analytic median/detection curves (Figs. 1, 8), the simulated
// side-channel run (Fig. 4), file-download and NFS performance (Figs. 5,
// 6), PARSEC-like computation overheads (Fig. 7), the placement theorems
// (Sec. VIII), Δn/Δd calibration (Sec. VII-A), and the collaborating-
// attacker ablation (Sec. IX).
//
// Each harness returns a structured result with a Render method producing
// the paper-style series.
package experiment

import (
	"fmt"
	"strings"

	"stopwatch/internal/stats"
)

// The analytic figures (1 and 8) share the baseline exponential rate λ
// (paper: 1), and every χ² detection estimate here (Figs. 1, 4 and 8 and the
// probe-rig ablations) uses chiBins cells. Fig. 1(a) samples the CDFs at
// gridN points on [0, gridMax].
const (
	lambda  = 1.0
	chiBins = 10
	gridMax = 6.0
	gridN   = 61
)

// Fig1Config parameterizes the analytic median illustration (Sec. III):
// the victim-influenced rate λ′ against the baseline rate λ = 1.
type Fig1Config struct {
	// LambdaPrime is the victim-influenced rate (paper: 1/2 and 10/11).
	LambdaPrime float64
}

// DefaultFig1Config returns the paper's λ=1, λ′=1/2 setting.
func DefaultFig1Config() Fig1Config {
	return Fig1Config{LambdaPrime: 0.5}
}

// Fig1Point is one x of Fig. 1(a).
type Fig1Point struct {
	X                float64
	Baseline         float64 // Exp(λ) CDF
	Victim           float64 // Exp(λ′) CDF
	MedianBaselines  float64 // median of three baselines
	MedianWithVictim float64 // median of two baselines + one victim
}

// Fig1Result carries the distribution curves and both detection curves.
type Fig1Result struct {
	Config      Fig1Config
	Curve       []Fig1Point
	Confidences []float64
	// ObsWith / ObsWithout: observations needed with and without StopWatch
	// (χ²-binned noncentrality estimator).
	ObsWith, ObsWithout []float64
	// ObsWithLRT / ObsWithoutLRT: the likelihood-ratio estimator, which
	// lands on the paper's displayed magnitudes.
	ObsWithLRT, ObsWithoutLRT []float64
	// KSRaw / KSMedian: Kolmogorov–Smirnov distances before and after the
	// median microaggregation (Theorem 3 in action).
	KSRaw, KSMedian float64
}

// RunFig1 computes the analytic Fig-1 curves.
func RunFig1(cfg Fig1Config) (*Fig1Result, error) {
	if cfg.LambdaPrime <= 0 {
		return nil, fmt.Errorf("%w: fig1 config %+v", stats.ErrBadParam, cfg)
	}
	base := stats.Exponential{Rate: lambda}
	vict := stats.Exponential{Rate: cfg.LambdaPrime}
	med3 := stats.MedianOf3CDF(base.CDF, base.CDF, base.CDF)
	med21 := stats.MedianOf3CDF(vict.CDF, base.CDF, base.CDF)

	res := &Fig1Result{Config: cfg, Confidences: stats.StandardConfidences()}
	for i := 0; i < gridN; i++ {
		x := gridMax * float64(i) / float64(gridN-1)
		res.Curve = append(res.Curve, Fig1Point{
			X:                x,
			Baseline:         base.CDF(x),
			Victim:           vict.CDF(x),
			MedianBaselines:  med3(x),
			MedianWithVictim: med21(x),
		})
	}

	// χ²-binned detection: without StopWatch the attacker tests Exp(λ′)
	// against Exp(λ); with StopWatch, the two median distributions.
	bnRaw, err := stats.EqualProbBins(base, chiBins)
	if err != nil {
		return nil, err
	}
	pRaw := bnRaw.CellProbs(base.CDF)
	qRaw := bnRaw.CellProbs(vict.CDF)
	res.ObsWithout, err = stats.DetectionCurve(pRaw, qRaw, res.Confidences)
	if err != nil {
		return nil, err
	}
	medDist := &stats.FuncDist{F: med3}
	bnMed, err := stats.EqualProbBins(medDist, chiBins)
	if err != nil {
		return nil, err
	}
	pMed := bnMed.CellProbs(med3)
	qMed := bnMed.CellProbs(med21)
	res.ObsWith, err = stats.DetectionCurve(pMed, qMed, res.Confidences)
	if err != nil {
		return nil, err
	}

	// LRT estimator.
	klRaw, err := stats.KLDivergence(stats.ExpPDF(cfg.LambdaPrime), stats.ExpPDF(lambda), 0, 200/cfg.LambdaPrime, 200000)
	if err != nil {
		return nil, err
	}
	pdfBase := stats.MedianOf3PDF(base.CDF, base.CDF, base.CDF,
		stats.ExpPDF(lambda), stats.ExpPDF(lambda), stats.ExpPDF(lambda))
	pdfVict := stats.MedianOf3PDF(vict.CDF, base.CDF, base.CDF,
		stats.ExpPDF(cfg.LambdaPrime), stats.ExpPDF(lambda), stats.ExpPDF(lambda))
	klMed, err := stats.KLDivergence(pdfVict, pdfBase, 0, 200/cfg.LambdaPrime, 200000)
	if err != nil {
		return nil, err
	}
	for _, c := range res.Confidences {
		nRaw, err := stats.ObservationsToDetectLRT(klRaw, c)
		if err != nil {
			return nil, err
		}
		nMed, err := stats.ObservationsToDetectLRT(klMed, c)
		if err != nil {
			return nil, err
		}
		res.ObsWithoutLRT = append(res.ObsWithoutLRT, nRaw)
		res.ObsWithLRT = append(res.ObsWithLRT, nMed)
	}

	res.KSRaw = stats.KSDistanceFunc(base.CDF, vict.CDF, 0, gridMax*8, 8000)
	res.KSMedian = stats.KSDistanceFunc(med3, med21, 0, gridMax*8, 8000)
	return res, nil
}

// Render prints the paper-style series.
func (r *Fig1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 1(a): distributions (λ=%.3g, λ'=%.3g)\n", lambda, r.Config.LambdaPrime)
	fmt.Fprintf(&b, "%8s %10s %10s %12s %14s\n", "x", "baseline", "victim", "median-3base", "median-2base+v")
	for _, p := range r.Curve {
		if int(p.X*10)%10 != 0 { // print integer x only; the full grid is in the struct
			continue
		}
		fmt.Fprintf(&b, "%8.2f %10.4f %10.4f %12.4f %14.4f\n",
			p.X, p.Baseline, p.Victim, p.MedianBaselines, p.MedianWithVictim)
	}
	fmt.Fprintf(&b, "\nKS distance: raw=%.4f median=%.4f (contraction ×%.2f)\n",
		r.KSRaw, r.KSMedian, r.KSRaw/r.KSMedian)
	fmt.Fprintf(&b, "\nFig 1(b/c): observations needed to detect victim\n")
	fmt.Fprintf(&b, "%10s %14s %14s %14s %14s\n", "confidence", "w/ SW (χ²)", "w/o SW (χ²)", "w/ SW (LRT)", "w/o SW (LRT)")
	for i, c := range r.Confidences {
		fmt.Fprintf(&b, "%10.2f %14.1f %14.1f %14.1f %14.1f\n",
			c, r.ObsWith[i], r.ObsWithout[i], r.ObsWithLRT[i], r.ObsWithoutLRT[i])
	}
	return b.String()
}
