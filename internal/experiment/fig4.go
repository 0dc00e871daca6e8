package experiment

import (
	"fmt"
	"strings"

	"stopwatch/internal/core"
	"stopwatch/internal/sim"
	"stopwatch/internal/stats"
)

// Fig4Config parameterizes the live side-channel measurement: an attacker
// VM receiving a dense probe packet stream, with and without a victim VM
// whose one shared replica host carries its file-serving load. The probe
// gap, the victim's file and the χ² cell count are fixed; a run sets its
// seed and duration.
type Fig4Config struct {
	Seed uint64
	// Duration of each run.
	Duration sim.Time
}

// The attacker's inbound probe stream in Fig 4 and both ablations is dense
// (one probe every denseProbeGap): with sparse probes the victim's
// sub-millisecond delay perturbations drown in the probes' own
// inter-arrival variance, and neither system shows a channel. Dense probing
// is the attacker's best strategy and the regime the paper's Fig-4 run
// reflects. fig4VictimFileKB is the file Fig 4's victim continuously serves.
const (
	denseProbeGap    = 2 * sim.Millisecond
	fig4VictimFileKB = 256
)

// DefaultFig4Config gives ~15000 observations per run.
func DefaultFig4Config() Fig4Config {
	return Fig4Config{
		Seed:     7,
		Duration: 30 * sim.Second,
	}
}

// Fig4Result carries the empirical inter-delivery distributions and the
// derived detection-difficulty curves.
type Fig4Result struct {
	Config Fig4Config

	// Virtual inter-delivery gaps (ms) at the attacker's replicas under
	// StopWatch, with and without the victim.
	SWGapsVictim, SWGapsNoVictim []float64
	// Real inter-delivery gaps (ms) at the baseline attacker.
	BaseGapsVictim, BaseGapsNoVictim []float64

	// KS distances between the with/without distributions.
	KSStopWatch, KSBaseline float64

	Confidences []float64
	// Observations needed (χ² on ECDF bins).
	ObsWith, ObsWithout []float64

	// Divergences across attacker replicas during the victim run.
	Divergences int
}

// RunFig4 performs the four runs (StopWatch/baseline × victim/no-victim)
// and derives Fig. 4(a) and 4(b).
func RunFig4(cfg Fig4Config) (*Fig4Result, error) {
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("%w: fig4 config %+v", core.ErrCluster, cfg)
	}
	res := &Fig4Result{Config: cfg, Confidences: stats.StandardConfidences()}
	// StopWatch on five hosts with one shared; the baseline attacker and
	// victim coresident on a single host. Three concurrent download streams
	// give the victim a realistic serving duty cycle on its hosts.
	measure := func(baseline bool, seed uint64) (*leakRuns, error) {
		return measureLeak(fileVictimRig(baseline, seed, cfg.Duration, 3, fig4VictimFileKB), res.Confidences...)
	}
	sw, err := measure(false, cfg.Seed)
	if err != nil {
		return nil, err
	}
	base, err := measure(true, cfg.Seed+1000)
	if err != nil {
		return nil, err
	}
	res.SWGapsVictim, res.SWGapsNoVictim = sw.with.gapsMS, sw.without.gapsMS
	res.BaseGapsVictim, res.BaseGapsNoVictim = base.with.gapsMS, base.without.gapsMS
	res.KSStopWatch, res.ObsWith = sw.ks, sw.obs
	res.KSBaseline, res.ObsWithout = base.ks, base.obs
	res.Divergences = sw.with.divergences + sw.with.coDivergences
	return res, nil
}

// Render prints the Fig-4 series.
func (r *Fig4Result) Render() string {
	var b strings.Builder
	sumV, _ := stats.Summarize(r.SWGapsVictim)
	sumN, _ := stats.Summarize(r.SWGapsNoVictim)
	fmt.Fprintf(&b, "Fig 4(a): virtual inter-delivery gaps at attacker (ms)\n")
	fmt.Fprintf(&b, "  with victim:    n=%d mean=%.2f p50=%.2f p95=%.2f\n", sumV.N, sumV.Mean, sumV.P50, sumV.P95)
	fmt.Fprintf(&b, "  without victim: n=%d mean=%.2f p50=%.2f p95=%.2f\n", sumN.N, sumN.Mean, sumN.P50, sumN.P95)
	fmt.Fprintf(&b, "  KS distance: StopWatch=%.4f baseline=%.4f (suppression ×%.1f)\n",
		r.KSStopWatch, r.KSBaseline, r.KSBaseline/r.KSStopWatch)
	fmt.Fprintf(&b, "  attacker replica divergences: %d\n\n", r.Divergences)
	fmt.Fprintf(&b, "Fig 4(b): observations needed to detect victim\n")
	fmt.Fprintf(&b, "%10s %12s %12s\n", "confidence", "w/ SW", "w/o SW")
	for i, c := range r.Confidences {
		fmt.Fprintf(&b, "%10.2f %12.1f %12.1f\n", c, r.ObsWith[i], r.ObsWithout[i])
	}
	return b.String()
}
