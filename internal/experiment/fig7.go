package experiment

import (
	"fmt"
	"strings"

	"stopwatch/internal/apps"
	"stopwatch/internal/core"
	"stopwatch/internal/netsim"
	"stopwatch/internal/sim"
	"stopwatch/internal/vtime"
)

// Fig7Config parameterizes the PARSEC-like computation experiment.
type Fig7Config struct {
	Seed     uint64
	Profiles []apps.ParsecProfile
}

// fig7Timeout is how long a run may take before it fails.
const fig7Timeout = 120 * sim.Second

// DefaultFig7Config returns the paper's five applications with the
// calibration described in DESIGN.md.
func DefaultFig7Config() Fig7Config {
	return Fig7Config{
		Seed:     17,
		Profiles: apps.PaperParsecProfiles(),
	}
}

// Fig7Point is one application's row.
type Fig7Point struct {
	Name string
	// Measured runtimes (ms).
	Baseline, StopWatch float64
	Ratio               float64
	// DiskInterrupts observed at the guest (Fig. 7(b)).
	DiskInterrupts int64
	// Paper's values for reference.
	PaperBaseline, PaperStopWatch float64
}

// Fig7Result is the suite result.
type Fig7Result struct {
	Config Fig7Config
	Points []Fig7Point
	// Divergences is as Fig5Result's.
	Divergences int
}

// RunFig7 measures each profile under both VMMs.
func RunFig7(cfg Fig7Config) (*Fig7Result, error) {
	if len(cfg.Profiles) == 0 {
		return nil, fmt.Errorf("%w: no profiles", core.ErrCluster)
	}
	res := &Fig7Result{Config: cfg}
	for _, prof := range cfg.Profiles {
		base, _, _, err := fig7One(cfg, prof, baselineHosts)
		if err != nil {
			return nil, err
		}
		sw, ints, div, err := fig7One(cfg, prof, stopWatchHosts)
		if err != nil {
			return nil, err
		}
		res.Divergences += div
		res.Points = append(res.Points, Fig7Point{
			Name:           prof.Name,
			Baseline:       base.Milliseconds(),
			StopWatch:      sw.Milliseconds(),
			Ratio:          float64(sw) / float64(base),
			DiskInterrupts: ints,
			PaperBaseline:  prof.BaselinePaperMS,
			PaperStopWatch: prof.StopWatchPaperMS,
		})
	}
	return res, nil
}

func fig7One(cfg Fig7Config, prof apps.ParsecProfile, hosts []int) (doneAt sim.Time, diskInts int64, divergences int, err error) {
	cc := core.DefaultClusterConfig()
	cc.Seed = cfg.Seed
	// The disk regime calibrated for the PARSEC runs: mean disk service
	// ≈ 1.7 ms (fast rotational access with cache effects), Δd = 8 ms, per
	// the calibration notes in DESIGN.md.
	cc.VMM.DiskSeek = sim.Millisecond
	cc.VMM.DiskJitterMean = 500 * sim.Microsecond
	cc.VMM.DeltaD = vtime.Virtual(8 * sim.Millisecond)
	c, g, err := figRig(cc, "parsec", hosts, factory(func() (*apps.ParsecApp, error) { return apps.NewParsecApp(prof, "collector") }))
	if err != nil {
		return 0, 0, 0, err
	}
	if err := c.Net().Attach(&netsim.FuncNode{Addr: "collector", Fn: func(p *netsim.Packet) {
		if doneAt == 0 {
			doneAt = c.Loop().Now()
			c.Stop()
		}
	}}); err != nil {
		return 0, 0, 0, err
	}
	c.Start()
	if err := c.Run(fig7Timeout); err != nil {
		return 0, 0, 0, err
	}
	if doneAt == 0 {
		return 0, 0, 0, fmt.Errorf("%w: %s on hosts %v never finished", core.ErrCluster, prof.Name, hosts)
	}
	if g.Baseline != nil {
		diskInts = g.Baseline.VM().Stats().DiskInterrupts
	} else {
		diskInts = g.Replica(0).Runtime().VM().Stats().DiskInterrupts
	}
	return doneAt, diskInts, g.Divergences(), nil
}

// Render prints the Fig-7 table.
func (r *Fig7Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 7(a): PARSEC-like runtimes (ms); 7(b): disk interrupts\n")
	fmt.Fprintf(&b, "%-14s %10s %10s %7s %7s %12s %12s\n",
		"app", "baseline", "stopwatch", "ratio", "disk#", "paper base", "paper SW")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-14s %10.0f %10.0f %7.2f %7d %12.0f %12.0f\n",
			p.Name, p.Baseline, p.StopWatch, p.Ratio, p.DiskInterrupts,
			p.PaperBaseline, p.PaperStopWatch)
	}
	renderDivergences(&b, r.Divergences)
	return b.String()
}
