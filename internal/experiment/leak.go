package experiment

import (
	"fmt"

	"stopwatch/internal/apps"
	"stopwatch/internal/core"
	"stopwatch/internal/guest"
	"stopwatch/internal/sim"
	"stopwatch/internal/stats"
	"stopwatch/internal/vmm"
)

// scoreLeak is the one leak scorer: how well an attacker's inter-delivery
// gap samples taken with and without the victim active can be told apart.
// It returns the KS distance between the two empirical distributions and,
// per confidence level, the number of observations a χ² test needs to
// detect the victim — cells are the no-victim distribution's quantile bins,
// so the null hypothesis is uniform over them.
func scoreLeak(withVictim, noVictim []float64, bins int, confidences ...float64) (ks float64, obs []float64, err error) {
	eV, err := stats.NewECDF(withVictim)
	if err != nil {
		return 0, nil, err
	}
	eN, err := stats.NewECDF(noVictim)
	if err != nil {
		return 0, nil, err
	}
	bn := stats.Binning{}
	for i := 1; i < bins; i++ {
		bn.Edges = append(bn.Edges, eN.Quantile(float64(i)/float64(bins)))
	}
	obs, err = stats.DetectionCurve(bn.CellProbs(eN.CDF), bn.CellProbs(eV.CDF), confidences)
	return stats.KSDistanceECDF(eV, eN), obs, err
}

// probeRig is the attacker-probe + file-server-victim run behind Fig 4 and
// the median-vs-leader ablation: a constant-rate probe stream into an
// attacker VM, next to a victim VM serving closed-loop TCP downloads. In
// StopWatch mode the attacker sits on hosts {0,1,2} of five and the victim
// on {2,3,4} — exactly one shared host; in baseline mode both share the one
// host.
type probeRig struct {
	mode         core.Mode
	seed         uint64
	duration     sim.Time
	probeMeanGap sim.Time
	// policy is how the attacker's replicas turn proposals into delivery
	// times (StopWatch mode); PolicyOwn lets each dictate its own.
	policy vmm.DeliveryPolicy
	// read names the attacker replica whose observations are returned.
	read int
	// streams is the number of concurrent victim downloads of victimFileKB
	// each; 0 runs without a victim.
	streams      int
	victimFileKB int
}

// run returns the attacker's inter-delivery gaps in milliseconds and the
// synchrony divergences counted at both guests.
func (p probeRig) run() (gapsMS []float64, divergences int, err error) {
	cc := core.DefaultClusterConfig()
	cc.Seed = p.seed
	cc.Mode = p.mode
	cc.Hosts = 5
	attHosts, vicHosts := []int{0, 1, 2}, []int{2, 3, 4}
	if p.mode == core.ModeBaseline {
		cc.Hosts = 1
		attHosts, vicHosts = []int{0}, []int{0}
	}
	c, err := core.New(cc)
	if err != nil {
		return nil, 0, err
	}
	att, err := c.Deploy("attacker", attHosts, func() guest.App { return apps.NewProbeApp() })
	if err != nil {
		return nil, 0, err
	}
	for _, r := range att.Replicas() {
		r.NetDev().Policy = p.policy
	}
	var vic *core.Guest
	if p.streams > 0 {
		vic, err = c.Deploy("victim", vicHosts, func() guest.App {
			fs, ferr := apps.NewFileServer(apps.DefaultFileServerConfig())
			if ferr != nil {
				panic(ferr) // factory cannot fail with the default config
			}
			return fs
		})
		if err != nil {
			return nil, 0, err
		}
	}
	c.Start()

	ps := apps.NewProbeSource(c.Net(), c.Loop(), c.Source().Stream("probe"),
		"colluder", core.ServiceAddr("attacker"), p.probeMeanGap)
	ps.Constant = true
	ps.Start(p.duration)

	if p.streams > 0 {
		cl, err := c.NewClient("victim-client")
		if err != nil {
			return nil, 0, err
		}
		dl := apps.NewDownloader(cl)
		var kick func()
		kick = func() {
			_ = dl.Fetch(core.ServiceAddr("victim"), apps.ModeTCP, p.victimFileKB<<10, func(sim.Time) { kick() })
		}
		for i := 0; i < p.streams; i++ {
			c.Loop().At(sim.Time(i+1)*5*sim.Millisecond, "victim-load", kick)
		}
	}

	if err := c.Run(p.duration + 200*sim.Millisecond); err != nil {
		return nil, 0, err
	}
	// Under PolicyOwn the replicas diverge by design.
	if p.policy != vmm.PolicyOwn {
		if err := att.CheckLockstep(); err != nil {
			return nil, 0, err
		}
	}
	for _, g := range att.App(p.read).(*apps.ProbeApp).InterDeliveryGaps() {
		gapsMS = append(gapsMS, g/1e6)
	}
	if len(gapsMS) < 20 {
		return nil, 0, fmt.Errorf("%w: only %d gaps", core.ErrCluster, len(gapsMS))
	}
	divergences = att.Divergences()
	if vic != nil {
		divergences += vic.Divergences()
	}
	return gapsMS, divergences, nil
}
