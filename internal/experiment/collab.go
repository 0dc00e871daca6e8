package experiment

import (
	"fmt"
	"strings"

	"stopwatch/internal/apps"
	"stopwatch/internal/core"
	"stopwatch/internal/guest"
	"stopwatch/internal/sim"
	"stopwatch/internal/vmm"
	"stopwatch/internal/vtime"
)

// CollabConfig parameterizes the Sec. IX collaborating-attacker study: a
// second attacker VM loads one replica host of the first attacker VM to
// marginalize that replica's influence on median calculations, and raising
// the replica count from 3 to 5 is the countermeasure.
type CollabConfig struct {
	Seed uint64
	// Duration of each run.
	Duration sim.Time
	// ProbeMeanGap drives the attacker's observed packet stream.
	ProbeMeanGap sim.Time
	// VictimFileKB sizes the victim's served file.
	VictimFileKB int
}

// DefaultCollabConfig keeps runs short enough for benches. Dense probing,
// as in Fig 4.
func DefaultCollabConfig() CollabConfig {
	return CollabConfig{
		Seed:         29,
		Duration:     20 * sim.Second,
		ProbeMeanGap: 2 * sim.Millisecond,
		VictimFileKB: 64,
	}
}

// CollabPoint reports one configuration's leak.
type CollabPoint struct {
	Name string
	// KS distance between the attacker's gap distributions with and
	// without the victim serving: the leak magnitude.
	KS float64
	// Obs95 is the estimated observations to detect at 95% confidence.
	Obs95 float64
}

// CollabResult compares the three configurations.
type CollabResult struct {
	Config CollabConfig
	Points []CollabPoint
}

// RunCollab measures the leak for: 3 replicas (no collusion), 3 replicas
// with a marginalizing colluder, and 5 replicas with the same colluder.
func RunCollab(cfg CollabConfig) (*CollabResult, error) {
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("%w: collab config %+v", core.ErrCluster, cfg)
	}
	res := &CollabResult{Config: cfg}
	type variant struct {
		name        string
		replicas    int
		marginalize bool
	}
	for _, v := range []variant{
		{"3-replicas", 3, false},
		{"3-replicas+colluder", 3, true},
		{"5-replicas+colluder", 5, true},
	} {
		withV, err := collabGaps(cfg, v.replicas, v.marginalize, true)
		if err != nil {
			return nil, fmt.Errorf("%s (victim): %w", v.name, err)
		}
		withoutV, err := collabGaps(cfg, v.replicas, v.marginalize, false)
		if err != nil {
			return nil, fmt.Errorf("%s (no victim): %w", v.name, err)
		}
		ks, obs, err := scoreLeak(withV, withoutV, 10, 0.95)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, CollabPoint{Name: v.name, KS: ks, Obs95: obs[0]})
	}
	return res, nil
}

// collabGaps runs one configuration. Topology on 7 hosts:
//
//	attacker VM1: {0,1,2} (3 replicas) or {0,1,2,3,4} (5 replicas)
//	victim:       {2,5,6} — shares exactly host 2 with VM1
//	colluder VM2: {0,5,6} — loads VM1's host 0 to marginalize that replica
func collabGaps(cfg CollabConfig, replicas int, marginalize, withVictim bool) ([]float64, error) {
	cc := core.DefaultClusterConfig()
	cc.Seed = cfg.Seed
	cc.Hosts = 7
	cc.Replicas = replicas
	c, err := core.New(cc)
	if err != nil {
		return nil, err
	}
	attHosts := []int{0, 1, 2}
	if replicas == 5 {
		attHosts = []int{0, 1, 2, 3, 4}
	}
	att, err := c.Deploy("attacker", attHosts, func() guest.App { return apps.NewProbeApp() })
	if err != nil {
		return nil, err
	}
	// The victim and colluder are triplicated regardless of the attacker's
	// replica count — deploy them on their own 3-host sets. With Replicas=5
	// configured cluster-wide, deploy victim/colluder with 5... the cloud
	// would size every guest equally; to keep the study focused the
	// colluder and victim use beacon-style self-driving apps deployed on a
	// separate 3-replica cluster config is not possible in one cluster, so
	// they are deployed with the cluster's replica count on distinct hosts
	// when replicas==3, and as host-local load (baseline-style beacons
	// attached directly to hosts) when replicas==5.
	if withVictim {
		if replicas == 3 {
			if _, err := c.Deploy("victim", []int{2, 5, 6}, victimFactory(cfg)); err != nil {
				return nil, err
			}
		} else {
			if err := attachLocalLoad(c, 2, "victim-local", vtime.Virtual(8*sim.Millisecond)); err != nil {
				return nil, err
			}
		}
	}
	if marginalize {
		if replicas == 3 {
			if _, err := c.Deploy("colluder-vm", []int{0, 5, 6}, func() guest.App {
				b := apps.NewBeaconApp(vtime.Virtual(4 * sim.Millisecond))
				b.Compute = 6_000_000
				b.Sink = "colluder-sink"
				return b
			}); err != nil {
				return nil, err
			}
		} else {
			if err := attachLocalLoad(c, 0, "colluder-local", vtime.Virtual(4*sim.Millisecond)); err != nil {
				return nil, err
			}
		}
	}
	c.Start()
	ps := apps.NewProbeSource(c.Net(), c.Loop(), c.Source().Stream("probe"),
		"colluder-ext", core.ServiceAddr("attacker"), cfg.ProbeMeanGap)
	ps.Constant = true
	ps.Start(cfg.Duration)
	if err := c.Run(cfg.Duration + 200*sim.Millisecond); err != nil {
		return nil, err
	}
	probe := att.App(0).(*apps.ProbeApp)
	var gaps []float64
	for _, g := range probe.InterDeliveryGaps() {
		gaps = append(gaps, g/1e6)
	}
	if len(gaps) < 20 {
		return nil, fmt.Errorf("%w: only %d gaps observed", core.ErrCluster, len(gaps))
	}
	return gaps, nil
}

func victimFactory(cfg CollabConfig) func() guest.App {
	return func() guest.App {
		b := apps.NewBeaconApp(vtime.Virtual(8 * sim.Millisecond))
		b.Compute = 4_000_000
		b.DiskBytes = cfg.VictimFileKB << 10
		b.Sink = "victim-sink"
		return b
	}
}

// attachLocalLoad puts a baseline-style load guest directly on one host
// (used where a replicated deployment would change the study's topology).
func attachLocalLoad(c *core.Cluster, host int, id string, period vtime.Virtual) error {
	b := apps.NewBeaconApp(period)
	b.Compute = 6_000_000
	b.Sink = "local-sink"
	rt, err := vmm.NewBaselineRuntime(c.Host(host), id, b)
	if err != nil {
		return err
	}
	rt.OnSend = vmm.SendSinkFunc(func(a guest.IOAction) {})
	rt.Start()
	return nil
}

// Render prints the Sec.-IX comparison.
func (r *CollabResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sec IX: collaborating attackers (marginalize one replica)\n")
	fmt.Fprintf(&b, "%-22s %10s %12s\n", "configuration", "KS leak", "obs @0.95")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-22s %10.4f %12.1f\n", p.Name, p.KS, p.Obs95)
	}
	return b.String()
}
