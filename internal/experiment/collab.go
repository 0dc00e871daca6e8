package experiment

import (
	"fmt"
	"strings"

	"stopwatch/internal/core"
	"stopwatch/internal/sim"
)

// CollabConfig parameterizes the Sec. IX collaborating-attacker study: a
// second attacker VM loads one replica host of the first attacker VM to
// marginalize that replica's influence on median calculations, and raising
// the replica count from 3 to 5 is the countermeasure. A run sets its seed
// and duration.
type CollabConfig struct {
	Seed uint64
	// Duration of each run.
	Duration sim.Time
}

// DefaultCollabConfig keeps runs short enough for benches. Dense probing,
// as in Fig 4.
func DefaultCollabConfig() CollabConfig {
	return CollabConfig{
		Seed:     29,
		Duration: 20 * sim.Second,
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
	for _, v := range []struct {
		name        string
		replicas    int
		marginalize bool
	}{
		{"3-replicas", 3, false},
		{"3-replicas+colluder", 3, true},
		{"5-replicas+colluder", 5, true},
	} {
		l, err := measureLeak(collabRig(cfg, v.replicas, v.marginalize), 0.95)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.name, err)
		}
		res.Points = append(res.Points, CollabPoint{Name: v.name, KS: l.ks, Obs95: l.obs[0]})
	}
	return res, nil
}

// collabRig describes one configuration. Topology on 7 hosts:
//
//	attacker VM1: {0,1,2} (3 replicas) or {0,1,2,3,4} (5 replicas)
//	victim:       {2,5,6} — shares exactly host 2 with VM1
//	colluder VM2: {0,5,6} — loads VM1's host 0 to marginalize that replica
//
// With five replicas the victim and the colluder run as baseline guests on
// hosts 2 and 0 alone, which is all of them the attacker's replicas ever
// saw. A cluster could run them as 3-replica guests next to the 5-replica
// attacker; the one-host loads stay so the table matches the pinned one.
func collabRig(cfg CollabConfig, replicas int, marginalize bool) probeRig {
	rig := probeRig{
		seed: cfg.Seed, hosts: 7,
		duration: cfg.Duration, probeMeanGap: denseProbeGap,
		attacker: "attacker", attHosts: []int{0, 1, 2, 3, 4}[:replicas], source: "colluder-ext",
	}
	if replicas == 3 {
		rig.guests = append(rig.guests, rigGuest{id: "victim", victim: true, hosts: []int{2, 5, 6},
			app: beacon(8*sim.Millisecond, 4_000_000, 64<<10, "victim-sink")})
	} else {
		rig.guests = append(rig.guests, rigGuest{id: "victim-local", victim: true, hosts: []int{2},
			app: beacon(8*sim.Millisecond, 6_000_000, 64<<10, "local-sink")})
	}
	if marginalize && replicas == 3 {
		rig.guests = append(rig.guests, rigGuest{id: "colluder-vm", hosts: []int{0, 5, 6},
			app: beacon(4*sim.Millisecond, 6_000_000, 64<<10, "colluder-sink")})
	} else if marginalize {
		rig.guests = append(rig.guests, rigGuest{id: "colluder-local", hosts: []int{0},
			app: beacon(4*sim.Millisecond, 6_000_000, 64<<10, "local-sink")})
	}
	return rig
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
