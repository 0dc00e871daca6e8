package experiment

import (
	"fmt"
	"strings"

	"stopwatch/internal/core"
	"stopwatch/internal/sim"
)

// LeaderConfig parameterizes the median-vs-leader ablation: Sec. II argues
// that prior replication systems, where one replica dictates event timing,
// would simply copy a coresident victim's signal to all replicas. This
// experiment compares StopWatch's median delivery against that design by
// letting the victim-coresident replica dictate its own timings. The rig is
// Fig 4's (dense probes) with a leaderVictimFileKB file; a run sets its seed
// and duration.
type LeaderConfig struct {
	Seed     uint64
	Duration sim.Time
}

// leaderVictimFileKB is the file the ablation's victim serves: heavy enough
// that the coresident replica's Dom0 contention stands clearly above the KS
// sampling floor at the default duration (~10k probe gaps), which is what
// the ablation needs to separate the two policies — the leader leak exceeds
// the median leak by ~0.01 KS, and the floor at n samples is
// ~1.36·sqrt(2/n).
const leaderVictimFileKB = 128

// DefaultLeaderConfig mirrors the Fig-4 scenario (dense probing).
func DefaultLeaderConfig() LeaderConfig {
	return LeaderConfig{
		Seed:     31,
		Duration: 20 * sim.Second,
	}
}

// LeaderResult reports the leak under both policies.
type LeaderResult struct {
	Config LeaderConfig
	// KSMedian is the victim-induced KS shift under median delivery.
	KSMedian float64
	// KSLeader is the shift when the coresident replica dictates timing.
	KSLeader float64
	// Obs95Median / Obs95Leader: attacker effort at 95% confidence.
	Obs95Median, Obs95Leader float64
}

// RunLeader measures the leak with PolicyMedian vs PolicyOwn at the
// victim-coresident replica.
func RunLeader(cfg LeaderConfig) (*LeaderResult, error) {
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("%w: leader config %+v", core.ErrCluster, cfg)
	}
	res := &LeaderResult{Config: cfg}
	// Read the VICTIM-CORESIDENT replica's observations (slot 2 = host 2,
	// the shared host). Under PolicyOwn replicas diverge by design; that
	// replica is the "leader" whose timings prior systems would propagate.
	measure := func(own bool) (ks, obs95 float64, err error) {
		rig := fileVictimRig(false, cfg.Seed, cfg.Duration, 1, leaderVictimFileKB)
		rig.own, rig.read = own, 2
		l, err := measureLeak(rig, 0.95)
		if err != nil {
			return 0, 0, err
		}
		return l.ks, l.obs[0], nil
	}
	var err error
	if res.KSMedian, res.Obs95Median, err = measure(false); err != nil {
		return nil, err
	}
	if res.KSLeader, res.Obs95Leader, err = measure(true); err != nil {
		return nil, err
	}
	return res, nil
}

// Render prints the ablation.
func (r *LeaderResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: median delivery vs leader-dictated timing (Sec. II argument)\n")
	fmt.Fprintf(&b, "%-18s %10s %12s\n", "policy", "KS leak", "obs @0.95")
	fmt.Fprintf(&b, "%-18s %10.4f %12.1f\n", "median (StopWatch)", r.KSMedian, r.Obs95Median)
	fmt.Fprintf(&b, "%-18s %10.4f %12.1f\n", "leader-dictates", r.KSLeader, r.Obs95Leader)
	return b.String()
}
