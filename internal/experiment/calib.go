package experiment

import (
	"fmt"
	"strings"

	"stopwatch/internal/core"
	"stopwatch/internal/sim"
	"stopwatch/internal/vtime"
)

// CalibConfig parameterizes the Δn sweep of Sec. VII-A: how large must the
// network-interrupt offset be before synchrony violations (divergences)
// vanish, and what latency does each choice cost? The stream under test is
// Poisson at one packet per calibProbeGap.
type CalibConfig struct {
	Seed uint64
	// DeltaNsMS are the Δn values to sweep, in milliseconds of virtual time.
	DeltaNsMS []float64
	// Duration of each run.
	Duration sim.Time
}

// calibProbeGap is the mean gap of the Poisson packet stream under test.
const calibProbeGap = 15 * sim.Millisecond

// DefaultCalibConfig sweeps 2–16 ms.
func DefaultCalibConfig() CalibConfig {
	return CalibConfig{
		Seed:      23,
		DeltaNsMS: []float64{2, 4, 6, 8, 10, 12, 16},
		Duration:  10 * sim.Second,
	}
}

// CalibPoint is one Δn's outcome.
type CalibPoint struct {
	DeltaNMS float64
	// Divergences across the guest's replicas (synchrony violations).
	Divergences int
	// Deliveries is the number of packets delivered.
	Deliveries int
	// MeanLatencyMS is the mean ingress→guest delivery latency (real ms,
	// measured at replica 0).
	MeanLatencyMS float64
}

// CalibResult is the sweep outcome.
type CalibResult struct {
	Config CalibConfig
	Points []CalibPoint
}

// RunCalib sweeps Δn and reports the divergence/latency tradeoff.
func RunCalib(cfg CalibConfig) (*CalibResult, error) {
	if len(cfg.DeltaNsMS) == 0 || cfg.Duration <= 0 {
		return nil, fmt.Errorf("%w: calib config %+v", core.ErrCluster, cfg)
	}
	res := &CalibResult{Config: cfg}
	for _, dn := range cfg.DeltaNsMS {
		// A coresident active guest on host 2 stresses the I/O path.
		rig := probeRig{
			seed: cfg.Seed, hosts: 5,
			deltaN:   vtime.Virtual(dn * float64(sim.Millisecond)),
			duration: cfg.Duration, probeMeanGap: calibProbeGap, poisson: true,
			attacker: "probe", attHosts: []int{0, 1, 2}, source: "colluder",
			guests: []rigGuest{{id: "load", hosts: []int{2, 3, 4},
				app: beacon(6*sim.Millisecond, 2_000_000, 64<<10, "load-sink")}},
		}
		run, err := rig.run()
		if err != nil {
			return nil, err
		}
		pt := CalibPoint{DeltaNMS: dn, Divergences: run.divergences, Deliveries: len(run.latencies)}
		for _, l := range run.latencies {
			pt.MeanLatencyMS += l.Milliseconds()
		}
		if len(run.latencies) > 0 {
			pt.MeanLatencyMS /= float64(len(run.latencies))
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// Render prints the calibration table.
func (r *CalibResult) Render() string {
	var b strings.Builder
	b.WriteString("Sec VII-A: Δn calibration (load=true)\n")
	fmt.Fprintf(&b, "%8s %12s %12s %14s\n", "Δn ms", "divergences", "deliveries", "mean lat ms")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%8.0f %12d %12d %14.2f\n", p.DeltaNMS, p.Divergences, p.Deliveries, p.MeanLatencyMS)
	}
	return b.String()
}
