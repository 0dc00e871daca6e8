package experiment

import (
	"fmt"
	"strings"

	"stopwatch/internal/apps"
	"stopwatch/internal/core"
	"stopwatch/internal/sim"
)

// Fig6Config parameterizes the NFS (nhfsstone) experiment.
type Fig6Config struct {
	Seed uint64
	// Rates are the offered aggregate op rates (paper: 25..400/s).
	Rates []float64
	// LoadDuration is how long ops are issued per point.
	LoadDuration sim.Time
	// DrainDuration lets in-flight ops finish.
	DrainDuration sim.Time
}

// fig6Processes is the client process count (paper: 5).
const fig6Processes = 5

// DefaultFig6Config mirrors the paper's sweep.
func DefaultFig6Config() Fig6Config {
	return Fig6Config{
		Seed:          13,
		Rates:         []float64{25, 50, 100, 200, 400},
		LoadDuration:  4 * sim.Second,
		DrainDuration: 2 * sim.Second,
	}
}

// Fig6Point is one offered-rate row.
type Fig6Point struct {
	Rate float64
	// Mean per-op latency (ms).
	LatencyBaseline, LatencyStopWatch float64
	Ratio                             float64
	// Packets per op at the client (StopWatch runs).
	ClientToServerPerOp, ServerToClientPerOp float64
	// Ops completed in the StopWatch run.
	OpsCompleted uint64
}

// Fig6Result is the sweep.
type Fig6Result struct {
	Config Fig6Config
	Points []Fig6Point
	// Divergences is as Fig5Result's.
	Divergences int
}

// RunFig6 sweeps offered rates under both VMMs.
func RunFig6(cfg Fig6Config) (*Fig6Result, error) {
	if len(cfg.Rates) == 0 || cfg.LoadDuration <= 0 {
		return nil, fmt.Errorf("%w: fig6 config %+v", core.ErrCluster, cfg)
	}
	res := &Fig6Result{Config: cfg}
	for _, rate := range cfg.Rates {
		base, err := fig6One(cfg, rate, baselineHosts)
		if err != nil {
			return nil, err
		}
		sw, err := fig6One(cfg, rate, stopWatchHosts)
		if err != nil {
			return nil, err
		}
		res.Divergences += sw.divergences
		res.Points = append(res.Points, Fig6Point{
			Rate:                rate,
			LatencyBaseline:     base.meanMS,
			LatencyStopWatch:    sw.meanMS,
			Ratio:               sw.meanMS / base.meanMS,
			ClientToServerPerOp: sw.c2sPerOp,
			ServerToClientPerOp: sw.s2cPerOp,
			OpsCompleted:        sw.ops,
		})
	}
	return res, nil
}

// nfsRun is what one (rate, VMM) run measured.
type nfsRun struct {
	meanMS, c2sPerOp, s2cPerOp float64
	ops                        uint64
	divergences                int
}

func fig6One(cfg Fig6Config, rate float64, hosts []int) (nfsRun, error) {
	cc := core.DefaultClusterConfig()
	cc.Seed = cfg.Seed + uint64(rate*10)
	// Warm-server disk regime: the paper's NFS server sustained 400 ops/s
	// at ~15 ms latency, which a 4 ms-seek cold disk cannot (too few IOPS);
	// its working set was clearly cached. Mean service ≈ 1.4 ms.
	cc.VMM.DiskSeek = sim.Millisecond
	cc.VMM.DiskJitterMean = 300 * sim.Microsecond
	c, g, err := figRig(cc, "nfs", hosts, factory(func() (*apps.NFSServer, error) { return apps.NewNFSServer(16) }))
	if err != nil {
		return nfsRun{}, err
	}
	cl, err := c.NewClient("nfs-client")
	if err != nil {
		return nfsRun{}, err
	}
	c.Start()
	gen, err := apps.NewNFSLoadGen(c.Loop(), c.Source().Stream("nfsgen"), cl, core.ServiceAddr("nfs"), apps.PaperMix(), apps.NFSLoadGenConfig{
		Processes:  fig6Processes,
		RatePerSec: rate,
	})
	if err != nil {
		return nfsRun{}, err
	}
	gen.Start(cfg.LoadDuration)
	if err := c.Run(cfg.LoadDuration + cfg.DrainDuration); err != nil {
		return nfsRun{}, err
	}
	lats := gen.Latencies()
	if len(lats) == 0 {
		return nfsRun{}, fmt.Errorf("%w: no NFS ops completed at rate %v on hosts %v", core.ErrCluster, rate, hosts)
	}
	var sum sim.Time
	for _, l := range lats {
		sum += l
	}
	ops := gen.Completed()
	return nfsRun{
		meanMS:      (sum / sim.Time(len(lats))).Milliseconds(),
		c2sPerOp:    float64(cl.PacketsSent()) / float64(ops),
		s2cPerOp:    float64(cl.PacketsReceived()) / float64(ops),
		ops:         ops,
		divergences: g.Divergences(),
	}, nil
}

// Render prints the Fig-6 table.
func (r *Fig6Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 6(a): NFS mean latency per op (ms); 6(b): packets per op\n")
	fmt.Fprintf(&b, "%8s %10s %10s %7s %10s %10s %8s\n",
		"rate/s", "baseline", "stopwatch", "ratio", "c→s/op", "s→c/op", "ops")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%8.0f %10.2f %10.2f %7.2f %10.2f %10.2f %8d\n",
			p.Rate, p.LatencyBaseline, p.LatencyStopWatch, p.Ratio,
			p.ClientToServerPerOp, p.ServerToClientPerOp, p.OpsCompleted)
	}
	renderDivergences(&b, r.Divergences)
	return b.String()
}
