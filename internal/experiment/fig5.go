package experiment

import (
	"fmt"
	"strings"

	"stopwatch/internal/apps"
	"stopwatch/internal/core"
	"stopwatch/internal/guest"
	"stopwatch/internal/sim"
)

// Fig5Config parameterizes the file-download latency sweep.
type Fig5Config struct {
	Seed uint64
	// SizesKB are the file sizes (paper: 1KB–10MB, log scale).
	SizesKB []int
	// Runs per point (paper: 10).
	Runs int
	// Timeout per download.
	Timeout sim.Time
}

// DefaultFig5Config mirrors the paper's sweep.
func DefaultFig5Config() Fig5Config {
	return Fig5Config{
		Seed:    11,
		SizesKB: []int{1, 10, 100, 1000, 10000},
		Runs:    10,
		Timeout: 300 * sim.Second,
	}
}

// Fig5Point is one (size, transport) row.
type Fig5Point struct {
	SizeKB int
	// Mean latencies (ms).
	HTTPBaseline, HTTPStopWatch float64
	UDPBaseline, UDPStopWatch   float64
	// Ratios.
	HTTPRatio, UDPRatio float64
}

// Fig5Result is the full sweep.
type Fig5Result struct {
	Config Fig5Config
	Points []Fig5Point
	// Divergences sums the replicas' lockstep divergence counters over the
	// StopWatch runs: a non-zero sweep measured a guest that did not hold.
	Divergences int
}

// RunFig5 sweeps sizes × transports × VMMs. Every download is from a cold
// start: a fresh cluster per run, as in the paper.
func RunFig5(cfg Fig5Config) (*Fig5Result, error) {
	if len(cfg.SizesKB) == 0 || cfg.Runs <= 0 {
		return nil, fmt.Errorf("%w: fig5 config %+v", core.ErrCluster, cfg)
	}
	res := &Fig5Result{Config: cfg}
	for _, kb := range cfg.SizesKB {
		p := Fig5Point{SizeKB: kb}
		var err error
		if p.HTTPBaseline, err = res.mean(kb, apps.ModeTCP, baselineHosts); err != nil {
			return nil, err
		}
		if p.HTTPStopWatch, err = res.mean(kb, apps.ModeTCP, stopWatchHosts); err != nil {
			return nil, err
		}
		if p.UDPBaseline, err = res.mean(kb, apps.ModeUDP, baselineHosts); err != nil {
			return nil, err
		}
		if p.UDPStopWatch, err = res.mean(kb, apps.ModeUDP, stopWatchHosts); err != nil {
			return nil, err
		}
		p.HTTPRatio = p.HTTPStopWatch / p.HTTPBaseline
		p.UDPRatio = p.UDPStopWatch / p.UDPBaseline
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// mean runs one (size, transport, VMM) cell and folds its runs' divergences
// into the result.
func (r *Fig5Result) mean(kb int, mode apps.FileServerMode, hosts []int) (float64, error) {
	var sum float64
	for run := 0; run < r.Config.Runs; run++ {
		lat, div, err := fig5One(r.Config.Seed+uint64(run)*1337, kb, mode, hosts, r.Config.Timeout)
		if err != nil {
			return 0, err
		}
		sum += lat.Milliseconds()
		r.Divergences += div
	}
	return sum / float64(r.Config.Runs), nil
}

// The two arms of Figs 5–7, as the hosts their one guest is deployed on:
// host 0 alone runs it under the baseline VMM (no replicas to diverge), the
// paper's three hosts under StopWatch.
var baselineHosts, stopWatchHosts = []int{0}, []int{0, 1, 2}

// figRig builds the three-host cluster Figs 5–7 measure on and deploys their
// one guest on hosts, baselineHosts or stopWatchHosts.
func figRig(cc core.ClusterConfig, id string, hosts []int, app func() guest.App) (*core.Cluster, *core.Guest, error) {
	c, err := core.New(cc)
	if err != nil {
		return nil, nil, err
	}
	g, err := c.Deploy(id, hosts, app)
	return c, g, err
}

// factory turns an app constructor into the guest factory Deploy takes. The
// configurations in this package are constants, so a constructor's error is
// a bug in it.
func factory[A guest.App](build func() (A, error)) func() guest.App {
	return func() guest.App {
		a, err := build()
		if err != nil {
			panic(err)
		}
		return a
	}
}

func fig5One(seed uint64, kb int, mode apps.FileServerMode, hosts []int, timeout sim.Time) (sim.Time, int, error) {
	cc := core.DefaultClusterConfig()
	cc.Seed = seed
	fsCfg := apps.DefaultFileServerConfig()
	fsCfg.Mode = mode
	c, g, err := figRig(cc, "web", hosts, factory(func() (*apps.FileServer, error) { return apps.NewFileServer(fsCfg) }))
	if err != nil {
		return 0, 0, err
	}
	cl, err := c.NewClient("laptop")
	if err != nil {
		return 0, 0, err
	}
	c.Start()
	dl := apps.NewDownloader(cl)
	var lat sim.Time
	c.Loop().At(20*sim.Millisecond, "fetch", func() {
		_ = dl.Fetch(core.ServiceAddr("web"), mode, kb<<10, func(l sim.Time) {
			lat = l
			// Quiesce quickly once done.
			c.Stop()
		})
	})
	if err := c.Run(timeout); err != nil {
		return 0, 0, err
	}
	if lat == 0 {
		return 0, 0, fmt.Errorf("%w: %dKB %v download on hosts %v did not complete", core.ErrCluster, kb, mode, hosts)
	}
	return lat, g.Divergences(), nil
}

// renderDivergences is the last line of the Fig 5–7 tables.
func renderDivergences(b *strings.Builder, n int) {
	fmt.Fprintf(b, "lockstep divergences over the StopWatch runs: %d\n", n)
}

// Render prints the Fig-5 table.
func (r *Fig5Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 5: file-retrieval latency (ms, mean of %d runs)\n", r.Config.Runs)
	fmt.Fprintf(&b, "%8s %12s %12s %8s %12s %12s %8s\n",
		"size KB", "HTTP base", "HTTP SW", "ratio", "UDP base", "UDP SW", "ratio")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%8d %12.2f %12.2f %8.2f %12.2f %12.2f %8.2f\n",
			p.SizeKB, p.HTTPBaseline, p.HTTPStopWatch, p.HTTPRatio,
			p.UDPBaseline, p.UDPStopWatch, p.UDPRatio)
	}
	renderDivergences(&b, r.Divergences)
	return b.String()
}
