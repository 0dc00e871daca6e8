package main

// The paper-figs workload: the modelled face. RunFig5 (1/10/100/1000 KB x 3
// runs, both transports), RunFig6 and RunFig7 as shipped, both VMM modes,
// seeds offset by the benchmark seed so -seed 1 prints cmd/experiments' own
// Fig 6 and Fig 7 tables. Three-host single-guest clusters simulated for
// long virtual spans: heap depth in the tens, and the baseline VMM path that
// no fleet workload touches.

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"stopwatch/internal/apps"
	"stopwatch/internal/core"
	"stopwatch/internal/experiment"
	"stopwatch/internal/guest"
	"stopwatch/internal/netsim"
	"stopwatch/internal/sim"
	"stopwatch/internal/vtime"
)

const figsName = "paper-figs"

const figsWhy = "Fig 5/6/7 on 3-host single-guest clusters in both VMM modes: shallow heaps, the baseline VMM path, and the paper's ratios to the digit"

func figConfigs(seed uint64) (experiment.Fig5Config, experiment.Fig6Config, experiment.Fig7Config) {
	f5 := experiment.DefaultFig5Config()
	f5.SizesKB, f5.Runs = []int{1, 10, 100, 1000}, 3
	// The shipped 300 s timeout changes no number — a download ends within
	// 1.3 s and stops its cluster — but the coordinator then steps through
	// 300 simulated seconds of empty 150 µs windows: 88 % of Fig 5's host
	// time, none of it simulation. 10 s keeps the tables and drops the spin.
	f5.Timeout = 10 * sim.Second
	f5.Seed += seed - 1
	f6 := experiment.DefaultFig6Config()
	f6.Seed += seed - 1
	f7 := experiment.DefaultFig7Config()
	f7.Seed += seed - 1
	return f5, f6, f7
}

// buildFigClusters is paper-figs' set-up measurement. The figures build
// their clouds inside RunFig*, where the benchmark cannot time them apart
// from the run; this constructs the same clouds the same way — one per
// (figure point, VMM mode, run), guest deployed, client attached, started —
// and runs none of them.
func buildFigClusters(f5 experiment.Fig5Config, f6 experiment.Fig6Config, f7 experiment.Fig7Config) error {
	warmDisk := func(cc *core.ClusterConfig) {
		cc.VMM.DiskSeek = sim.Millisecond
		cc.VMM.DiskJitterMean = 300 * sim.Microsecond
	}
	parsecDisk := func(cc *core.ClusterConfig) {
		cc.VMM.DiskSeek = sim.Millisecond
		cc.VMM.DiskJitterMean = 500 * sim.Microsecond
		cc.VMM.DeltaD = vtime.Virtual(8 * sim.Millisecond)
	}
	type shape struct {
		n     int // clouds of this shape per VMM mode
		patch func(*core.ClusterConfig)
		app   func() guest.App
	}
	shapes := []shape{
		{n: len(f5.SizesKB) * f5.Runs, app: factory(kindFileTCP)},
		{n: len(f5.SizesKB) * f5.Runs, app: factory(kindFileUDP)},
		{n: len(f6.Rates), patch: warmDisk, app: factory(kindNFS)},
	}
	for _, prof := range f7.Profiles {
		shapes = append(shapes, shape{n: 1, patch: parsecDisk, app: func() guest.App {
			a, err := apps.NewParsecApp(prof, "collector")
			if err != nil {
				panic(err) // shipped profiles are valid
			}
			return a
		}})
	}
	for _, sh := range shapes {
		for _, mode := range []core.Mode{core.ModeBaseline, core.ModeStopWatch} {
			for k := 0; k < sh.n; k++ {
				cc := core.DefaultClusterConfig()
				cc.Mode = mode
				hosts := []int{0, 1, 2}
				if mode == core.ModeBaseline {
					cc.Hosts, hosts = 1, []int{0}
				}
				if sh.patch != nil {
					sh.patch(&cc)
				}
				c, err := core.New(cc)
				if err != nil {
					return err
				}
				if _, err := c.Deploy("guest", hosts, sh.app); err != nil {
					return err
				}
				if _, err := c.NewClient("client"); err != nil {
					return err
				}
				if err := c.Net().Attach(&netsim.FuncNode{Addr: "collector"}); err != nil {
					return err
				}
				c.Start()
			}
		}
	}
	return nil
}

func geomean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(v)))
}

// figsRep returns the paper-figs repetition on seed. The run phase calls
// RunFig* once per figure point (the harnesses seed each point on its own,
// so the tables are the same as one call per figure): fourteen windows for
// the speed reference instead of three.
func figsRep(ht *hostTimer, seed uint64, smoke bool) repetition {
	return func(tr *tracer, _ bool) (*repResult, error) {
		res := &repResult{sim: map[string]float64{}, layer: map[string]float64{}}
		f5, f6, f7 := figConfigs(seed)
		if smoke {
			f5.SizesKB, f5.Runs = f5.SizesKB[:1], 1
			f6.Rates, f6.LoadDuration = f6.Rates[:1], 500*sim.Millisecond
			f7.Profiles = f7.Profiles[:1]
		}
		err := timeSetup(res, ht, func() error {
			sp := tr.begin("build")
			defer tr.end(sp)
			return buildFigClusters(f5, f6, f7)
		})
		if err != nil {
			return nil, err
		}

		r5 := &experiment.Fig5Result{Config: f5}
		r6 := &experiment.Fig6Result{Config: f6}
		r7 := &experiment.Fig7Result{Config: f7}
		var points []func() error
		for _, kb := range f5.SizesKB {
			cfg := f5
			cfg.SizesKB = []int{kb}
			points = append(points, func() error {
				r, err := experiment.RunFig5(cfg)
				if err == nil {
					r5.Points = append(r5.Points, r.Points...)
				}
				return err
			})
		}
		for _, rate := range f6.Rates {
			cfg := f6
			cfg.Rates = []float64{rate}
			points = append(points, func() error {
				r, err := experiment.RunFig6(cfg)
				if err == nil {
					r6.Points = append(r6.Points, r.Points...)
				}
				return err
			})
		}
		for _, prof := range f7.Profiles {
			cfg := f7
			cfg.Profiles = []apps.ParsecProfile{prof}
			points = append(points, func() error {
				r, err := experiment.RunFig7(cfg)
				if err == nil {
					r7.Points = append(r7.Points, r.Points...)
				}
				return err
			})
		}
		run := tr.begin("run")
		tr.setParent(run)
		err = timeRun(res, ht, len(points), func(w int) error {
			sp := tr.begin(fmt.Sprintf("run.w%02d", w))
			defer tr.end(sp)
			return points[w]()
		})
		tr.setParent(0)
		tr.end(run)
		if err != nil {
			return nil, err
		}
		for w, s := range res.windowS {
			fig := "fig7"
			if w < len(f5.SizesKB) {
				fig = "fig5"
			} else if w < len(f5.SizesKB)+len(f6.Rates) {
				fig = "fig6"
			}
			res.layer["experiment."+fig+"_wall_s"] += s
		}

		sp := tr.begin("verify")
		// One op per figure point: it completed (RunFig* errors otherwise),
		// and its ratio is finite and above 1 — StopWatch never beats the
		// baseline it adds delay to.
		var http, udp, nfs, parsec []float64
		var lat []sim.Time // StopWatch-mode client-observed point means
		simMS := 0.0       // simulated time the points covered
		point := func(class *[]float64, ratio float64, what string) {
			res.attempted++
			if math.IsNaN(ratio) || math.IsInf(ratio, 0) || ratio <= 1 {
				res.failed++
				res.notes = append(res.notes, fmt.Sprintf("%s: ratio %v", what, ratio))
				return
			}
			*class = append(*class, ratio)
		}
		for _, p := range r5.Points {
			point(&http, p.HTTPRatio, fmt.Sprintf("fig5 http %dKB", p.SizeKB))
			point(&udp, p.UDPRatio, fmt.Sprintf("fig5 udp %dKB", p.SizeKB))
			lat = append(lat, sim.FromMillis(p.HTTPStopWatch), sim.FromMillis(p.UDPStopWatch))
			simMS += float64(f5.Runs) * (p.HTTPBaseline + p.HTTPStopWatch + p.UDPBaseline + p.UDPStopWatch)
		}
		for _, p := range r6.Points {
			point(&nfs, p.Ratio, fmt.Sprintf("fig6 %v ops/s", p.Rate))
			lat = append(lat, sim.FromMillis(p.LatencyStopWatch))
			simMS += 2 * (f6.LoadDuration + f6.DrainDuration).Milliseconds()
		}
		errSum := 0.0
		for _, p := range r7.Points {
			point(&parsec, p.Ratio, "fig7 "+p.Name)
			errSum += math.Abs(p.Baseline-p.PaperBaseline)/p.PaperBaseline + math.Abs(p.StopWatch-p.PaperStopWatch)/p.PaperStopWatch
			simMS += p.Baseline + p.StopWatch
		}
		res.simS = simMS / 1000
		if res.failed == 0 {
			res.sim["experiment.overhead_ratio_http"] = geomean(http)
			res.sim["experiment.overhead_ratio_udp"] = geomean(udp)
			res.sim["experiment.overhead_ratio_nfs"] = geomean(nfs)
			res.sim["experiment.overhead_ratio_parsec"] = geomean(parsec)
			res.sim["overhead_ratio"] = geomean([]float64{geomean(http), geomean(udp), geomean(nfs), geomean(parsec)})
		}
		// Fig 7 is the only figure whose paper columns the repo holds; Fig 5
		// and Fig 6 are unvalidated and get no error figure.
		res.sim["experiment.paper_err_pct_parsec"] = 100 * errSum / float64(2*len(r7.Points))
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		res.sim["client_lat_ms_p50"] = percentile(lat, 0.50)
		res.sim["client_lat_ms_p99"] = percentile(lat, 0.99)
		res.sim["client_ops"] = float64(len(lat))
		h := fnv.New64a()
		fmt.Fprintf(h, "%v%v%v", r5.Points, r6.Points, r7.Points)
		res.digest = h.Sum64()
		tr.end(sp)
		return res, nil
	}
}
