package experiment

import (
	"fmt"
	"slices"

	"stopwatch/internal/apps"
	"stopwatch/internal/core"
	"stopwatch/internal/guest"
	"stopwatch/internal/netsim"
	"stopwatch/internal/sim"
	"stopwatch/internal/stats"
	"stopwatch/internal/vmm"
	"stopwatch/internal/vtime"
)

// scoreLeak is the one leak scorer: how well an attacker's inter-delivery
// gap samples taken with and without the victim active can be told apart.
// It returns the KS distance between the two empirical distributions and,
// per confidence level, the number of observations a χ² test needs to
// detect the victim — cells are the no-victim distribution's quantile bins,
// so the null hypothesis is uniform over them.
func scoreLeak(withVictim, noVictim []float64, confidences ...float64) (ks float64, obs []float64, err error) {
	eV, err := stats.NewECDF(withVictim)
	if err != nil {
		return 0, nil, err
	}
	eN, err := stats.NewECDF(noVictim)
	if err != nil {
		return 0, nil, err
	}
	bn := stats.Binning{}
	for i := 1; i < chiBins; i++ {
		bn.Edges = append(bn.Edges, eN.Quantile(float64(i)/float64(chiBins)))
	}
	obs, err = stats.DetectionCurve(bn.CellProbs(eN.CDF), bn.CellProbs(eV.CDF), confidences)
	return stats.KSDistanceECDF(eV, eN), obs, err
}

// probeRig is the one attacker-probe run behind Fig 4, both ablations and
// the Δn calibration: a probe stream from outside the cloud into an attacker
// VM of ProbeApps, next to whatever shares its hosts. A rig is data — the
// cluster's shape, where the attacker sits (its host list is its group) and
// how its replicas agree, and the guests next to it — and run is the only
// code that builds a cluster from it.
type probeRig struct {
	seed  uint64
	hosts int
	// deltaN overrides the network-interrupt offset Δn (0 = the default).
	deltaN                 vtime.Virtual
	duration, probeMeanGap sim.Time

	// attacker is the probed guest's id, on attHosts.
	attacker string
	attHosts []int
	// own lets each attacker replica dictate its own delivery times instead
	// of agreeing on the median; the replicas then diverge by design.
	own bool
	// read names the attacker replica whose gaps are returned.
	read int
	// source is the fabric address the probes come from; poisson spaces them
	// exponentially instead of at exactly probeMeanGap.
	source  netsim.Addr
	poisson bool

	guests []rigGuest
}

// rigGuest is a guest deployed next to the attacker, in the order given: on
// one host it runs under the baseline VMM, on an odd number of hosts under
// StopWatch with that many replicas.
type rigGuest struct {
	id    string
	hosts []int
	app   func() guest.App
	// victim marks the guest whose presence the attacker tries to detect:
	// measureLeak runs the rig with and without it.
	victim bool
	// streams closed-loop TCP downloads of fileKB each are driven at the
	// guest from the fabric (0 for an app that drives itself).
	streams, fileKB int
}

// beacon is a self-driving co-resident app: a burst of compute, one disk
// read and one packet to sink every period.
func beacon(period sim.Time, compute int64, diskBytes int, sink netsim.Addr) func() guest.App {
	return func() guest.App {
		b := apps.NewBeaconApp(vtime.Virtual(period))
		b.Compute, b.DiskBytes, b.Sink = compute, diskBytes, sink
		return b
	}
}

// probeRun is what one run of a rig observed.
type probeRun struct {
	// gapsMS are the inter-delivery gaps at the attacker replica read.
	gapsMS []float64
	// divergences counts the attacker's synchrony violations, coDivergences
	// those of the guests next to it.
	divergences, coDivergences int
	// latencies is, per probe, emission → injection at StopWatch replica 0.
	latencies []sim.Time
}

// run builds the rig's cluster, probes it for the duration and reads the
// attacker.
func (p probeRig) run() (*probeRun, error) {
	cc := core.DefaultClusterConfig()
	cc.Seed, cc.Hosts = p.seed, p.hosts
	if p.deltaN > 0 {
		cc.VMM.DeltaN = p.deltaN
	}
	c, err := core.New(cc)
	if err != nil {
		return nil, err
	}
	att, err := c.Deploy(p.attacker, p.attHosts, func() guest.App { return apps.NewProbeApp() })
	if err != nil {
		return nil, err
	}
	// Probes are the only traffic to the attacker, so the ingress multicast
	// sequence is the probe emission sequence.
	res := &probeRun{}
	var sentAt []sim.Time
	if p.own {
		for _, r := range att.Replicas() {
			r.NetDev().Policy = vmm.PolicyOwn
		}
	}
	if att.Baseline == nil {
		att.Replica(0).Runtime().OnNetDeliver = func(seq uint64, _ vtime.Virtual, real sim.Time) {
			if seq >= 1 && seq <= uint64(len(sentAt)) {
				res.latencies = append(res.latencies, real-sentAt[seq-1])
			}
		}
	}
	var co []*core.Guest
	for _, g := range p.guests {
		d, err := c.Deploy(g.id, g.hosts, g.app)
		if err != nil {
			return nil, err
		}
		co = append(co, d)
	}
	c.Start()

	ps := apps.NewProbeSource(c.Net(), c.Loop(), c.Source().Stream("probe"),
		p.source, core.ServiceAddr(p.attacker), p.probeMeanGap)
	ps.Constant = !p.poisson
	ps.OnSend = func(_ uint64, at sim.Time) { sentAt = append(sentAt, at) }
	ps.Start(p.duration)

	for _, g := range p.guests {
		if g.streams == 0 {
			continue
		}
		cl, err := c.NewClient(netsim.Addr(g.id + "-client"))
		if err != nil {
			return nil, err
		}
		dl := apps.NewDownloader(cl)
		var kick func()
		kick = func() {
			_ = dl.Fetch(core.ServiceAddr(g.id), apps.ModeTCP, g.fileKB<<10, func(sim.Time) { kick() })
		}
		for i := 0; i < g.streams; i++ {
			c.Loop().At(sim.Time(i+1)*5*sim.Millisecond, g.id+"-load", kick)
		}
	}

	if err := c.Run(p.duration + 200*sim.Millisecond); err != nil {
		return nil, err
	}
	if !p.own {
		if err := att.CheckLockstep(); err != nil {
			return nil, err
		}
	}
	for _, g := range att.App(p.read).(*apps.ProbeApp).InterDeliveryGaps() {
		res.gapsMS = append(res.gapsMS, g/1e6)
	}
	if len(res.gapsMS) < 20 {
		return nil, fmt.Errorf("%w: only %d gaps", core.ErrCluster, len(res.gapsMS))
	}
	res.divergences = att.Divergences()
	for _, g := range co {
		res.coDivergences += g.Divergences()
	}
	return res, nil
}

// leakRuns is a rig's runs with and without the victim, and their score.
type leakRuns struct {
	with, without *probeRun
	ks            float64
	obs           []float64
}

// measureLeak runs the rig with and without its victim guests and scores
// the attacker's gaps against each other: every leak number the repo prints
// comes through here.
func measureLeak(rig probeRig, confidences ...float64) (*leakRuns, error) {
	var l leakRuns
	var err error
	if l.with, err = rig.run(); err != nil {
		return nil, fmt.Errorf("with victim: %w", err)
	}
	rig.guests = slices.DeleteFunc(slices.Clone(rig.guests), func(g rigGuest) bool { return g.victim })
	if l.without, err = rig.run(); err != nil {
		return nil, fmt.Errorf("without victim: %w", err)
	}
	l.ks, l.obs, err = scoreLeak(l.with.gapsMS, l.without.gapsMS, confidences...)
	return &l, err
}

// fileVictimRig is the rig of Fig 4 and the median-vs-leader ablation: a
// dense constant-rate probe stream into the attacker on hosts {0,1,2} of five,
// next to a victim on {2,3,4} — exactly one shared host — serving streams
// closed-loop downloads of fileKB each. With baseline set both run under
// the baseline VMM, alone on host 0.
func fileVictimRig(baseline bool, seed uint64, duration sim.Time, streams, fileKB int) probeRig {
	att, vic := []int{0, 1, 2}, []int{2, 3, 4}
	if baseline {
		att, vic = []int{0}, []int{0}
	}
	return probeRig{
		seed: seed, hosts: 5, duration: duration, probeMeanGap: denseProbeGap,
		attacker: "attacker", attHosts: att, source: "colluder",
		guests: []rigGuest{{id: "victim", victim: true, hosts: vic, streams: streams, fileKB: fileKB,
			app: factory(func() (*apps.FileServer, error) { return apps.NewFileServer(apps.DefaultFileServerConfig()) })}},
	}
}
