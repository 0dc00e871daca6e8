package main

// Folding a finished fleet repetition into named numbers. Everything here
// is read from outside the program, through public read APIs, after the run.

import (
	"math"

	"stopwatch/internal/controlplane"
	"stopwatch/internal/core"
	"stopwatch/internal/netsim"
	"stopwatch/internal/sim"
)

// simMetrics are the simulated-clock and count metrics of a repetition:
// exact functions of (code, workload, seed), compared across repetitions.
func (r *fleetRun) simMetrics(fr *fleetResult, baselineMS float64) map[string]float64 {
	s := r.p.spec
	simS := s.simDur.Seconds()
	m := map[string]float64{}

	// End to end, simulated clock: what the open-loop echo client observes —
	// the one client every fleet workload has, in the thousands. (File and
	// NFS operations are a hundredth of cloud-loaded's requests and ten times
	// slower: pooled with the pings they put the 99th percentile on the edge
	// between the two populations, where it moved 2x from seed to seed.)
	echo := sortTimes(fr.echoLat)
	m["client_lat_ms_p50"] = percentile(echo, 0.50)
	m["client_lat_ms_p99"] = percentile(echo, 0.99)
	m["client_ops"] = float64(len(echo))
	if baselineMS > 0 {
		m["overhead_ratio"] = percentile(echo, 0.50) / baselineMS
	}
	nfs, file := sortTimes(fr.nfsLat), sortTimes(fr.fileLat)
	m["apps.nfs_ms_p50"] = percentile(nfs, 0.50)
	m["apps.nfs_ms_p99"] = percentile(nfs, 0.99)
	m["apps.file_ms_p50"] = percentile(file, 0.50)
	m["apps.file_ms_p99"] = percentile(file, 0.99)

	// sim: scheduler work.
	coord := r.c.Coordinator()
	misses := coord.Ctrl().EventAllocs()
	for _, l := range coord.Shards() {
		misses += l.EventAllocs()
	}
	m["sim.events_per_sim_s"] = float64(coord.FiredTotal()) / simS
	m["sim.event_pool_misses"] = float64(misses)

	// netsim: fabric work.
	ns := r.c.Net().Stats()
	m["netsim.pkts_per_sim_s"] = float64(ns.Delivered) / simS
	m["netsim.pkts_lost"] = float64(ns.Lost)

	// vmm: device-model and pacing counters, evicted guests included.
	m["vmm.net_interrupts"] = float64(fr.counts.netInterrupts)
	m["vmm.divergences"] = float64(fr.counts.divergences)
	m["vmm.pauses"] = float64(fr.counts.pauses)
	m["vmm.disk_overruns"] = float64(fr.counts.diskOverruns)
	m["vmm.replayed_records"] = float64(fr.counts.replayedRecords)

	// gateway.
	m["gateway.replicated"] = float64(r.c.Ingress().Replicated())
	m["gateway.forwarded"] = float64(r.c.Egress().Forwarded())
	m["gateway.egress_pending"] = float64(r.c.Egress().PendingGroups())
	m["gateway.egress_stuck"] = float64(r.c.Egress().StuckBelowForward())

	// controlplane / core / placement: the operations log.
	log := r.cp.Log()
	st := controlplane.FoldStats(log)
	rejected, retries := 0, 0
	phases := map[controlplane.Phase][]sim.Time{}
	for _, oc := range log {
		if oc.Rejected() {
			rejected++
		}
		retries += oc.QuiesceRetries
		if k := oc.Op.Kind(); oc.Err != nil || (k != controlplane.KindReplace && k != controlplane.KindMigrate) {
			continue
		}
		prev := oc.Submitted
		for _, pt := range oc.Phases {
			phases[pt.Phase] = append(phases[pt.Phase], pt.At-prev)
			prev = pt.At
		}
	}
	m["controlplane.ops"] = float64(len(log))
	m["controlplane.ops_rejected"] = float64(rejected)
	m["controlplane.ops_skipped"] = float64(fr.skipped)
	m["controlplane.quiesce_retries"] = float64(retries)
	m["controlplane.barrier_ops"] = float64(fr.barrierOps)
	barriers := sortTimes(fr.barriers)
	m["controlplane.barrier_ms_p50"] = percentile(barriers, 0.50)
	m["controlplane.barrier_ms_p90"] = percentile(barriers, 0.90)
	for _, ph := range []controlplane.Phase{controlplane.PhasePause, controlplane.PhaseQuiesce,
		controlplane.PhaseRehome, controlplane.PhaseReplace, controlplane.PhaseResume} {
		m["controlplane.phase_ms."+string(ph)] = percentile(sortTimes(phases[ph]), 0.50)
	}
	m["core.reconcile_rounds"] = float64(st.ReconcileRounds)
	m["core.reconcile_repairs"] = float64(st.ReconcileRepairs)
	m["placement.utilization"] = r.cp.Utilization()

	// transport: wire cost of a file or NFS operation at the client.
	if fr.transportOp > 0 {
		m["transport.client_pkts_per_op"] = float64(fr.clientPkts) / float64(fr.transportOp)
	}
	return m
}

// registryMetrics reads what only the attached metrics registry knows:
// deliveries by packet kind and the proposal-latency histogram.
func (r *fleetRun) registryMetrics() map[string]float64 {
	m := map[string]float64{}
	byKind := map[string]float64{}
	total := 0.0
	if samples, ok := r.reg.Lookup("stopwatch_net_packets_delivered_total"); ok {
		for _, s := range samples {
			byKind[s.LabelValue] = float64(s.Counter)
			total += float64(s.Counter)
		}
	}
	m["multicast.data_pkts"] = byKind["pgm:data"]
	m["multicast.spm_pkts"] = byKind["pgm:spm"]
	m["multicast.nak_pkts"] = byKind["pgm:nak"]
	if total > 0 {
		m["netsim.housekeeping_pkt_share"] = 100 * (byKind["swpace"] + byKind["pgm:spm"]) / total
	}
	if samples, ok := r.reg.Lookup("stopwatch_vmm_proposal_latency_ns"); ok && len(samples) == 1 {
		m["vmm.proposal_lat_ms_p50"] = histQuantileMS(samples[0].Bounds, samples[0].Counts, 0.50)
		m["vmm.proposal_lat_ms_p99"] = histQuantileMS(samples[0].Bounds, samples[0].Counts, 0.99)
	}
	return m
}

// histQuantileMS is the registry's own quantile rule — the upper bound of
// the bucket the quantile falls in — over a snapshot, in milliseconds.
func histQuantileMS(bounds []int64, counts []uint64, q float64) float64 {
	var total uint64
	for _, n := range counts {
		total += n
	}
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, n := range counts {
		if seen += n; seen >= rank {
			return sim.Time(bounds[min(i, len(bounds)-1)]).Milliseconds()
		}
	}
	return sim.Time(bounds[len(bounds)-1]).Milliseconds()
}

// baselineEchoMS is the denominator of overhead_ratio on the fleet
// workloads: the median request→reply latency of the same echo tenant on
// one machine under the baseline VMM (no replication, no median, no egress),
// pinged by the same Poisson process over the same link. 0 means the
// baseline run itself failed; the workload then reports no overhead_ratio,
// which fails it.
func baselineEchoMS(seed uint64) float64 {
	const pings, pps = 400, 100.0
	cfg := core.DefaultClusterConfig()
	cfg.Hosts, cfg.Mode = 1, core.ModeBaseline
	c, err := core.New(cfg)
	if err != nil {
		return 0
	}
	if _, err := c.Deploy("echo", []int{0}, factory(kindEcho)); err != nil {
		return 0
	}
	loop := c.Net().ShardLoop(0)
	done := make([]sim.Time, pings)
	_ = c.Net().Attach(&netsim.FuncNode{Addr: sinkAddr})
	_ = c.Net().Attach(&netsim.FuncNode{Addr: clientAddr, Fn: func(pkt *netsim.Packet) {
		if id, ok := pkt.Payload.(uint64); ok && id < pings {
			done[id] = loop.Now()
		}
	}})
	c.Start()
	rng := sim.NewSource(seed).Stream("bench-plan:baseline-echo")
	due := make([]sim.Time, pings)
	t := 5 * sim.Millisecond
	for i := range due {
		t += rng.ExpDur(sim.FromSeconds(1 / pps))
		due[i] = t
		id := uint64(i)
		loop.At(t, "bench:req", func() {
			c.Net().Send(c.Net().AllocPacket(clientAddr, core.ServiceAddr("echo"), 200, "ping", id))
		})
	}
	if err := c.Run(t + 200*sim.Millisecond); err != nil {
		return 0
	}
	var lats []sim.Time
	for i, at := range done {
		if at != 0 {
			lats = append(lats, at-due[i])
		}
	}
	if len(lats) != pings {
		return 0
	}
	return percentile(sortTimes(lats), 0.50)
}
