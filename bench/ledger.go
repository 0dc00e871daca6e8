package main

// The ledger: every metric the benchmark prints, by name. BENCHMARK.json at
// the repository root lists the same names with the four keys the driver
// reads; what each number is, which clock it is on, where it comes from and
// what it should move live here (and in README.md). The smoke test holds the
// three in agreement.

import "strings"

// e2eMetric is an end-to-end metric: printed by every workload with
// --trace 0, compared against the parent commit within bound.
type e2eMetric struct {
	name, unit string
	// clock is "host" (this machine's clock, scaled to reference speed —
	// see speedref.go), "sim" (simulated time: a function of code, workload
	// and seed, identical in every repetition) or "count".
	clock  string
	better string
	bound  float64
	what   string
}

var e2eMetrics = []e2eMetric{
	{"setup_s", "s", "host", "lower", 0.25,
		"plan generation, NewCluster, NewControlPlane, initial admissions, client wiring and Start; for paper-figs, building (not running) every cloud the three figures build"},
	{"wall_s_per_sim_s", "s/s", "host", "lower", 0.25,
		"host seconds of Cluster.Run per simulated second; for paper-figs, host seconds of RunFig* per simulated second the figure points covered"},
	{"allocs_per_sim_s", "1/s", "count", "lower", 0.15,
		"heap objects allocated during the run phase per simulated second"},
	{"peak_rss_mb", "MB", "host", "lower", 0.10,
		"the workload process's peak resident set (ru_maxrss), 16 MiB of it the speed reference"},
	{"client_lat_ms_p50", "ms", "sim", "lower", 0.05,
		"median request→reply latency the open-loop echo client observes, timed from each request's due instant; for paper-figs, over the StopWatch-mode mean of each Fig 5/6 point"},
	{"client_lat_ms_p99", "ms", "sim", "lower", 0.15,
		"99th percentile of the same latencies (nearest rank; N is bench.client_ops)"},
	{"overhead_ratio", "ratio", "sim", "lower", 0.10,
		"StopWatch ÷ baseline VMM: on the fleet workloads, median echo latency ÷ the same echo tenant's on one baseline machine under the same ping process; on paper-figs, the geometric mean of the four figure classes' ratios"},
}

// layerMetric is a per-layer metric: printed with --trace 1, no bound.
type layerMetric struct {
	name, unit string
	// source is "d" (a driver in layers.go timing the layer's public API),
	// "c" (an exact count or simulated-clock value read after the run) or
	// "p" (share of CPU-profile samples whose leaf frame is in the layer),
	// "h" (host clock of the traced pass itself).
	source string
	// moves names the end-to-end metric this number should move and on the
	// workload where it should show.
	moves, on string
}

// better is the direction BENCHMARK.json records. Per-layer metrics have no
// bound; for the few where more is better this says so.
func (m layerMetric) better() string {
	switch m.name {
	case "sim.coord_k2_speedup", "placement.utilization", "controlplane.barrier_ops", "bench.client_ops", "bench.ref_speed":
		return "higher"
	}
	return "lower"
}

// layer is the part of a per-layer metric's name before the first dot.
func (m layerMetric) layer() string {
	layer, _, _ := strings.Cut(m.name, ".")
	return layer
}

const (
	mWall   = "wall_s_per_sim_s"
	mAllocs = "allocs_per_sim_s"
	mLat    = "client_lat_ms_p50"
	mTail   = "client_lat_ms_p99"
	mSetup  = "setup_s"
	mRSS    = "peak_rss_mb"
	mRatio  = "overhead_ratio"
	wIdle   = "cloud-idle"
	wWide   = "cloud-wide"
	wLoaded = "cloud-loaded"
	wOps    = "fleet-ops"
	wAll    = "all"
)

var layerMetrics = []layerMetric{
	// sim: the event scheduler.
	{"sim.push_pop_ns.d1e2", "ns", "d", mWall, figsName},
	{"sim.push_pop_ns.d1e3", "ns", "d", mWall, wLoaded},
	{"sim.push_pop_ns.d1e5", "ns", "d", mWall, wWide},
	{"sim.cancel_resched_ns", "ns", "d", mWall, wLoaded},
	{"sim.events_per_sim_s", "1/s", "c", mWall, wIdle},
	{"sim.ns_per_event", "ns", "h", mWall, wIdle},
	{"sim.event_pool_misses", "count", "c", mAllocs, wWide},
	{"sim.coord_k2_speedup", "ratio", "h", mWall, wWide},
	{"sim.cpu_share", "%", "p", mWall, wWide},
	// netsim: the fabric.
	{"netsim.send_deliver_ns", "ns", "d", mWall, wLoaded},
	{"netsim.send_deliver_allocs", "count", "d", mAllocs, wLoaded},
	{"netsim.xshard_send_deliver_ns", "ns", "d", mWall, wWide},
	{"netsim.pkts_per_sim_s", "1/s", "c", mWall, wLoaded},
	{"netsim.pkts_lost", "count", "c", mTail, wLoaded},
	{"netsim.housekeeping_pkt_share", "%", "c", mWall, wIdle},
	{"netsim.cpu_share", "%", "p", mWall, wLoaded},
	// multicast: PGM-style reliable multicast.
	{"multicast.inorder_recv_ns", "ns", "d", mWall, wLoaded},
	{"multicast.lossy_repair_ns", "ns", "d", mWall, wLoaded},
	{"multicast.data_pkts", "count", "c", mWall, wLoaded},
	{"multicast.spm_pkts", "count", "c", mWall, wIdle},
	{"multicast.nak_pkts", "count", "c", mTail, wLoaded},
	{"multicast.cpu_share", "%", "p", mWall, wLoaded},
	// vmm: exec, pacing, median agreement, journal.
	{"vmm.exec_chunk_ns", "ns", "d", mWall, wIdle},
	{"vmm.netdev_resolve_ns", "ns", "d", mWall, wLoaded},
	{"vmm.netdev_resolve_allocs", "count", "d", mAllocs, wLoaded},
	{"vmm.journal_record_ns", "ns", "d", mWall, wLoaded},
	{"vmm.checkpoint_ns", "ns", "d", mWall, wOps},
	{"vmm.replay_ns_per_record", "ns", "d", mWall, wOps},
	{"vmm.net_interrupts", "count", "c", mWall, wLoaded},
	{"vmm.divergences", "count", "c", mTail, wLoaded},
	{"vmm.pauses", "count", "c", mLat, wLoaded},
	{"vmm.disk_overruns", "count", "c", mTail, wLoaded},
	{"vmm.replayed_records", "count", "c", mTail, wOps},
	{"vmm.proposal_lat_ms_p50", "ms", "c", mLat, wLoaded},
	{"vmm.proposal_lat_ms_p99", "ms", "c", mTail, wLoaded},
	{"vmm.cpu_share", "%", "p", mWall, wIdle},
	// gateway: ingress replication, egress median release.
	{"gateway.ingress_replicate_ns", "ns", "d", mWall, wLoaded},
	{"gateway.egress_release_ns", "ns", "d", mWall, wLoaded},
	{"gateway.replicated", "count", "c", mWall, wLoaded},
	{"gateway.forwarded", "count", "c", mWall, wLoaded},
	{"gateway.egress_pending", "count", "c", mRSS, wLoaded},
	{"gateway.egress_stuck", "count", "c", mTail, wOps},
	{"gateway.cpu_share", "%", "p", mWall, wLoaded},
	// core: cluster assembly and view reconcile.
	{"core.deploy_ns", "ns", "d", mSetup, wWide},
	{"core.undeploy_ns", "ns", "d", mWall, wOps},
	{"core.reconcile_rounds", "count", "c", mTail, wOps},
	{"core.reconcile_repairs", "count", "c", mTail, wOps},
	{"core.cpu_share", "%", "p", mWall, wLoaded},
	// controlplane: Apply and the replacement barrier.
	{"controlplane.apply_admit_ns", "ns", "d", mSetup, wWide},
	{"controlplane.apply_evict_ns", "ns", "d", mWall, wOps},
	{"controlplane.replace_wall_us", "us", "d", mWall, wOps},
	{"controlplane.ops", "count", "c", mWall, wOps},
	{"controlplane.ops_rejected", "count", "c", mTail, wOps},
	{"controlplane.ops_skipped", "count", "c", mTail, wOps},
	{"controlplane.quiesce_retries", "count", "c", mTail, wOps},
	{"controlplane.barrier_ops", "count", "c", mTail, wOps},
	{"controlplane.barrier_ms_p50", "ms", "c", mTail, wOps},
	{"controlplane.barrier_ms_p90", "ms", "c", mTail, wOps},
	{"controlplane.phase_ms.pause", "ms", "c", mTail, wOps},
	{"controlplane.phase_ms.quiesce", "ms", "c", mTail, wOps},
	{"controlplane.phase_ms.rehome", "ms", "c", mTail, wOps},
	{"controlplane.phase_ms.replace", "ms", "c", mTail, wOps},
	{"controlplane.phase_ms.resume", "ms", "c", mTail, wOps},
	{"controlplane.cpu_share", "%", "p", mWall, wOps},
	// placement: the incremental triangle packer.
	{"placement.admit_ns.n200", "ns", "d", mSetup, wIdle},
	{"placement.admit_ns.n1000", "ns", "d", mSetup, wWide},
	{"placement.rehome_ns.n1000", "ns", "d", mWall, wOps},
	{"placement.verify_ns.n1000", "ns", "d", mWall, wOps},
	{"placement.utilization", "ratio", "c", mTail, wOps},
	{"placement.cpu_share", "%", "p", mWall, wOps},
	// guest, vtime, transport, apps.
	{"guest.step_ns", "ns", "d", mWall, wLoaded},
	{"guest.cpu_share", "%", "p", mWall, wLoaded},
	{"vtime.cpu_share", "%", "p", mWall, wIdle},
	{"transport.client_pkts_per_op", "count", "c", mLat, wLoaded},
	{"transport.cpu_share", "%", "p", mWall, wLoaded},
	{"apps.nfs_ms_p50", "ms", "c", mLat, wLoaded},
	{"apps.nfs_ms_p99", "ms", "c", mTail, wLoaded},
	{"apps.file_ms_p50", "ms", "c", mLat, wLoaded},
	{"apps.file_ms_p99", "ms", "c", mTail, wLoaded},
	{"apps.cpu_share", "%", "p", mWall, wLoaded},
	// scenario: the declarative harness.
	{"scenario.parse_validate_us", "us", "d", mSetup, wAll},
	{"scenario.corpus_run_s", "s", "d", mWall, wOps},
	// metrics: the observability plane.
	{"metrics.snapshot_us", "us", "h", mWall, wLoaded},
	{"metrics.attach_overhead_pct", "%", "h", mWall, wLoaded},
	// experiment: the paper's figures.
	{"experiment.fig5_wall_s", "s", "h", mWall, figsName},
	{"experiment.fig6_wall_s", "s", "h", mWall, figsName},
	{"experiment.fig7_wall_s", "s", "h", mWall, figsName},
	{"experiment.overhead_ratio_http", "ratio", "c", mRatio, figsName},
	{"experiment.overhead_ratio_udp", "ratio", "c", mRatio, figsName},
	{"experiment.overhead_ratio_nfs", "ratio", "c", mRatio, figsName},
	{"experiment.overhead_ratio_parsec", "ratio", "c", mRatio, figsName},
	{"experiment.paper_err_pct_parsec", "%", "c", mRatio, figsName},
	// Go runtime and the rest of the CPU profile.
	{"runtime.map_cpu_share", "%", "p", mWall, wLoaded},
	{"runtime.mem_cpu_share", "%", "p", mAllocs, wLoaded},
	{"runtime.other_cpu_share", "%", "p", mWall, wWide},
	{"runtime.gc_cycles", "count", "h", mRSS, wWide},
	{"runtime.alloc_bytes_per_sim_s", "B/s", "c", mRSS, wLoaded},
	{"bench.cpu_share", "%", "p", mWall, wAll},
	{"other.cpu_share", "%", "p", mWall, wAll},
	// The traced pass itself.
	{"trace.overhead_pct", "%", "h", mWall, wAll},
	{"bench.client_ops", "count", "c", mTail, wAll},
	{"bench.ref_speed", "ratio", "h", mWall, wAll},
}

// cpuShareMetric maps a CPU-profile bucket to its metric name.
func cpuShareMetric(bucket string) string {
	switch bucket {
	case "runtime.map":
		return "runtime.map_cpu_share"
	case "runtime.mem":
		return "runtime.mem_cpu_share"
	case "runtime.other":
		return "runtime.other_cpu_share"
	}
	return bucket + ".cpu_share"
}
