package core

// Data-plane metrics: every family is a read, at snapshot time, of state
// the cluster already keeps — the fabric's per-kind packet counts, each
// host's proposal-latency buckets and disk, the egress, the journals and
// the replay-length buckets. Nothing here is written on the data path, so
// no metric ever feeds back into scheduling, RNG draws or event order, and
// an instrumented run's op-log digest is byte-identical to an
// uninstrumented one.

import (
	"stopwatch/internal/metrics"
	"stopwatch/internal/netsim"
	"stopwatch/internal/vmm"
)

// replayLenBuckets spans a replacement replay: one record up to ~260k —
// an uncheckpointed long-lived guest's whole delivery history.
var replayLenBuckets = metrics.ExpBuckets(1, 4, 10)

// InstrumentMetrics registers the data-plane metric families on reg:
//
//	stopwatch_net_packets_delivered_total{kind}  fabric deliveries by packet kind
//	stopwatch_net_packets_dropped_total{kind}    loss-model drops and dead-address arrivals
//	stopwatch_vmm_proposal_latency_ns            own-proposal → median-resolution latency
//	stopwatch_host_disk_busy_ns{host}            accumulated disk service time
//	stopwatch_host_disk_backlog_ns{host}         disk FIFO horizon past now (queue wait)
//	stopwatch_host_io_inflight{host}             device-model work in progress
//	stopwatch_egress_stuck_groups                open output copy groups: not yet forwarded
//	stopwatch_guest_divergences                  Δn synchrony violations, summed over replicas
//	stopwatch_guest_journal_records{guest}       retained determinism-journal deliveries
//	stopwatch_guest_journal_bytes{guest}         retained journal size incl. checkpoint
//	stopwatch_guest_checkpoint_age_instr{guest}  instructions a replacement would replay
//	stopwatch_vmm_replay_records                 journal records replayed per replacement
//
// Each family reads cluster state at snapshot time, so it does not matter
// when reg is attached: the counters and histograms read totals since the
// cluster was built, and the per-guest families list whoever is resident
// at the snapshot. Take snapshots from the simulation thread (barrier
// context while a coordinator is driving the shards).
func (c *Cluster) InstrumentMetrics(reg *metrics.Registry) {
	perKind := func(name, help string, read func(k netsim.KindStats) uint64) {
		reg.NewCounterSetFunc(name, help, "kind", func(emit func(string, uint64)) {
			for _, k := range c.net.Stats().ByKind {
				if n := read(k); n > 0 {
					emit(k.Kind, n)
				}
			}
		})
	}
	perKind("stopwatch_net_packets_delivered_total",
		"fabric packets handed to an attached node, by packet kind",
		func(k netsim.KindStats) uint64 { return k.Delivered })
	perKind("stopwatch_net_packets_dropped_total",
		"fabric packets lost to the loss model or a detached address, by packet kind",
		func(k netsim.KindStats) uint64 { return k.Lost })
	reg.NewHistogramFunc("stopwatch_vmm_proposal_latency_ns",
		"loop-time latency from a replica's own delivery-time proposal to the median resolution", func() metrics.Histogram {
			sum := metrics.NewHistogram(vmm.ProposalLatencyBuckets)
			for _, h := range c.hosts {
				sum.Merge(h.ProposalLatency())
			}
			return sum
		})

	perHost := func(name, help string, read func(h *vmm.Host) float64) {
		reg.NewGaugeSetFunc(name, help, "host", func(emit func(string, float64)) {
			for _, h := range c.hosts {
				emit(h.Name(), read(h))
			}
		})
	}
	perHost("stopwatch_host_disk_busy_ns",
		"accumulated disk service time (seek + transfer + jitter) per host",
		func(h *vmm.Host) float64 { return float64(h.DiskBusy()) })
	perHost("stopwatch_host_disk_backlog_ns",
		"disk FIFO horizon past the current instant per host — the wait a new request would see",
		func(h *vmm.Host) float64 { return float64(h.DiskBacklog(c.loop.Now())) })
	perHost("stopwatch_host_io_inflight",
		"device-model work in progress per host (packets being processed, disk requests outstanding)",
		func(h *vmm.Host) float64 { return float64(h.IOInFlight()) })

	reg.NewGaugeFunc("stopwatch_egress_stuck_groups",
		"egress copy groups still below their forward threshold — outputs a client is waiting for",
		func() float64 { return float64(c.egress.StuckBelowForward()) })
	reg.NewGaugeFunc("stopwatch_guest_divergences",
		"sum of replica divergence counters across resident guests (Δn synchrony violations: a median delivery time the replica had already passed)",
		func() float64 {
			n := 0
			for _, g := range c.guests {
				n += g.Divergences()
			}
			return float64(n)
		})

	perGuest := func(name, help string, read func(g *Guest) float64) {
		reg.NewGaugeSetFunc(name, help, "guest", func(emit func(string, float64)) {
			for _, g := range c.guests {
				if g.journal != nil {
					emit(g.ID, read(g))
				}
			}
		})
	}
	perGuest("stopwatch_guest_journal_records",
		"resolved deliveries retained in the guest's determinism journal (post-truncation)",
		func(g *Guest) float64 { return float64(g.journal.Stats().Records) })
	perGuest("stopwatch_guest_journal_bytes",
		"estimated retained journal size per guest — delivery records plus the latest checkpoint",
		func(g *Guest) float64 { return float64(g.journal.Stats().Bytes) })
	perGuest("stopwatch_guest_checkpoint_age_instr",
		"instructions a replacement would replay: most advanced live replica minus the latest checkpoint",
		func(g *Guest) float64 {
			var instr int64
			for _, w := range g.replicas {
				if w != nil && w.rt != nil && w.rt.Instr() > instr {
					instr = w.rt.Instr()
				}
			}
			return float64(instr - g.journal.Stats().CheckpointInstr)
		})
	reg.NewHistogramFunc("stopwatch_vmm_replay_records",
		"journal records replayed to reconstruct a replacement replica",
		func() metrics.Histogram { return c.replayLen })
}
