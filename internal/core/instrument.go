package core

// Data-plane metrics: passive hooks into the fabric, the device models,
// the hosts' disks, the egress and the epoch machinery. Everything here
// either counts what already happened (fabric counters, proposal-latency
// observations) or is a gauge function evaluated lazily at snapshot time
// on the simulation thread — no metric ever feeds back into scheduling,
// RNG draws or event order, so an instrumented run's op-log digest is
// byte-identical to an uninstrumented one.

import (
	"stopwatch/internal/metrics"
	"stopwatch/internal/sim"
)

// propLatencyBuckets spans a proposal round trip: 10µs (same-instant
// resolution after the Dom0 delay) up to ~2.6s (a stalled group waiting
// out a reconfiguration).
var propLatencyBuckets = metrics.ExpBuckets(int64(10*sim.Microsecond), 4, 10)

// replayLenBuckets spans a replacement replay: one record up to ~260k —
// an uncheckpointed long-lived guest's whole delivery history.
var replayLenBuckets = metrics.ExpBuckets(1, 4, 10)

// InstrumentMetrics registers the data-plane metric families on reg and
// wires their sources:
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
// Call once, before or after deployments — replicas wired later inherit
// the proposal-latency histogram, and the per-guest families list whoever
// is resident at the snapshot. Gauges read live cluster state and are
// evaluated at snapshot; take snapshots from the simulation thread.
func (c *Cluster) InstrumentMetrics(reg *metrics.Registry) {
	// Fabric counters and the proposal-latency histogram are sharded: each
	// fabric shard / replica host updates its own cell lock-free, and the
	// registry merges the cells deterministically at snapshot, so the
	// rendered pages are byte-identical for every shard count.
	delivered := reg.NewShardedCounterVec("stopwatch_net_packets_delivered_total",
		"fabric packets handed to an attached node, by packet kind", "kind", c.Shards())
	dropped := reg.NewShardedCounterVec("stopwatch_net_packets_dropped_total",
		"fabric packets lost to the loss model or a detached address, by packet kind", "kind", c.Shards())
	c.net.SetMetrics(delivered, dropped)

	c.propLatency = reg.NewShardedHistogram("stopwatch_vmm_proposal_latency_ns",
		"loop-time latency from a replica's own delivery-time proposal to the median resolution",
		propLatencyBuckets, c.Shards())
	for _, g := range c.guests {
		for _, w := range g.replicas {
			if w != nil && w.nd != nil {
				h := c.propLatency.Shard(c.shardOf(w.hostIdx))
				w.nd.LatencyHist = &h
			}
		}
	}

	busy := reg.NewGaugeFuncVec("stopwatch_host_disk_busy_ns",
		"accumulated disk service time (seek + transfer + jitter) per host", "host")
	backlog := reg.NewGaugeFuncVec("stopwatch_host_disk_backlog_ns",
		"disk FIFO horizon past the current instant per host — the wait a new request would see", "host")
	inflight := reg.NewGaugeFuncVec("stopwatch_host_io_inflight",
		"device-model work in progress per host (packets being processed, disk requests outstanding)", "host")
	for _, h := range c.hosts {
		h := h
		busy.Add(h.Name(), func() float64 { return float64(h.DiskBusy()) })
		backlog.Add(h.Name(), func() float64 { return float64(h.DiskBacklog(c.loop.Now())) })
		inflight.Add(h.Name(), func() float64 { return float64(h.IOInFlight()) })
	}

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
	h := reg.NewHistogram("stopwatch_vmm_replay_records",
		"journal records replayed to reconstruct a replacement replica", replayLenBuckets)
	c.replayLen = &h
}
