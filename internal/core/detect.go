package core

// The stall detector's cluster half. Each replica's SendProposal arms a
// per-sequence deadline on its host loop; when one passes with the
// sequence's proposal group still short (vmm.NetDevice.MissingProposals),
// this file turns that replica-local observation into a cluster-level
// suspicion — "machine m is silent" — for the control plane's detector
// (controlplane/detector.go) to act on. The cluster only names suspects;
// declaring a machine dead (and everything that follows) is policy and
// stays above.

import (
	"fmt"
	"sort"

	"stopwatch/internal/sim"
)

// stallRec is one replica-level stall observation, recorded by the replica's
// shard goroutine and handled at the next coordinator barrier. Deferring to
// the barrier keeps detection off the shard hot path AND out of shard
// execution entirely: reportStall schedules confirmation timers on the
// control loop, which only barrier context may touch.
type stallRec struct {
	when sim.Time
	id   string
	w    *replicaWiring
	seq  uint64
}

// SetStallDetector arms the per-sequence proposal deadline on every guest
// replica — each proposal sent from now on arms one — and reports the
// machines whose proposals are missing when a sequence stalls past it.
// onSuspect may be invoked several times for one dead machine (every guest
// it stalls reports); dedup is the caller's job. Reports from replicas that
// are themselves on failed machines, or from wirings already replaced, are
// suppressed.
func (c *Cluster) SetStallDetector(deadline sim.Time, onSuspect func(machine int)) error {
	if deadline <= 0 {
		return fmt.Errorf("%w: stall deadline %d", ErrCluster, deadline)
	}
	if onSuspect == nil {
		return fmt.Errorf("%w: stall detector needs a suspect callback", ErrCluster)
	}
	c.stallDeadline = deadline
	c.onStallSuspect = onSuspect
	return nil
}

// stallTimer is a sequence's proposal deadline (armed by SendProposal): it
// records the sequence if its proposal group is still short. It only
// records: the shard index is the replica host's, so each queue has exactly
// one writer goroutine.
func stallTimer(a, _ any, seq uint64) {
	w := a.(*replicaWiring)
	if len(w.nd.MissingProposals(seq)) == 0 {
		return
	}
	c, k := w.c, w.c.shardOf(w.hostIdx)
	c.stallQ[k] = append(c.stallQ[k], stallRec{when: w.hn.host.Loop().Now(), id: w.gid, w: w, seq: seq})
}

// drainStalls is the coordinator's barrier hook: it merges the per-shard
// stall queues into one deterministic order — (stall time, host index,
// guest id, seq), independent of the partition — and hands each record to
// reportStall.
func (c *Cluster) drainStalls() {
	n := 0
	for _, q := range c.stallQ {
		n += len(q)
	}
	if n == 0 {
		return
	}
	recs := make([]stallRec, 0, n)
	for k, q := range c.stallQ {
		recs = append(recs, q...)
		c.stallQ[k] = q[:0]
	}
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.when != b.when {
			return a.when < b.when
		}
		if a.w.hostIdx != b.w.hostIdx {
			return a.w.hostIdx < b.w.hostIdx
		}
		if a.id != b.id {
			return a.id < b.id
		}
		return a.seq < b.seq
	})
	for _, r := range recs {
		c.reportStall(r.id, r.w, r.seq)
	}
}

// reportStall handles one replica-level stall. A missed deadline alone is
// not an accusation: a saturated Dom0 (the coresidency load coupling the
// paper models) can legitimately hold a proposal past any snappy deadline,
// so the stall is re-checked one further deadline later and only an origin
// still silent then is reported. A dead VMM never catches up; a merely
// slow one resolves the sequence in between and the alarm dissolves.
//
// The deadline timer outlives lifecycle churn, so stale sources are
// filtered at both checks: a replica on a failed machine resolves nothing
// and reports nothing, and a wiring the guest no longer owns (evicted, or
// replaced at switchover) is dead state.
func (c *Cluster) reportStall(id string, w *replicaWiring, seq uint64) {
	if !c.stallSourceLive(id, w) {
		return
	}
	if len(w.nd.MissingProposals(seq)) == 0 {
		return
	}
	view := w.nd.View()
	c.loop.After(c.stallDeadline, "stall:confirm", func() {
		if c.onStallSuspect == nil || !c.stallSourceLive(id, w) {
			return
		}
		// A view change in between voids the observation: the
		// reconfiguration wiped and re-proposed every pending sequence, so
		// a proposal set that looks empty right now may just be the re-
		// proposal round still in flight. The fresh proposals armed fresh
		// deadlines; a genuine stall under the new view re-reports.
		if w.nd.View() != view {
			return
		}
		for _, origin := range w.nd.MissingProposals(seq) {
			if m, ok := c.hostIdxByName[origin]; ok {
				c.onStallSuspect(m)
			}
		}
	})
}

// stallSourceLive reports whether a stall source is still worth listening
// to: its own machine is alive and the wiring is still the guest's current
// occupant of its slot.
func (c *Cluster) stallSourceLive(id string, w *replicaWiring) bool {
	if c.hosts[w.hostIdx].Failed() {
		return false
	}
	g, ok := c.guests[id]
	if !ok {
		return false
	}
	for _, cur := range g.replicas {
		if cur == w {
			return true
		}
	}
	return false
}
