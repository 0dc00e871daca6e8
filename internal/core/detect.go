package core

// The stall detector's cluster half: one periodic sweep on the control loop
// reads every live replica's pending proposals (vmm.NetDevice.Overdue) and
// turns "this replica is still waiting for that origin" into a cluster-level
// suspicion — "machine m is silent" — for the control plane's detector
// (controlplane/detector.go) to act on. The cluster only names suspects;
// declaring a machine dead (and everything that follows) is policy and
// stays above.
//
// An origin is suspected when its proposal is still missing for a sequence
// this replica proposed at least two deadlines ago in the current view.
// Votes only accumulate within a view, and a view change re-proposes every
// pending sequence (restarting its clock), so the rule is two observations
// one deadline apart: a saturated Dom0 (the coresidency load coupling the
// paper models) can hold a proposal past one deadline, a dead VMM never
// catches up. The sweep runs at barriers, with every shard parked, so it
// may read any replica's device state.

import (
	"fmt"

	"stopwatch/internal/sim"
)

// SetStallDetector starts the sweep, every deadline/5 on the control loop,
// and reports each machine a live replica finds overdue, once per sweep in
// ascending machine order. onSuspect may be invoked at several sweeps for
// one dead machine; dedup is the caller's job. Replicas on failed machines
// report nothing.
func (c *Cluster) SetStallDetector(deadline sim.Time, onSuspect func(machine int)) error {
	if deadline <= 0 {
		return fmt.Errorf("%w: stall deadline %d", ErrCluster, deadline)
	}
	if onSuspect == nil {
		return fmt.Errorf("%w: stall detector needs a suspect callback", ErrCluster)
	}
	c.stallDeadline = deadline
	c.onStallSuspect = onSuspect
	if c.suspects == nil {
		c.suspects = make([]bool, len(c.hosts))
		c.armSweep()
	}
	return nil
}

// armSweep schedules the next sweep, a fifth of a deadline from now.
func (c *Cluster) armSweep() {
	c.loop.AfterTimer(max(c.stallDeadline/5, 1), "stall:sweep", sweepTimer, c, nil, 0)
}

func sweepTimer(a, _ any, _ uint64) {
	c := a.(*Cluster)
	c.armSweep()
	c.sweep()
}

// sweep collects the machines overdue at any live replica, then reports
// them in machine order, so the result does not depend on the guest map's
// order.
func (c *Cluster) sweep() {
	cutoff := c.loop.Now() - 2*c.stallDeadline
	for _, g := range c.guests {
		for _, w := range g.replicas {
			if c.hosts[w.hostIdx].Failed() {
				continue
			}
			for _, p := range g.replicas {
				if p != w && w.nd.Overdue(p.hostName, cutoff) {
					c.suspects[p.hostIdx] = true
				}
			}
		}
	}
	for m, s := range c.suspects {
		if s {
			c.suspects[m] = false
			c.onStallSuspect(m)
		}
	}
}
