package core

import (
	"fmt"
	"sort"
)

// This file is the crashed-machine failure domain (Sec. VII: "the state of
// the crashed VM can be recovered from the other two replicas"). A planned
// drain keeps the machine's VMM proposing (footnote-4 regime); a crash does
// not — the dead device models would stall every co-resident guest's
// 3-proposal median forever. FailMachine models the crash instant;
// MarkReplicaDead installs the degraded live-group view that lets the
// survivors resolve on the live quorum until the control plane repairs
// membership through the ordinary replacement barrier.

// GuestIDs returns the deployed guest ids in sorted order — the
// deterministic iteration order for whole-machine operations.
func (c *Cluster) GuestIDs() []string {
	ids := make([]string, 0, len(c.guests))
	for id := range c.guests {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// FailMachine models machine m's VMM dying at the current instant: every
// resident replica's guest execution halts, and the machine's fabric
// endpoint goes silent (a dead VMM neither proposes nor resends, and the
// beacons its wirings hold are never pulled). The
// replica wirings stay in place — replacement needs the slots — and the
// surviving replicas keep running against the full group
// view until MarkReplicaDead reconfigures them (callers wait a settle
// window first so the dead VMM's in-flight proposals land everywhere and
// every replica sees identical proposal sets).
func (c *Cluster) FailMachine(m int) error {
	if m < 0 || m >= len(c.hosts) {
		return fmt.Errorf("%w: machine %d out of range", ErrCluster, m)
	}
	h := c.hosts[m]
	if h.Failed() {
		return fmt.Errorf("%w: machine %d already failed", ErrCluster, m)
	}
	h.Fail()
	for _, id := range c.GuestIDs() {
		g := c.guests[id]
		if g.Baseline != nil {
			if g.baselineHost == m {
				g.Baseline.Stop()
			}
			continue
		}
		if slot, on := g.SlotOnHost(m); on {
			g.replicas[slot].rt.Stop()
		}
	}
	return nil
}

// MarkReplicaDead reconfigures guest id's group after its replica's machine
// (deadHost, already failed via FailMachine) died: the survivors' peer
// links (proposals and pacing) and group views drop the dead
// member, and the ingress stops replicating to it. Pending delivery
// proposals are re-proposed among the live members and resolve on the live
// quorum, so the guest's inbound path is unwedged; the dead replica's own
// wiring is left for the replacement barrier to tear down.
//
// Call it one settle window after FailMachine: the degraded view is only
// deterministic once every survivor holds the same proposals — the dead
// VMM's in-flight ones landed everywhere (a loss-free fabric), or
// ReconcileSurvivors carried what landed at one survivor to the others.
func (c *Cluster) MarkReplicaDead(id string, deadHost int) error {
	g, ok := c.guests[id]
	if !ok {
		return fmt.Errorf("%w: guest %q not deployed", ErrCluster, id)
	}
	if g.Baseline != nil {
		return fmt.Errorf("%w: baseline guests have no replica groups", ErrCluster)
	}
	if deadHost < 0 || deadHost >= len(c.hosts) {
		return fmt.Errorf("%w: machine %d out of range", ErrCluster, deadHost)
	}
	if !c.hosts[deadHost].Failed() {
		return fmt.Errorf("%w: machine %d is not failed", ErrCluster, deadHost)
	}
	if _, on := g.SlotOnHost(deadHost); !on {
		return fmt.Errorf("%w: guest %q has no replica on host %d", ErrCluster, id, deadHost)
	}
	return c.reconcileGroups(g)
}

// ReviveMachine clears a failed machine's mark after repair: the machine
// rejoins the cloud empty and can host new replicas again. It refuses while a
// guest resides there: the mark keeps its dead replica out of quiescence and
// view changes, and nothing pulls what its wiring holds (hostNode.Hold).
func (c *Cluster) ReviveMachine(m int) error {
	if m < 0 || m >= len(c.hosts) {
		return fmt.Errorf("%w: machine %d out of range", ErrCluster, m)
	}
	if !c.hosts[m].Failed() {
		return fmt.Errorf("%w: machine %d is not failed", ErrCluster, m)
	}
	for _, id := range c.GuestIDs() {
		g := c.guests[id]
		if _, on := g.SlotOnHost(m); on || g.Baseline != nil && g.baselineHost == m {
			return fmt.Errorf("%w: machine %d still hosts guest %q", ErrCluster, m, id)
		}
	}
	c.hosts[m].Revive()
	return nil
}
