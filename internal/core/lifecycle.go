package core

import (
	"fmt"

	"stopwatch/internal/gateway"
	"stopwatch/internal/guest"
	"stopwatch/internal/vmm"
)

// This file is the cluster's dynamic path: guests leave (Undeploy) and
// failed replicas are re-homed onto fresh hosts (ReplaceReplica) while the
// cloud keeps running. The control plane (internal/controlplane) drives
// these against its placement pool; the cluster owns the mechanics.

// Undeploy evicts a guest: replicas stop and detach from their hosts'
// schedulers, all fabric wiring (service address, ingress stream) is torn
// down, and the id becomes reusable.
func (c *Cluster) Undeploy(id string) error {
	g, ok := c.guests[id]
	if !ok {
		return fmt.Errorf("%w: guest %q not deployed", ErrCluster, id)
	}
	if g.Baseline != nil {
		g.Baseline.Release()
		c.net.Detach(gateway.ServiceAddr(id))
		delete(c.guests, id)
		return nil
	}
	for _, w := range g.replicas {
		c.releaseReplicaWiring(id, w)
	}
	if err := c.ingress.UnregisterGuest(id); err != nil {
		return err
	}
	c.egress.DropGuest(id)
	delete(c.guests, id)
	return nil
}

// releaseReplicaWiring unwires one StopWatch replica from the fabric: the
// runtime leaves its host's scheduler, the host node forgets the guest (its
// proposal links go with it), and the ingress stream state is dropped. Both
// eviction and replacement teardown go through here.
func (c *Cluster) releaseReplicaWiring(id string, w *replicaWiring) {
	w.rt.Release()
	delete(w.hn.residents, id)
	w.hn.mrx.Forget(c.ingress.SourceAddr(id))
}

// GuestQuiescent reports whether every live replica's device model has
// resolved all inbound packets — the barrier replica replacement requires.
// Pause the guest's ingress stream and wait a network-drain interval to
// reach it. Replicas on failed (VMM-dead) machines are excluded: their
// device models resolve nothing and are torn down wholesale at switchover.
func (c *Cluster) GuestQuiescent(id string) bool {
	g, ok := c.guests[id]
	if !ok || g.Baseline != nil {
		return false
	}
	for _, w := range g.replicas {
		if c.hosts[w.hostIdx].Failed() {
			continue
		}
		if w.nd.Pending() > 0 {
			return false
		}
	}
	return true
}

// ReplaceReplica re-homes guest id's replica from deadHost onto newHost:
// the Sec. VII recovery path, where the crashed replica's state is
// reconstructed from the survivors. The new replica is rebuilt by replaying
// the guest's determinism journal to a survivor's exact instruction count,
// wired into the proposal/pacing/egress fabric, and started in lockstep.
//
// Preconditions — the control plane's barrier establishes them:
//   - the guest's ingress stream is paused (no replication in flight), and
//   - GuestQuiescent(id) holds (no unresolved delivery proposals).
//
// The failed replica itself may be long dead; only its VMM-side wiring is
// torn down here.
func (c *Cluster) ReplaceReplica(id string, deadHost, newHost int) error {
	g, ok := c.guests[id]
	if !ok {
		return fmt.Errorf("%w: guest %q not deployed", ErrCluster, id)
	}
	if g.Baseline != nil {
		return fmt.Errorf("%w: baseline guests have no replicas to replace", ErrCluster)
	}
	if newHost < 0 || newHost >= len(c.hosts) {
		return fmt.Errorf("%w: host index %d out of range", ErrCluster, newHost)
	}
	if c.hosts[newHost].Failed() {
		return &HostFailedError{Host: newHost}
	}
	slot := -1
	for k, w := range g.replicas {
		if w.hostIdx == deadHost {
			slot = k
		}
		if w.hostIdx == newHost {
			return fmt.Errorf("%w: guest %q already has a replica on host %d", ErrCluster, id, newHost)
		}
	}
	if slot < 0 {
		return fmt.Errorf("%w: guest %q has no replica on host %d", ErrCluster, id, deadHost)
	}
	if !c.ingress.Paused(id) {
		return fmt.Errorf("%w: replacement of %q needs the ingress stream paused", ErrCluster, id)
	}
	if !c.GuestQuiescent(id) {
		return fmt.Errorf("%w: guest %q has unresolved inbound packets — not quiescent", ErrCluster, id)
	}

	dead := g.replicas[slot]
	survivors := make([]*replicaWiring, 0, len(g.replicas)-1)
	for _, w := range g.replicas {
		if w != dead {
			survivors = append(survivors, w)
		}
	}
	if len(survivors) == 0 {
		return fmt.Errorf("%w: guest %q has no survivors to recover from", ErrCluster, id)
	}

	// Reconstruct the replica FIRST — replay can fail, and until it has
	// succeeded the dead replica's wiring must stay up (its device model
	// still proposes, which is what keeps the 3-proposal median and hence
	// the guest's inbound path alive in the crashed-guest regime). The
	// target is the most advanced survivor's instruction count (replicas
	// differ only in real-time skew; any exit point is a consistent state).
	donor := survivors[0]
	target := donor.rt.Instr()
	for _, w := range survivors[1:] {
		if w.rt.Instr() > target {
			target = w.rt.Instr()
			donor = w
		}
	}
	rt, err := vmm.NewReplacementRuntime(c.hosts[newHost], id, g.factory(), g.boots, g.journal, target)
	if err != nil {
		return fmt.Errorf("replace %q: %w", id, err)
	}

	// Point of no return: tear down the dead replica's wiring. The
	// survivors forget its pacing progress when reconcileGroups installs
	// the new view below.
	c.releaseReplicaWiring(id, dead)

	if err := c.wireReplica(g, slot, newHost, rt); err != nil {
		rt.Release()
		return fmt.Errorf("replace %q: %w", id, err)
	}

	// Join the in-progress ingress stream at its current sequence: the new
	// member must not NAK history from before it existed. (reconcileGroups
	// starts its proposal links with the survivors in sync.)
	next, err := c.ingress.NextSeq(id)
	if err != nil {
		return err
	}
	c.hostNodes[newHost].mrx.Prime(c.ingress.SourceAddr(id), next)
	fresh := g.replicas[slot]
	// The fresh device must not treat the stream's history — resolved by
	// its predecessors and replayed from the journal — as forever-pending.
	fresh.nd.PrimeResolved(next - 1)

	if err := c.reconcileGroups(g); err != nil {
		return err
	}
	// Under epoch re-sync the replacement's coordinator resumes at the
	// restored clock's epoch, adopting the most advanced survivor's pending
	// samples — and, when replay stopped exactly at a barrier the survivors
	// are still holding, sampling and joining it before the runtime starts
	// (the sample leaves on its first beacon).
	if fresh.ec != nil {
		fresh.ec.RestoreAt(donor.ec)
	}
	g.Replaced++
	c.replayLen.Observe(int64(fresh.rt.Stats().ReplayedRecords))
	if c.started {
		fresh.rt.Start()
	}
	return nil
}

// CheckLockstepPrefix verifies the replicas agree on their common output
// prefix. Unlike CheckLockstep it tolerates the bounded skew of a running
// guest (the fastest replica may have emitted a few packets the slowest
// has not), so it is the mid-flight health check; at quiesce the two
// checks coincide.
func (g *Guest) CheckLockstepPrefix() error {
	return g.CheckLockstepPrefixExcluding()
}

// CheckLockstepPrefixExcluding is CheckLockstepPrefix over a subset of
// replicas: the listed slots are skipped. It is the health check for a
// degraded guest — one whose replica died and could not be re-homed —
// where the frozen replica would otherwise drag the common prefix
// arbitrarily far behind the digest history.
func (g *Guest) CheckLockstepPrefixExcluding(slots ...int) error {
	skip := make(map[int]bool, len(slots))
	for _, s := range slots {
		skip[s] = true
	}
	m, live := -1, 0
	for k, w := range g.replicas {
		if skip[k] {
			continue
		}
		live++
		if n := w.rt.VM().OutputCount(); m < 0 || n < m {
			m = n
		}
	}
	if live < 2 {
		return nil
	}
	var ref *guest.OutputLog
	var want uint64
	for k, w := range g.replicas {
		if skip[k] {
			continue
		}
		l := w.rt.VM().OutputLog()
		d, ok := l.DigestAt(m)
		if !ok {
			return fmt.Errorf("%w: guest %s replica %d skewed past digest history (out=%d, prefix=%d)",
				ErrCluster, g.ID, k, l.Len(), m)
		}
		if ref == nil {
			ref, want = l, d
			continue
		}
		if d != want {
			return diverged(g.ID, k, l, ref)
		}
	}
	return nil
}
