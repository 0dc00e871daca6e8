package core

// The survivor exchange of a crash view change. On a lossy fabric a crashed
// VMM's in-flight proposals may have been partially delivered: one survivor
// resolved a 3-median with the dead member's vote while another never saw
// it, and after the view change the resolved survivor would stale-drop the
// wedged one's re-proposal. So before the control plane commits the
// post-crash view, every affected guest's running survivors are brought
// level: dead votes pass device to device, and a survivor that holds a
// payload but no decision adopts the one in the guest's journal
// (vmm.ReconcileSurvivors).
//
// The exchange is one synchronous step on the control loop, as the commit
// itself is (reconcileGroups): every shard is parked, so each survivor's
// device model is read and written in place. There is no packet to lose and
// no ack to wait for, so the exchange cannot fall short of the commit.

import "stopwatch/internal/vmm"

// ReconcileStats is one failure's survivor exchange, for the control plane's
// outcome record.
type ReconcileStats struct {
	// Rounds counts guest groups whose survivors exchanged state.
	Rounds int
	// Repairs counts sequences repaired at survivors: dead votes merged and
	// journaled decisions adopted.
	Repairs int
}

// DisableViewReconcile force-disables the survivor exchange (the scenario
// harness's ablation switch): ReconcileSurvivors returns zero stats and
// repairs nothing, restoring the loss-intolerant behaviour.
func (c *Cluster) DisableViewReconcile() { c.noReconcile = true }

// ReconcileSurvivors runs the survivor exchange for every listed guest with
// at least two running survivors after machine crashed. Call it from control
// context once the dead VMM's in-flight proposals have landed, and before
// MarkReplicaDead commits the view. A second call repairs nothing.
func (c *Cluster) ReconcileSurvivors(machine int, ids []string) ReconcileStats {
	var st ReconcileStats
	if c.noReconcile || machine < 0 || machine >= len(c.hosts) {
		return st
	}
	dead := c.hosts[machine].Name()
	for _, id := range ids {
		g, ok := c.guests[id]
		if !ok {
			continue
		}
		var live []*vmm.NetDevice
		for _, w := range g.replicas {
			if w.hostIdx != machine && !c.hosts[w.hostIdx].Failed() && !w.rt.Stopped() {
				live = append(live, w.nd)
			}
		}
		if len(live) < 2 {
			continue // nothing to exchange
		}
		st.Rounds++
		st.Repairs += vmm.ReconcileSurvivors(live, dead, g.journal)
	}
	return st
}
