package core

// The survivor exchange of a crash view change. On a lossy fabric a crashed
// VMM's in-flight proposals may have been partially delivered: one survivor
// resolved a 3-median with the dead member's vote while another never saw
// it, and after the view change the resolved survivor would stale-drop the
// wedged one's re-proposal. So before the control plane commits the
// post-crash view, every affected guest's running survivors trade what they
// know — each device's recent resolutions plus the dead origin's pending
// votes (vmm.NetDevice.ExportReconcile / ImportReconcile).
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
	// Repairs counts sequences repaired at importers: decisions adopted or
	// stashed, dead votes merged.
	Repairs int
}

// DisableViewReconcile force-disables the survivor exchange (the scenario
// harness's ablation switch): ReconcileSurvivors returns zero stats and
// repairs nothing, restoring the loss-intolerant behaviour.
func (c *Cluster) DisableViewReconcile() { c.noReconcile = true }

// ReconcileSurvivors runs the survivor exchange for every listed guest after
// machine crashed: it takes each running survivor's export first, then
// imports every export into every other survivor. Call it from control
// context once the dead VMM's in-flight proposals have landed, and before
// MarkReplicaDead commits the view. Imports are idempotent, so a second call
// repairs nothing.
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
		exports := make([]vmm.ReconcileExport, len(live))
		for i, nd := range live {
			exports[i] = nd.ExportReconcile(dead)
		}
		for i, x := range exports {
			for j, nd := range live {
				if i != j {
					st.Repairs += nd.ImportReconcile(x)
				}
			}
		}
	}
	return st
}
