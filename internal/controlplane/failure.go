package controlplane

// Crashed machines as a first-class failure domain. A planned drain
// (drain.go) can rely on the machine's live VMM to keep the 3-proposal
// median flowing; a crashed (VMM-dead) machine cannot — before this path
// existed, every co-resident guest stalled forever waiting for proposals
// that would never arrive. The recovery protocol, Paxos-style
// reconfiguration made concrete on the StopWatch data plane:
//
//  1. FailOp marks the machine failed: its capacity leaves the placement
//     pool (placement.Failed in its availability record), the data plane
//     halts its runtimes and silences its VMMs, and — one drainWindow later,
//     once the dead VMM's in-flight proposals have landed and the survivors
//     have exchanged what landed where (core.ReconcileSurvivors) — every
//     resident guest's group is reconfigured (proposal and pacing peers,
//     replica group views, ingress replication, egress live count) to
//     the live quorum. Pending
//     and future delivery proposals then resolve on the live set and the
//     guests keep serving degraded 2-of-3. The op completes at the
//     reconfiguration (PhaseReconfigure).
//  2. EvacuateOp repairs membership: every resident is moved, in guest-id
//     order, through ordinary child ReplaceOps — journal replay already
//     reconstructs the replica; it only needed medians that keep resolving.
//  3. RepairOp returns the (rebooted, empty) machine to the pool.
//
// FailOps are submitted two ways: scripted (an operator or scenario driver
// calls Apply), or detector-driven — EnableStallDetector (detector.go)
// turns a stalled proposal group into a FailOp{Detected: true} and chains
// the EvacuateOp off the fail's completion event, making
// fail → reconfigure → evacuate a pipeline rather than a call sequence.

import (
	"fmt"

	"stopwatch/internal/placement"
)

// hostFailure is one machine's crash epoch, created by FailOp and deleted
// by RepairOp.
type hostFailure struct {
	// reconfigured flips once the post-crash group reconfiguration has
	// been broadcast, after the proposal settle window — the gate
	// EvacuateOp waits on.
	reconfigured bool
	// reconfigErrs collects reconfiguration failures for the evacuation
	// outcome.
	reconfigErrs []error
}

// applyFail marks machine as crashed (its VMM died). The machine's capacity
// leaves the placement pool immediately, its replicas' guest execution and
// VMMs stop (no proposals or resends), and one drainWindow later — once the dead
// VMM's in-flight proposals have settled at every survivor — every resident
// guest's replica group is reconfigured onto its live quorum, unwedging the
// delivery medians; the op completes then. Submit an EvacuateOp afterwards
// (any time: the reconfiguration is awaited) to re-home the residents.
//
// A Detected fail (submitted by the stall detector) requires the machine to
// already be dead at the data plane — the detector reacted to its silence —
// and skips the kill; suspecting a live machine is rejected, on record.
//
// A machine can crash while a DrainOp evacuation of it is still in flight:
// the drain loop adopts the situation safely — its remaining barriers
// simply wait out quiescence until the reconfiguration fires, and its moves
// keep counting as (drain) Evacuations — while an EvacuateOp is refused
// until that loop finishes and can then pick up any residents whose moves
// it abandoned.
func (cp *ControlPlane) applyFail(op FailOp, oc *Outcome) {
	machine := op.Machine
	if machine < 0 || machine >= cp.c.Hosts() {
		cp.finish(oc, fmt.Errorf("%w: machine %d out of range", ErrControlPlane, machine))
		return
	}
	if cp.failures[machine] != nil {
		cp.finish(oc, fmt.Errorf("%w: machine %d already failed", ErrControlPlane, machine))
		return
	}
	if op.Detected {
		if !cp.c.Host(machine).Failed() {
			cp.finish(oc, fmt.Errorf("%w: detector suspected machine %d but its VMM is alive", ErrControlPlane, machine))
			return
		}
		// The machine is already dead at the data plane; there is nothing
		// to kill, only control-plane recovery to run.
	} else if err := cp.c.FailMachine(machine); err != nil {
		cp.finish(oc, err)
		return
	}
	// The machine's capacity leaves the pool under its own reason: a machine
	// mid-maintenance can crash too, and its Maintenance mark is untouched
	// by this one and by the repair that clears it.
	if err := cp.pool.Mark(machine, placement.Failed); err != nil {
		cp.finish(oc, err)
		return
	}
	f := &hostFailure{}
	cp.failures[machine] = f
	cp.phase(oc, PhaseDrain)
	residents := cp.pool.Residents(machine)
	oc.Guests = residents
	// Two steps, both scheduled now. At reconcileSettle the dead VMM's
	// in-flight proposals have landed wherever the fabric delivers them, and
	// the survivors exchange what did land, repairing deliveries a loss tore
	// apart; the phase is stamped only when that repaired something, keeping
	// loss-free op logs byte-identical. One drainWindow after the crash the
	// view commits.
	cp.c.Loop().After(reconcileSettle, "cp:fail-reconcile", func() {
		st := cp.c.ReconcileSurvivors(machine, residents)
		oc.ReconcileRounds, oc.ReconcileRepairs = st.Rounds, st.Repairs
		if st.Repairs > 0 {
			cp.phase(oc, PhaseReconcile)
		}
	})
	cp.c.Loop().After(drainWindow, "cp:fail-reconfig", func() {
		// The failure epoch may have ended (RepairOp) — or ended and
		// restarted — since the crash; only the closure belonging to the
		// current, still-active epoch may open the evacuation gate. A
		// superseded fail still completes, with the reconfiguration it never
		// performed absent from its phases.
		if cp.failures[machine] != f {
			cp.finish(oc, nil)
			return
		}
		for _, id := range residents {
			// A guest that departed or was already re-homed (a racing
			// failure replacement) needs no reconfiguration.
			tri, ok := cp.pool.Triangle(id)
			if !ok || !tri.Contains(machine) {
				continue
			}
			// A failure here (e.g. a guest whose every machine has crashed
			// has no live quorum) must reach the evacuation outcome, not
			// vanish; the gate still opens so the reconfigured guests'
			// barriers proceed.
			if err := cp.c.MarkReplicaDead(id, machine); err != nil {
				f.reconfigErrs = append(f.reconfigErrs,
					fmt.Errorf("reconfigure %q after machine %d crash: %w", id, machine, err))
			}
		}
		f.reconfigured = true
		cp.phase(oc, PhaseReconfigure)
		cp.finish(oc, nil)
	})
}

// applyEvacuate re-homes every resident of a crashed machine through child
// ReplaceOps, sequentially in guest-id order, starting once the post-crash
// group reconfiguration has unwedged quiescence. The op completes with the
// joined errors of the moves that failed — reconfiguration failures joined
// ahead of them — e.g. ErrNoFeasibleHost under a saturated packing, where
// the guest keeps serving degraded on its live pair. The machine stays
// failed afterwards; RepairOp returns it.
func (cp *ControlPlane) applyEvacuate(op EvacuateOp, oc *Outcome) {
	machine := op.Machine
	if machine < 0 || machine >= cp.c.Hosts() {
		cp.finish(oc, fmt.Errorf("%w: machine %d out of range", ErrControlPlane, machine))
		return
	}
	f := cp.failures[machine]
	if f == nil {
		cp.finish(oc, fmt.Errorf("%w: machine %d is not failed", ErrControlPlane, machine))
		return
	}
	if cp.draining[machine] {
		cp.finish(oc, fmt.Errorf("%w: machine %d already evacuating", ErrControlPlane, machine))
		return
	}
	cp.draining[machine] = true
	cp.phase(oc, PhaseEvacuate)
	// Reconfiguration failures surface through the evacuation outcome,
	// joined ahead of the per-resident move errors, and are consumed on
	// report so a documented evacuate-retry does not double-count them.
	pre := func() []error {
		re := f.reconfigErrs
		f.reconfigErrs = nil
		return re
	}
	cp.evacuateResidents(oc, machine, causeCrash, func() bool { return f.reconfigured }, pre)
}

// applyRepair returns a crashed machine to service after its evacuation:
// the (rebooted, empty) machine's capacity rejoins the placement pool and
// new replicas may land on it — unless the operator had drained it for
// maintenance before the crash, in which case it stays drained.
//
// It refuses while any resident remains (e.g. a degraded guest whose move
// was infeasible under a saturated packing): the Failed mark is what keeps
// the guest's dead replica — whose proposal sender is permanently closed —
// out of quiescence checks and group reconfigurations, so reviving the
// machine under it would re-wedge the guest. Evacuate first (retry once
// capacity frees), then repair.
func (cp *ControlPlane) applyRepair(op RepairOp, oc *Outcome) {
	machine := op.Machine
	if cp.draining[machine] {
		cp.finish(oc, fmt.Errorf("%w: machine %d still evacuating", ErrControlPlane, machine))
		return
	}
	if cp.failures[machine] == nil {
		cp.finish(oc, fmt.Errorf("%w: machine %d is not failed", ErrControlPlane, machine))
		return
	}
	if left := cp.pool.Residents(machine); len(left) > 0 {
		cp.finish(oc, fmt.Errorf("%w: machine %d still hosts %v — evacuate before repairing", ErrControlPlane, machine, left))
		return
	}
	if err := cp.c.ReviveMachine(machine); err != nil {
		cp.finish(oc, err)
		return
	}
	delete(cp.failures, machine)
	cp.phase(oc, PhasePlace)
	cp.finish(oc, cp.pool.Clear(machine, placement.Failed))
}

// Failed reports whether machine is marked crashed.
func (cp *ControlPlane) Failed(machine int) bool { return cp.failures[machine] != nil }
