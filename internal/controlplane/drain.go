package controlplane

import (
	"errors"
	"fmt"

	"stopwatch/internal/placement"
)

// Host drain: planned whole-machine evacuation, one DrainOp. Each resident
// replica is moved with an ordinary child ReplaceOp — the one replica-move
// barrier (moveReplica, controlplane.go: pause → quiesce → rehome → replace
// → resume) — logged with the drain as its parent. Because the drained
// machine is alive, the barrier first freezes the guest's execution on it
// while the machine's VMM keeps proposing — the paper's footnote-4 regime,
// so the 3-proposal median never stalls — which guarantees the survivors are
// at or past the frozen replica's instruction count by switchover (the
// reclaim window the egress already handles for crash recovery). Residents
// move one after another, in guest-id order, and the machine ends empty with
// every affected guest still in strict lockstep.
//
// The same per-resident loop also serves EvacuateOp (failure.go), where the
// machine's VMM is dead: there the replicas are already stopped (the barrier
// freezes nothing) and the loop waits for the post-crash group
// reconfiguration before starting.

// applyDrain starts evacuating machine: its capacity is removed from the
// placement pool immediately (no new replicas land on it), and every
// resident replica is re-homed sequentially, in guest-id order, via child
// ReplaceOps. The op completes once the last resident has been processed,
// with the joined errors of any moves that failed — e.g. ErrNoFeasibleHost
// when a saturated packing leaves a guest nowhere to go; such guests keep
// serving from their remaining replicas.
//
// The machine stays drained afterwards (ready for maintenance); UndrainOp
// returns its capacity to the pool.
func (cp *ControlPlane) applyDrain(op DrainOp, oc *Outcome) {
	machine := op.Machine
	if machine < 0 || machine >= cp.c.Hosts() {
		cp.finish(oc, fmt.Errorf("%w: machine %d out of range", ErrControlPlane, machine))
		return
	}
	if cp.Failed(machine) {
		cp.finish(oc, fmt.Errorf("%w: machine %d crashed — evacuate it with EvacuateOp", ErrControlPlane, machine))
		return
	}
	if err := cp.pool.Mark(machine, placement.Maintenance); err != nil {
		cp.finish(oc, err) // typed placement.ErrDrained on a double drain
		return
	}
	cp.draining[machine] = true
	cp.phase(oc, PhaseDrain)
	cp.evacuateResidents(oc, machine, causeDrain, nil, nil)
}

// evacuateResidents moves every resident replica off machine through child
// ReplaceOps, sequentially in guest-id order, and completes the parent
// outcome with the joined move errors. cause rides on each move: a
// causeDrain move's barrier freezes the resident's guest execution first
// (planned drain: the VMM stays live and keeps proposing); a crashed
// machine's replicas are already stopped.
// ready, when non-nil, gates the start of the loop (the crash path must not
// run barriers before the group reconfiguration has unwedged quiescence);
// it is re-checked every drainWindow, bounded by maxDrainAttempts. pre,
// when non-nil, contributes errors joined ahead of the move errors (the
// crash path's reconfiguration failures).
func (cp *ControlPlane) evacuateResidents(parent *Outcome, machine int, cause opCause, ready func() bool, pre func() []error) {
	residents := cp.pool.Residents(machine)
	parent.Guests = residents
	var errs []error
	finish := func() {
		delete(cp.draining, machine)
		var all []error
		if pre != nil {
			all = append(all, pre()...)
		}
		cp.finish(parent, errors.Join(append(all, errs...)...))
	}
	var next func(i int)
	next = func(i int) {
		if i >= len(residents) {
			finish()
			return
		}
		id := residents[i]
		// The guest may have departed, or a concurrent failure replacement
		// may already have moved it off the machine: both are a completed
		// evacuation from this drain's point of view.
		here := func() bool {
			tri, resident := cp.pool.Triangle(id)
			return resident && tri.Contains(machine)
		}
		// Another lifecycle op may hold the guest (e.g. a failure
		// replacement racing the drain): wait, bounded like the quiescence
		// barrier. Once the bound is hit the move is submitted anyway — its
		// rejection is then on record in the op log instead of a counter
		// nobody can replay.
		cp.recheck("cp:evacuate-retry", nil, func() bool {
			_, busy := cp.inflight[id]
			return !busy || !here()
		}, func(bool) {
			if !here() {
				next(i + 1)
				return
			}
			// A drain move freezes the resident's guest execution at the
			// start of its barrier (moveReplica), so a move that is then
			// abandoned leaves the guest serving degraded on its live
			// replicas. A guest another op still holds at the retry bound is
			// left running — that op owns it; only the move's rejection goes
			// on record.
			move := ReplaceOp{GuestID: id, DeadHost: machine, cause: cause}
			move.Done = func(coc *Outcome) {
				if coc.Err != nil {
					errs = append(errs, fmt.Errorf("evacuate %q off machine %d: %w", id, machine, coc.Err))
				}
				next(i + 1)
			}
			cp.apply(move, parent.Seq)
		})
	}
	if ready == nil {
		next(0)
		return
	}
	cp.recheck("cp:evacuate-wait", nil, ready, func(reconfigured bool) {
		if !reconfigured {
			errs = append(errs, fmt.Errorf("%w: machine %d group reconfiguration never completed", ErrControlPlane, machine))
			finish()
			return
		}
		cp.phase(parent, PhaseReconfigure)
		next(0)
	})
}

// applyUndrain returns a drained machine's capacity to the placement pool.
// It refuses while the evacuation is still moving residents, and refuses
// crashed machines (RepairOp is their way back).
func (cp *ControlPlane) applyUndrain(op UndrainOp, oc *Outcome) {
	machine := op.Machine
	if cp.draining[machine] {
		cp.finish(oc, fmt.Errorf("%w: machine %d still evacuating", ErrControlPlane, machine))
		return
	}
	if cp.Failed(machine) {
		cp.finish(oc, fmt.Errorf("%w: machine %d crashed — RepairOp returns it", ErrControlPlane, machine))
		return
	}
	if err := cp.pool.Clear(machine, placement.Maintenance); err != nil {
		cp.finish(oc, err)
		return
	}
	cp.phase(oc, PhaseUndrain)
	cp.finish(oc, nil)
}
