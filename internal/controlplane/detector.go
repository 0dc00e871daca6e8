package controlplane

// The automatic failure detector, closing the loop the ROADMAP left open:
// vmm.NetDevice has always been able to arm a per-sequence proposal
// deadline (ProposalDeadline / OnStall), but until now only tests wired it.
// EnableStallDetector plumbs the hook through the cluster into the control
// plane: when a delivery proposal group stalls past the deadline, the
// survivors' device models name the silent members, the cluster maps them
// to machines, and the control plane auto-submits FailOp{Detected: true}
// for each — then chains an EvacuateOp off the fail's completion event.
// fail → reconfigure → evacuate becomes a detector-driven pipeline, every
// step of it on the op log, with no scripted FailOp anywhere.

import (
	"fmt"

	"stopwatch/internal/sim"
)

// EnableStallDetector arms the per-sequence proposal deadline on every
// guest replica device model (current and future) and turns stalled
// proposal groups into detector-driven FailOps: a machine whose proposals
// are missing past the deadline is suspected, auto-failed (reconfiguring
// its residents onto their live quorums) and then auto-evacuated. A
// suspicion of a machine whose VMM is in fact alive is rejected and logged,
// never executed — the sim's ground truth stands in for the unreachable-
// heartbeat confirmation a real deployment would use.
//
// deadline must comfortably exceed a proposal round trip (fabric latency
// plus Dom0 processing); 0 selects half the DrainWindow, which the Config
// already sizes to cover a settled round trip. Suspicion is two-step — a
// stalled sequence is re-checked one further deadline later and only an
// origin still silent then is accused — and a false alarm (the suspected
// VMM turns out alive) lands on the op log as a rejected FailOp, never
// executed, leaving the machine detectable again. Repairing a machine also
// re-arms its detection.
func (cp *ControlPlane) EnableStallDetector(deadline sim.Time) error {
	if deadline < 0 {
		return fmt.Errorf("%w: stall deadline %d", ErrControlPlane, deadline)
	}
	if deadline == 0 {
		deadline = cp.cfg.DrainWindow / 2
	}
	// Chain the pipeline: a detected fail's completion (the reconfiguration
	// has run) triggers the evacuation of its residents.
	cp.Watch(func(ev Event) {
		op, ok := ev.Op.(FailOp)
		if !ok || !op.Detected || ev.Kind != OpCompleted {
			return
		}
		cp.Apply(EvacuateOp{Machine: op.Machine})
	})
	return cp.c.SetStallDetector(deadline, cp.suspectMachine)
}

// suspectMachine receives one stall report from the data plane: origin
// machines whose proposals are missing past the deadline. One dead machine
// stalls many sequences across many guests; the suspected mark makes the
// first report the one that acts.
func (cp *ControlPlane) suspectMachine(machine int) {
	if cp.suspected[machine] || cp.failures[machine] != nil {
		return
	}
	cp.suspected[machine] = true
	if oc := cp.Apply(FailOp{Machine: machine, Detected: true}); oc.Err != nil {
		// A false alarm (the machine's VMM is alive after all) is on the op
		// log as a rejected FailOp; un-mark the machine so a later, genuine
		// crash can still be detected.
		delete(cp.suspected, machine)
	}
}
