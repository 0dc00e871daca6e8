package controlplane

// The automatic failure detector. Its other half is core/detect.go, where
// every replica arms a per-sequence proposal deadline as it sends a
// proposal. EnableStallDetector connects the two: when a delivery proposal
// group stalls past the deadline, the survivors' device models name the
// silent members, the cluster maps them to machines, and the control plane
// auto-submits FailOp{Detected: true} for each — then chains an EvacuateOp
// off the fail's completion event. fail → reconfigure → evacuate becomes a
// detector-driven pipeline, every step of it on the op log, with no
// scripted FailOp anywhere.

import (
	"errors"
	"fmt"

	"stopwatch/internal/core"
	"stopwatch/internal/sim"
)

// EnableStallDetector arms the per-sequence proposal deadline on every
// guest replica (current and future) and turns stalled
// proposal groups into detector-driven FailOps: a machine whose proposals
// are missing past the deadline is suspected, auto-failed (reconfiguring
// its residents onto their live quorums) and then auto-evacuated. A
// suspicion of a machine whose VMM is in fact alive is rejected and logged,
// never executed — the sim's ground truth stands in for the unreachable-
// heartbeat confirmation a real deployment would use.
//
// deadline must comfortably exceed a proposal round trip (fabric latency
// plus Dom0 processing); 0 selects half the drain window, which is sized to
// cover a settled round trip. Suspicion is two-step — a
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
		deadline = drainWindow / 2
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

// suspectMachine receives one piece of evidence that machine is dead — a
// stall report from the data plane (its proposals are missing past the
// deadline), or core's refusal to build a replica on it (refusedAsDead) —
// and submits the detected FailOp, whose ground-truth check is what makes a
// false alarm harmless: rejected, on the log, and the machine detectable
// again. One dead machine stalls many sequences across many guests; the
// first report is the one that acts, the rest find it already failed.
func (cp *ControlPlane) suspectMachine(machine int) {
	if cp.failures[machine] == nil {
		cp.Apply(FailOp{Machine: machine, Detected: true})
	}
}

// refusedAsDead reports whether err is the cluster refusing to build a
// replica on a dead machine (core.HostFailedError) that the pool still
// offered — the window between a crash and its detection. The refusal is
// the detection: the machine is suspected on the spot, which marks it Failed
// in the pool, so the caller — having released what it placed — may place
// again and cannot be handed the same machine. Its residents are evacuated
// where EnableStallDetector chained that to a detected fail.
func (cp *ControlPlane) refusedAsDead(err error) bool {
	var dead *core.HostFailedError
	if !errors.As(err, &dead) {
		return false
	}
	cp.suspectMachine(dead.Host)
	return cp.Failed(dead.Host)
}
