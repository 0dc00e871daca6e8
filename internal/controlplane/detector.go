package controlplane

// The automatic failure detector. Its other half is core/detect.go, a
// periodic sweep over every live replica's pending proposals.
// EnableStallDetector connects the two: an origin whose proposal is still
// missing two deadlines after a survivor made its own is named silent, the
// cluster maps it to its machine, and the control plane auto-submits
// FailOp{Detected: true} for it — then chains an EvacuateOp off the fail's
// completion event. fail → reconfigure → evacuate becomes a detector-driven
// pipeline, every step of it on the op log, with no scripted FailOp
// anywhere.

import (
	"errors"
	"fmt"

	"stopwatch/internal/core"
	"stopwatch/internal/sim"
)

// EnableStallDetector starts the cluster's stall sweep and turns what it
// finds into detector-driven FailOps: a machine whose proposals a live
// replica has waited on for two deadlines is suspected, auto-failed
// (reconfiguring its residents onto their live quorums) and then
// auto-evacuated. A suspicion of a machine whose VMM is in fact alive is
// rejected and logged, never executed — the sim's ground truth stands in
// for the unreachable-heartbeat confirmation a real deployment would use.
//
// deadline must comfortably exceed a proposal round trip (fabric latency
// plus Dom0 processing); 0 selects half the drain window, which is sized to
// cover a settled round trip. The sweep runs every deadline/5, so a crash is
// suspected between two deadlines and two deadlines plus a fifth after the
// first proposal its silence holds up. Waiting two deadlines is what keeps
// a merely slow Dom0 from being accused; a false alarm (the suspected VMM
// turns out alive) lands on the op log as a rejected FailOp, never
// executed, leaving the machine detectable again. Repairing a machine also
// re-arms its detection. A machine whose residents get no inbound traffic
// holds up no proposal, so the sweep never suspects it; the first admission
// the pool places there finds it instead (refusedAsDead).
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
// sweep's report from the data plane (a live replica has waited two
// deadlines for its proposal), or core's refusal to build a replica on it
// (refusedAsDead) — and submits the detected FailOp, whose ground-truth
// check is what makes a false alarm harmless: rejected, on the log, and the
// machine detectable again. A dead machine is reported at every sweep until
// it is failed; the first report is the one that acts, the rest find it
// already failed.
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
